package core_test

import (
	"math/rand"
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/eventlog"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/sched"
	"github.com/smartgrid/aria/internal/sim"
	"github.com/smartgrid/aria/internal/trace"
	"github.com/smartgrid/aria/internal/transport"
)

// TestFloodRedundancyAccounting audits a REQUEST wave's redundancy on a
// complete graph, where duplicate receipts are unavoidable. The trace plane
// must classify every receipt correctly: a node forwards a wave at most
// once (a suppressed re-receipt is a SpanDuplicate, never a SpanForward),
// so total transmissions stay within the per-node fanout budget even
// though the wire carries redundant copies.
func TestFloodRedundancyAccounting(t *testing.T) {
	cfg := noRescheduling(core.DefaultConfig())
	cfg.RequestTTL = 3
	cfg.RequestFanout = 3
	cfg.MaxRequestRetries = 0 // a single wave, so per-wave == per-run

	const n = 6
	engine := sim.NewEngine(7)
	graph := overlay.NewGraph()
	for i := 0; i < n; i++ {
		graph.AddNode(overlay.NodeID(i))
	}
	for i := 0; i < n; i++ {
		for k := i + 1; k < n; k++ {
			graph.AddLink(overlay.NodeID(i), overlay.NodeID(k))
		}
	}
	cluster := transport.NewSimCluster(engine, graph, overlay.FixedLatency(10*time.Millisecond))
	rec := newRecorder()
	collector := trace.NewCollector()
	obs := eventlog.Tee{rec, collector}
	for i := 0; i < n; i++ {
		// All POWER: the AMD64 job matches nobody, so every receipt either
		// forwards or is suppressed — pure flood mechanics.
		if _, err := cluster.AddNode(overlay.NodeID(i), powerNode(1.0), sched.FCFS, cfg, obs, job.ARTModel{Mode: job.DriftNone}); err != nil {
			t.Fatal(err)
		}
	}
	cluster.StartAll()
	log := &trafficLog{}
	cluster.SetTraffic(log.hook)

	n0, ok := cluster.Node(0)
	if !ok {
		t.Fatal("node 0 missing")
	}
	if err := n0.Submit(amd64Job(rand.New(rand.NewSource(42)), time.Hour)); err != nil {
		t.Fatal(err)
	}
	engine.Run(time.Minute)

	reqs := log.byType(core.MsgRequest)
	if len(reqs) == 0 {
		t.Fatal("no REQUEST traffic")
	}
	deliveries := make(map[overlay.NodeID]int)
	for _, e := range reqs {
		deliveries[e.to]++
	}

	forwards := make(map[overlay.NodeID]int)
	duplicates := make(map[overlay.NodeID]int)
	totalDup := 0
	for _, ev := range collector.Events() {
		if ev.Msg != core.MsgRequest {
			continue
		}
		switch ev.Kind {
		case core.SpanForward:
			forwards[ev.Node]++
			if ev.Fanout < 1 || ev.Fanout > cfg.RequestFanout {
				t.Fatalf("node %v forwarded %d copies, budget is [1, %d]", ev.Node, ev.Fanout, cfg.RequestFanout)
			}
		case core.SpanDuplicate:
			duplicates[ev.Node]++
			totalDup++
		}
	}

	// On a complete graph the wave must actually produce redundant copies,
	// or the accounting assertions below are vacuous.
	if totalDup == 0 {
		t.Fatal("no duplicate receipts on a complete graph; redundancy untested")
	}

	for id, d := range deliveries {
		// The fixed invariant: one forward per node per wave, no matter
		// how many copies it received.
		if forwards[id] > 1 {
			t.Errorf("node %v forwarded the wave %d times", id, forwards[id])
		}
		// Every receipt beyond a node's first is a suppressed duplicate
		// (the origin's first receipt is suppressed too: its own send
		// already marked the wave as seen).
		if dup := duplicates[id]; dup < d-1 || dup > d {
			t.Errorf("node %v: %d deliveries but %d duplicate spans, want %d or %d", id, d, dup, d-1, d)
		}
	}

	// Redundancy ratio: transmissions per reached node. Bounded by the
	// fanout budget because each participant (receivers plus the origin)
	// transmits at most RequestFanout copies exactly once.
	reached := len(deliveries)
	ratio := float64(len(reqs)) / float64(reached)
	if maxRatio := float64((reached+1)*cfg.RequestFanout) / float64(reached); ratio > maxRatio {
		t.Fatalf("redundancy ratio %.2f exceeds the structural bound %.2f (%d transmissions, %d nodes reached)",
			ratio, maxRatio, len(reqs), reached)
	}
	if ratio <= 1 {
		t.Fatalf("redundancy ratio %.2f on a complete graph; expected redundant transmissions", ratio)
	}
}
