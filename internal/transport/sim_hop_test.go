package transport

import (
	"math/rand"
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/faults"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/sched"
	"github.com/smartgrid/aria/internal/sim"
)

// hopRing builds a started ring of n nodes with the default protocol
// configuration and a pairwise latency model (the hash runs on every hop),
// scaled to microseconds so thousands of waves stay inside one flood-dedup
// generation.
func hopRing(t testing.TB, n int) *SimCluster {
	t.Helper()
	graph := overlay.NewGraph()
	for i := 0; i < n; i++ {
		graph.AddNode(overlay.NodeID(i))
	}
	for i := 0; i < n; i++ {
		graph.AddLink(overlay.NodeID(i), overlay.NodeID((i+1)%n))
	}
	latency, err := overlay.NewPairwiseLatency(time.Microsecond, 10*time.Microsecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSimCluster(sim.NewEngine(1), graph, latency)
	for i := 0; i < n; i++ {
		if _, err := c.AddNode(overlay.NodeID(i), liveProfile(), sched.FCFS, core.DefaultConfig(), nil, job.ARTModel{Mode: job.DriftNone}); err != nil {
			t.Fatal(err)
		}
	}
	c.StartAll()
	return c
}

// TestSimHopAllocationFree pins the pooled delivery path: once the record
// pool is warm, a simulated flood hop — send, traffic hook, latency draw,
// kernel arrival, HandleMessage, forward — allocates nothing.
//
// A wave enters from outside any kernel event, as every first hop of a
// scenario submission does. That injection is pooled too, so an injection
// that dead-ends costs nothing, and neither does one that starts a wave of
// several hops.
func TestSimHopAllocationFree(t *testing.T) {
	const nodes = 8
	c := hopRing(t, nodes)
	hops, wire := 0, 0
	c.SetTraffic(func(_ time.Duration, _, _ overlay.NodeID, m *core.Message) {
		hops++
		wire += m.WireSize()
	})
	rng := rand.New(rand.NewSource(1))
	p := liveJob(rng, time.Hour)
	p.Req.MinMemoryGB = liveProfile().MemoryGB + 1 // nobody offers: the wave only forwards
	src := &simEnv{cluster: c, id: 0, lane: sim.Lane(0)}
	seq := uint64(0)
	inject := func(to overlay.NodeID) {
		seq++
		src.Send(to, core.Message{Type: core.MsgRequest, From: 0, Via: 0, Job: p, TTL: nodes - 3, Fanout: 2, Hop: 1, Seq: seq})
		c.engine.RunAll(0)
	}
	// Warm the record pool and the nodes' dedup sets.
	for i := 0; i < 300; i++ {
		inject(1)
	}
	before := hops
	inject(1)
	perWave := hops - before
	if perWave < nodes-3 {
		t.Fatalf("staging failed: a wave took %d hops, want at least %d", perWave, nodes-3)
	}
	deadEnd := testing.AllocsPerRun(200, func() { inject(nodes + 1) })
	wave := testing.AllocsPerRun(200, func() { inject(1) })
	if deadEnd != 0 {
		t.Errorf("an injection from outside any kernel event costs %v allocs, want 0", deadEnd)
	}
	if wave != deadEnd {
		t.Errorf("a %d-hop wave costs %v allocs against %v for its injection alone; want the hops free", perWave, wave, deadEnd)
	}
}

// TestSimDeliveryRecordsUnderFaults: with link faults on, every surviving
// copy travels in a record of its own and a dropped message hands its
// record straight back, so the pool neither leaks nor shares a record
// between two in-flight copies.
func TestSimDeliveryRecordsUnderFaults(t *testing.T) {
	const sends = 5
	for _, tc := range []struct {
		name          string
		cfg           faults.Config
		records, sent int // records made, deliveries scheduled
	}{
		{"dropped", faults.Config{DropProb: 0.999999999}, 1, 0},
		{"duplicated", faults.Config{DupProb: 0.999999999}, 2 * sends, 2 * sends},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := faultSimPair(t, liveConfig(), nil, tc.cfg)
			src := &simEnv{cluster: c, id: 0, lane: sim.Lane(0)}
			rng := rand.New(rand.NewSource(2))
			for i := 0; i < sends; i++ {
				// To an unregistered address: delivery only recycles.
				src.Send(7, core.Message{Type: core.MsgPing, From: 0, Seq: uint64(i + 1), Job: liveJob(rng, time.Hour)})
			}
			if got := c.engine.Pending(); got != tc.sent {
				t.Fatalf("%d deliveries scheduled, want %d", got, tc.sent)
			}
			c.engine.RunAll(0)
			seen := make(map[*delivery]bool)
			for _, d := range c.free {
				if d.m.Type != 0 || d.m.Job.UUID != "" {
					t.Fatalf("a recycled record still holds %+v", d.m)
				}
				seen[d] = true
			}
			if len(c.free) != tc.records || len(seen) != tc.records {
				t.Fatalf("pool holds %d records (%d distinct), want %d", len(c.free), len(seen), tc.records)
			}
		})
	}
}
