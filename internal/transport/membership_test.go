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
	"github.com/smartgrid/aria/internal/trace"
)

// memberEvent is one recorded membership transition.
type memberEvent struct {
	at         time.Duration
	kind       string // "suspect", "refute", "dead", "repair"
	node, peer overlay.NodeID
}

// memberRecorder captures membership-plane callbacks for assertions.
type memberRecorder struct {
	core.NopObserver

	events []memberEvent
}

func (m *memberRecorder) PeerSuspected(at time.Duration, node, peer overlay.NodeID) {
	m.events = append(m.events, memberEvent{at, "suspect", node, peer})
}

func (m *memberRecorder) PeerRefuted(at time.Duration, node, peer overlay.NodeID) {
	m.events = append(m.events, memberEvent{at, "refute", node, peer})
}

func (m *memberRecorder) PeerDead(at time.Duration, node, peer overlay.NodeID) {
	m.events = append(m.events, memberEvent{at, "dead", node, peer})
}

func (m *memberRecorder) LinkRepaired(at time.Duration, node, dead, replacement overlay.NodeID) {
	m.events = append(m.events, memberEvent{at, "repair", node, replacement})
}

func (m *memberRecorder) FloodEscalated(time.Duration, overlay.NodeID, job.UUID, int, int) {}

// membershipConfig arms the liveness detector on top of the live test config.
func membershipConfig(probe, timeout, suspect time.Duration) core.Config {
	cfg := liveConfig()
	cfg.ProbeInterval = probe
	cfg.ProbeTimeout = timeout
	cfg.SuspectTimeout = suspect
	return cfg
}

// ringCluster builds an n-node ring with membership armed.
func ringCluster(t *testing.T, n int, cfg core.Config, obs core.Observer) *SimCluster {
	t.Helper()
	engine := sim.NewEngine(31)
	graph := overlay.NewGraph()
	for i := 0; i < n; i++ {
		graph.AddNode(overlay.NodeID(i))
	}
	for i := 0; i < n; i++ {
		graph.AddLink(overlay.NodeID(i), overlay.NodeID((i+1)%n))
	}
	c := NewSimCluster(engine, graph, overlay.FixedLatency(100*time.Millisecond))
	for i := 0; i < n; i++ {
		if _, err := c.AddNode(overlay.NodeID(i), liveProfile(), sched.FCFS, cfg, obs, job.ARTModel{Mode: job.DriftNone}); err != nil {
			t.Fatal(err)
		}
	}
	c.StartAll()
	return c
}

// TestMembershipNoFalseDeadUnderJitter pins the detector's safety margin:
// under the fault plane's maximum jitter (2s per copy, the iLossy setting)
// with the default timeouts, late PONGs may raise suspicion but must always
// refute it before the suspect window closes — no live neighbor is ever
// declared dead.
func TestMembershipNoFalseDeadUnderJitter(t *testing.T) {
	rec := &memberRecorder{}
	cfg := core.DefaultConfig()
	cfg.ProbeInterval = core.DefaultProbeInterval
	cfg.ProbeTimeout = core.DefaultProbeTimeout
	cfg.SuspectTimeout = core.DefaultSuspectTimeout
	c := ringCluster(t, 8, cfg, rec)

	lm, err := faults.NewLinkModel(faults.Config{MaxExtraDelay: 2 * time.Second}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	c.SetFaults(lm)
	c.Engine().Run(30 * time.Minute)

	suspects := 0
	for _, ev := range rec.events {
		switch ev.kind {
		case "dead":
			t.Errorf("node %v declared live peer %v dead at %v", ev.node, ev.peer, ev.at)
		case "suspect":
			suspects++
		}
	}
	// Worst-case round trip (0.2s latency + 2·2s jitter) exceeds the 3s
	// probe timeout, so the jitter must actually have produced suspicion
	// for the zero-dead assertion to mean anything.
	if suspects == 0 {
		t.Fatal("max jitter never raised a suspicion; the test exercises nothing")
	}
}

// TestMembershipDetectionBound is the detector timing table test: a killed
// neighbor is confirmed dead by every surviving neighbor within two probe
// intervals, across timeout configurations (each satisfying the design rule
// ProbeTimeout + SuspectTimeout <= ProbeInterval).
func TestMembershipDetectionBound(t *testing.T) {
	tests := []struct {
		name                    string
		probe, timeout, suspect time.Duration
	}{
		{"defaults", core.DefaultProbeInterval, core.DefaultProbeTimeout, core.DefaultSuspectTimeout},
		{"fast", time.Second, 300 * time.Millisecond, 600 * time.Millisecond},
		{"slow", 30 * time.Second, 5 * time.Second, 20 * time.Second},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rec := &memberRecorder{}
			cfg := membershipConfig(tt.probe, tt.timeout, tt.suspect)
			// A pair: each node's single neighbor is probed every tick,
			// the setting the two-interval bound is stated for.
			engine := sim.NewEngine(13)
			graph := overlay.NewGraph()
			graph.AddNode(0)
			graph.AddNode(1)
			graph.AddLink(0, 1)
			c := NewSimCluster(engine, graph, overlay.FixedLatency(time.Millisecond))
			for id := overlay.NodeID(0); id < 2; id++ {
				if _, err := c.AddNode(id, liveProfile(), sched.FCFS, cfg, rec, job.ARTModel{Mode: job.DriftNone}); err != nil {
					t.Fatal(err)
				}
			}
			c.StartAll()

			killAt := 6 * tt.probe
			engine.ScheduleAt(killAt, func() {
				n1, _ := c.Node(1)
				n1.Kill()
			})
			engine.Run(killAt + 4*tt.probe)

			var deadAt time.Duration
			for _, ev := range rec.events {
				if ev.kind == "dead" && ev.node == 0 && ev.peer == 1 {
					deadAt = ev.at
					break
				}
			}
			if deadAt == 0 {
				t.Fatalf("node 0 never declared killed neighbor dead (events: %+v)", rec.events)
			}
			if bound := killAt + 2*tt.probe; deadAt > bound {
				t.Fatalf("detected at %v, bound %v (kill at %v, 2x interval %v)", deadAt, bound, killAt, tt.probe)
			}
		})
	}
}

// TestMembershipRepairReconnectsNeighborOfNeighbor drives the full overlay
// repair path: on a line 0-1-2, node 1's death partitions the ends; peer
// gossip has taught 0 and 2 each other's existence through 1, so both prune
// the dead link and reconnect to each other.
func TestMembershipRepairReconnectsNeighborOfNeighbor(t *testing.T) {
	rec := &memberRecorder{}
	cfg := membershipConfig(time.Second, 300*time.Millisecond, 600*time.Millisecond)
	cfg.MaxDegree = 4

	engine := sim.NewEngine(17)
	graph := overlay.NewGraph()
	for i := 0; i < 3; i++ {
		graph.AddNode(overlay.NodeID(i))
	}
	graph.AddLink(0, 1)
	graph.AddLink(1, 2)
	c := NewSimCluster(engine, graph, overlay.FixedLatency(time.Millisecond))
	for i := 0; i < 3; i++ {
		if _, err := c.AddNode(overlay.NodeID(i), liveProfile(), sched.FCFS, cfg, rec, job.ARTModel{Mode: job.DriftNone}); err != nil {
			t.Fatal(err)
		}
	}
	c.StartAll()

	// Give gossip a few rounds to spread neighbor lists, then kill the cut
	// vertex.
	engine.ScheduleAt(5*time.Second, func() {
		n1, _ := c.Node(1)
		n1.Kill()
	})
	engine.Run(15 * time.Second)

	if graph.HasLink(0, 1) || graph.HasLink(1, 2) {
		t.Fatalf("dead links not pruned: 0-1=%v 1-2=%v", graph.HasLink(0, 1), graph.HasLink(1, 2))
	}
	if !graph.HasLink(0, 2) {
		t.Fatal("overlay not repaired: survivors 0 and 2 are not connected")
	}
	repairs := 0
	for _, ev := range rec.events {
		if ev.kind == "repair" {
			repairs++
		}
	}
	if repairs == 0 {
		t.Fatal("repair happened in the graph but was never observed")
	}
}

// TestInitiatorKilledMidCollect kills an initiator between its REQUEST flood
// and the collect-window decision. The causal trace must report the job as
// lost with the initiator — never double-assigned and never started.
func TestInitiatorKilledMidCollect(t *testing.T) {
	collector := trace.NewCollector()
	cfg := liveConfig() // AcceptTimeout 150ms

	engine := sim.NewEngine(23)
	graph := overlay.NewGraph()
	for i := 0; i < 4; i++ {
		graph.AddNode(overlay.NodeID(i))
		for k := 0; k < i; k++ {
			graph.AddLink(overlay.NodeID(i), overlay.NodeID(k))
		}
	}
	c := NewSimCluster(engine, graph, overlay.FixedLatency(time.Millisecond))
	for i := 0; i < 4; i++ {
		if _, err := c.AddNode(overlay.NodeID(i), liveProfile(), sched.FCFS, cfg, collector, job.ARTModel{Mode: job.DriftNone}); err != nil {
			t.Fatal(err)
		}
	}
	c.StartAll()

	rng := rand.New(rand.NewSource(29))
	p := liveJob(rng, 10*time.Millisecond)
	n0, _ := c.Node(0)
	if err := n0.Submit(p); err != nil {
		t.Fatal(err)
	}
	// The flood is out instantly; offers return after ~2ms; the decision
	// falls at AcceptTimeout. Kill the initiator in between.
	engine.ScheduleAt(cfg.AcceptTimeout/2, func() { n0.Kill() })
	engine.Run(time.Minute)

	events := collector.Events()
	var assigns, starts, losses int
	for _, ev := range events {
		if ev.UUID != p.UUID {
			continue
		}
		switch ev.Kind {
		case core.SpanAssign:
			assigns++
		case core.SpanStart:
			starts++
		case core.SpanLost:
			losses++
		}
	}
	if assigns != 0 || starts != 0 {
		t.Fatalf("dead initiator still delegated: %d assigns, %d starts", assigns, starts)
	}
	if losses != 1 {
		t.Fatalf("losses = %d, want exactly 1 (the killed discovery round)", losses)
	}

	// The strict checker agrees: the job is reported lost (submitted,
	// never started), with no duplicate-execution complaint.
	rep := trace.Check(events, trace.Opts{Protocol: cfg})
	lost := false
	for _, v := range rep.Violations {
		if v.UUID != p.UUID {
			continue
		}
		switch v.Invariant {
		case "exactly-one-start":
			lost = true
		default:
			t.Errorf("unexpected violation: %v", v)
		}
	}
	if !lost {
		t.Fatalf("checker did not report the job lost; violations: %v", rep.Violations)
	}
}
