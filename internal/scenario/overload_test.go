package scenario

import (
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/core"
)

// overloadOff strips the overload-control plane from a config, leaving
// everything else (workload, churn, retry budget) identical — the
// unbounded-queue control arm. The name is deliberately kept: runSeed hashes
// it, and the two arms must draw the same topology, profiles, and workload.
func overloadOff(c Config) Config {
	c.Protocol.MaxQueuedJobs = 0
	c.Protocol.MaxPendingSubmits = 0
	c.Protocol.RetryBackoffCap = 0
	return c
}

// overloadSmall scales iOverload (or iOverloadChurn) down for test runs and
// tightens it past the small grid's saturation point: a 2-deep run queue
// against a 1-second submission burst guarantees contention deep enough to
// shed ASSIGNs, not just advisory-BUSY REQUESTs.
func overloadSmall(t *testing.T, name string) Config {
	t.Helper()
	sc := smallScenario(t, name)
	sc.Submission.Interval = time.Second
	sc.Protocol.MaxQueuedJobs = 2
	return sc
}

// TestOverloadShedsAndDrains pins the plane's liveness property: driving the
// small grid far past saturation sheds load — it never loses it. Every
// admitted job still completes once the backlog drains.
func TestOverloadShedsAndDrains(t *testing.T) {
	c := overloadSmall(t, "iOverload")
	res, err := Run(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Submitted {
		t.Fatalf("completed %d of %d (failed %d): shedding lost jobs", res.Completed, res.Submitted, res.Failed)
	}
	if !res.Overload.Any() {
		t.Fatal("a 2-deep queue under a 1s burst recorded no overload activity")
	}
	if res.Overload.RequestsShed == 0 {
		t.Fatal("no advisory BUSY on REQUESTs despite saturation")
	}
	if res.Overload.AssignsShed == 0 {
		t.Fatal("no ASSIGN was shed despite contention past the queue bound")
	}
	if got := res.Overload.Reflooded + res.Overload.Reenqueued; got < res.Overload.AssignsShed {
		t.Fatalf("re-dispatches %d < sheds %d: a shed ASSIGN was orphaned", got, res.Overload.AssignsShed)
	}
	if res.Traffic[core.MsgBusy].Count == 0 {
		t.Fatal("BUSY transmissions missing from the traffic accounting")
	}
}

// TestOverloadTracedInvariants audits the shed machinery against the trace
// checker: every shed ASSIGN must be answered with BUSY and re-dispatched
// (the shed-assign invariant), on top of the standard protocol invariants.
func TestOverloadTracedInvariants(t *testing.T) {
	c := overloadSmall(t, "iOverload")
	res, rep, err := RunTraced(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		for _, v := range rep.Violations {
			t.Errorf("violation: %s", v)
		}
		t.Fatalf("%d invariant violation(s)", len(rep.Violations))
	}
	if rep.ByKind[core.SpanBusy] == 0 {
		t.Fatal("trace retained no BUSY spans")
	}
	if rep.ByKind[core.SpanShed] == 0 {
		t.Fatal("trace retained no shed re-dispatch spans")
	}
	if res.Completed != res.Submitted {
		t.Fatalf("traced run lost jobs: %d of %d", res.Completed, res.Submitted)
	}
}

// TestOverloadChurnTracedInvariants runs the combined saturation+crash
// scenario under the checker: kills land right on the held backlog, so shed
// BUSYs race dying senders. Churn relaxes completeness and the busy-answered
// half of the shed invariant (a sender may die before the BUSY lands), but
// every traced shed span must still have its re-dispatch child.
func TestOverloadChurnTracedInvariants(t *testing.T) {
	c := overloadSmall(t, "iOverloadChurn")
	c.Churn = &Churn{Kills: 10, Start: 25 * time.Minute, Interval: time.Minute}
	res, rep, err := RunTraced(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		for _, v := range rep.Violations {
			t.Errorf("violation: %s", v)
		}
		t.Fatalf("%d invariant violation(s)", len(rep.Violations))
	}
	if !res.Overload.Any() {
		t.Fatal("no overload activity despite saturation")
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed under churn")
	}
}

// TestOverloadControlBeatsUnbounded is the PR's acceptance gate: under a
// submission burst far past saturation (150 jobs in 15 seconds against 50
// nodes — every discovery window overlaps dozens of others), the
// overload-control arm must complete strictly more jobs within a fixed
// evaluation horizon than the identical unbounded-queue control, at every
// seed, while keeping p99 completion time no worse. The mechanism under
// test: overlapping discoveries all herd toward the momentarily-cheapest
// provider before its queue reflects their assignments. The unbounded arm
// freezes that herd into deep straggler queues whose tail outlives the
// horizon while shallow nodes idle; the bounded arm sheds the pile-up with
// BUSY, and the re-dispatches pour the backlog onto whichever node frees up
// next. Rescheduling is off in both arms so queue bounds are the only
// balancing force in play, and the retry budget is patient enough that no
// shed job ever exhausts it.
func TestOverloadControlBeatsUnbounded(t *testing.T) {
	base, err := ByName("iOverload")
	if err != nil {
		t.Fatal(err)
	}
	c := base.Scaled(0.1) // 50 nodes
	c.Protocol.MaxQueuedJobs = 4
	c.Submission.Count = 150
	c.Submission.Interval = 100 * time.Millisecond
	c.Protocol.MaxRequestRetries = 3000
	c.Protocol.RetryBackoffCap = time.Minute
	c.Protocol.InformJobs = 0
	c.Horizon = c.Submission.End() + 15*time.Hour
	for _, seed := range []int{0, 1, 2} {
		shed, err := Run(c, seed)
		if err != nil {
			t.Fatal(err)
		}
		control, err := Run(overloadOff(c), seed)
		if err != nil {
			t.Fatal(err)
		}
		if shed.Completed <= control.Completed {
			t.Errorf("seed %d: shedding completed %d, unbounded control %d; want strictly more",
				seed, shed.Completed, control.Completed)
		}
		if shed.Failed != 0 {
			t.Errorf("seed %d: shedding arm failed %d jobs; the retry budget must outlast the drain", seed, shed.Failed)
		}
		if shed.CompletionP99 > control.CompletionP99 {
			t.Errorf("seed %d: shedding p99 %v exceeds unbounded control p99 %v",
				seed, shed.CompletionP99, control.CompletionP99)
		}
		if !shed.Overload.Any() {
			t.Errorf("seed %d: shedding arm recorded no overload activity", seed)
		}
		if control.Overload.RequestsShed+control.Overload.AssignsShed != 0 {
			t.Errorf("seed %d: control arm shed load: %+v", seed, control.Overload)
		}
		t.Logf("seed %d: shed %d/%d failed=%d p50=%v p99=%v max=%v | control %d/%d failed=%d p50=%v p99=%v max=%v",
			seed, shed.Completed, shed.Submitted, shed.Failed, shed.CompletionP50, shed.CompletionP99, shed.CompletionMax,
			control.Completed, control.Submitted, control.Failed, control.CompletionP50, control.CompletionP99, control.CompletionMax)
	}
}

// TestSubmissionShedWhenEveryPortalBounces fills every node's one discovery
// slot, so each redrawn portal answers ErrOverloaded: the submission model
// must count every such job as shed, and nothing else as submitted.
func TestSubmissionShedWhenEveryPortalBounces(t *testing.T) {
	c := smallScenario(t, "iOverload")
	c.Protocol.MaxPendingSubmits = 1
	d, err := Prepare(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	nodes := d.Cluster.Nodes()
	for _, n := range nodes {
		if err := n.Submit(d.Gen.Next(0)); err != nil {
			t.Fatal(err)
		}
	}
	const bounced = 3
	for range bounced {
		ARiASubmit(d, 0, d.Gen.Next(0))
	}
	res := d.Finish()
	if res.Overload.SubmissionsShed != bounced {
		t.Fatalf("SubmissionsShed = %d, want %d", res.Overload.SubmissionsShed, bounced)
	}
	if res.Submitted != len(nodes) {
		t.Fatalf("submitted %d, want one per node (%d)", res.Submitted, len(nodes))
	}
}
