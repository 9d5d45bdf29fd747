package scenario

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// traceSeeds are the distinct base seeds every scenario is audited under.
var traceSeeds = []int64{0, 7, 20100621} // 0 = the catalog default

// TestTraceInvariantsCatalog runs every scenario — the full Table II catalog
// plus the extension set (lossy links, partitions, churn, multi-assign) —
// with the trace plane armed and asserts the invariant checker finds nothing:
// flood budgets respected, exactly-one execution, no orphaned assignments,
// reschedules economically justified, retries bounded.
func TestTraceInvariantsCatalog(t *testing.T) {
	var all []Config
	all = append(all, Catalog()...)
	all = append(all, ExtensionScenarios()...)

	for _, base := range all {
		base := base
		for i, seed := range traceSeeds {
			if testing.Short() && i > 0 {
				continue
			}
			seed := seed
			t.Run(fmt.Sprintf("%s/seed%d", base.Name, seed), func(t *testing.T) {
				t.Parallel()
				c := smallScenario(t, base.Name)
				if seed != 0 {
					c.Seed = seed
				}
				// The completeness invariants need the whole job tail to
				// drain; slow-INFORM variants can leave work in flight at
				// smallScenario's horizon. Idle simulated time is cheap.
				c.Horizon = c.Submission.End() + 72*time.Hour
				res, rep, err := RunTraced(c, 0)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Events == 0 {
					t.Fatal("trace plane armed but no span events collected")
				}
				if rep.Jobs < res.Submitted {
					t.Fatalf("trace covers %d jobs, %d were submitted", rep.Jobs, res.Submitted)
				}
				if !rep.OK() {
					for _, v := range rep.Violations {
						t.Errorf("%s", v)
					}
					t.Fatalf("%d invariant violation(s) in %s", len(rep.Violations), c.Name)
				}
			})
		}
	}
}

// TestTraceOptsRelaxations pins the mapping from scenario features to checker
// relaxations: clean runs are audited at full strictness, and each extension
// relaxes exactly the invariants it is designed to bend.
func TestTraceOptsRelaxations(t *testing.T) {
	strict := Baseline().TraceOpts()
	if strict.AllowDuplicateStarts || strict.AllowIncomplete || strict.AllowLoss {
		t.Fatalf("clean scenario relaxed the checker: %+v", strict)
	}
	byName := func(name string) Config {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	multi := byName("MultiReq3").TraceOpts()
	if !multi.AllowDuplicateStarts || multi.AllowIncomplete {
		t.Fatalf("MultiReq3 opts %+v", multi)
	}
	churn := byName("iChurn").TraceOpts()
	if !churn.AllowDuplicateStarts || !churn.AllowIncomplete || churn.AllowLoss {
		t.Fatalf("iChurn opts %+v", churn)
	}
	// iLossy runs with the AssignAck handshake, so assignments must still
	// have observable consequences even on a lossy network.
	lossy := byName("iLossy").TraceOpts()
	if lossy.AllowLoss {
		t.Fatalf("iLossy with AssignAck must not relax orphaned-assign: %+v", lossy)
	}
	unhardened := byName("iLossy")
	unhardened.Protocol.AssignAck = false
	if !unhardened.TraceOpts().AllowLoss {
		t.Fatal("lossy run without the handshake must relax orphaned-assign")
	}
}

// TestTracedRunMetricsUnchanged guards the trace plane's neutrality: arming
// it consumes no randomness and sends no extra messages, so a traced run
// reports metrics identical to the untraced run of the same repetition.
func TestTracedRunMetricsUnchanged(t *testing.T) {
	c := smallScenario(t, "iMixed")
	plain, err := Run(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	traced, rep, err := RunTraced(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	// Spans are counted by the recorder in both runs (the counters are
	// observer-side, not protocol-side); everything else must match.
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("tracing changed the run:\nplain:  %+v\ntraced: %+v", plain, traced)
	}
}

// TestTraceCollectorWiredOnDemand pins the opt-in: without Config.Trace the
// deployment carries no collector, with it the collector sees the run.
func TestTraceCollectorWiredOnDemand(t *testing.T) {
	c := smallScenario(t, "Mixed")
	d, err := Prepare(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Trace != nil {
		t.Fatal("untraced deployment carries a collector")
	}

	c.Trace = true
	d, err = Prepare(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Trace == nil {
		t.Fatal("traced deployment without a collector")
	}
	d.ScheduleSubmissions(ARiASubmit)
	res := d.Finish()
	if d.Trace.Len() == 0 {
		t.Fatal("no span events collected")
	}
	if got := res.SpanTotal(); got != d.Trace.Len() {
		t.Fatalf("recorder counted %d spans, collector retained %d", got, d.Trace.Len())
	}
	uuid := d.Trace.Events()[0].UUID
	if len(d.Trace.ByUUID(uuid)) == 0 {
		t.Fatal("ByUUID lost the job's events")
	}
}

// TestTracedRunHorizonCut: at this scale and seed the horizon ends while
// two iMixed jobs are still queued or running on a live node. The audit
// must read them as in flight, not as lost.
func TestTracedRunHorizonCut(t *testing.T) {
	res, rep, err := RunTraced(Baseline().Scaled(0.15), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed+res.Failed >= res.Submitted {
		t.Fatalf("staging failed: %d of %d jobs finished, want some cut by the horizon", res.Completed+res.Failed, res.Submitted)
	}
	if !rep.OK() {
		t.Fatalf("horizon-cut jobs reported as violations:\n%s", rep)
	}
}
