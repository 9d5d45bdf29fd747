package scenario

import (
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/sched"
)

func TestCatalogMatchesTableII(t *testing.T) {
	cat := Catalog()
	if len(cat) != 26 {
		t.Fatalf("catalog has %d scenarios, Table II lists 26", len(cat))
	}
	want := []string{
		"FCFS", "SJF", "Mixed", "Deadline", "LowLoad", "HighLoad",
		"DeadlineH", "Expanding", "Precise", "Accuracy25", "AccuracyBad",
		"iFCFS", "iSJF", "iMixed", "iDeadline", "iLowLoad", "iHighLoad",
		"iDeadlineH", "iExpanding", "iInform1", "iInform4", "iInform15m",
		"iInform30m", "iPrecise", "iAccuracy25", "iAccuracyBad",
	}
	for i, name := range want {
		if cat[i].Name != name {
			t.Fatalf("catalog[%d] = %s, want %s", i, cat[i].Name, name)
		}
	}
}

func TestCatalogAllValid(t *testing.T) {
	for _, c := range Catalog() {
		if err := c.Validate(); err != nil {
			t.Errorf("scenario %s invalid: %v", c.Name, err)
		}
	}
}

func TestCatalogNamingConvention(t *testing.T) {
	// Every scenario whose name starts with "i" has rescheduling on, and
	// vice versa (the paper's naming convention).
	for _, c := range Catalog() {
		wantResched := c.Name[0] == 'i'
		if c.Rescheduling() != wantResched {
			t.Errorf("scenario %s: rescheduling=%v violates naming convention",
				c.Name, c.Rescheduling())
		}
	}
}

func TestCatalogVariations(t *testing.T) {
	get := func(name string) Config {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	if c := get("LowLoad"); c.Submission.Interval != 20*time.Second {
		t.Errorf("LowLoad interval %v", c.Submission.Interval)
	}
	if c := get("HighLoad"); c.Submission.Interval != 5*time.Second {
		t.Errorf("HighLoad interval %v", c.Submission.Interval)
	}
	if c := get("iInform1"); c.Protocol.InformJobs != 1 {
		t.Errorf("iInform1 informs %d", c.Protocol.InformJobs)
	}
	if c := get("iInform4"); c.Protocol.InformJobs != 4 {
		t.Errorf("iInform4 informs %d", c.Protocol.InformJobs)
	}
	if c := get("iInform15m"); c.Protocol.RescheduleThreshold != 15*time.Minute {
		t.Errorf("iInform15m threshold %v", c.Protocol.RescheduleThreshold)
	}
	if c := get("iInform30m"); c.Protocol.RescheduleThreshold != 30*time.Minute {
		t.Errorf("iInform30m threshold %v", c.Protocol.RescheduleThreshold)
	}
	if c := get("Precise"); c.ART.Mode != job.DriftNone {
		t.Errorf("Precise mode %v", c.ART.Mode)
	}
	if c := get("Accuracy25"); c.ART.Epsilon != 0.25 {
		t.Errorf("Accuracy25 epsilon %v", c.ART.Epsilon)
	}
	if c := get("AccuracyBad"); c.ART.Mode != job.DriftOptimistic {
		t.Errorf("AccuracyBad mode %v", c.ART.Mode)
	}
	if c := get("Expanding"); c.Expanding == nil || c.Expanding.ExtraNodes != 200 {
		t.Errorf("Expanding config %+v", c.Expanding)
	}
	if c := get("DeadlineH"); c.DeadlineSlack != 2*time.Hour+30*time.Minute {
		t.Errorf("DeadlineH slack %v", c.DeadlineSlack)
	}
	if c := get("Mixed"); len(c.Policies) != 2 {
		t.Errorf("Mixed policies %v", c.Policies)
	}
	if c := get("iDeadline"); c.Policies[0] != sched.EDF || !c.Rescheduling() {
		t.Errorf("iDeadline misconfigured")
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName accepted unknown scenario")
	}
}

func TestBaselineIsIMixed(t *testing.T) {
	if Baseline().Name != "iMixed" {
		t.Fatalf("baseline is %s", Baseline().Name)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no name", func(c *Config) { c.Name = "" }},
		{"one node", func(c *Config) { c.Nodes = 1 }},
		{"no policies", func(c *Config) { c.Policies = nil }},
		{"bad policy", func(c *Config) { c.Policies = []sched.Policy{0} }},
		{"class mismatch", func(c *Config) { c.Policies = []sched.Policy{sched.EDF} }},
		{"no horizon", func(c *Config) { c.Horizon = 0 }},
		{"no sampling", func(c *Config) { c.SampleInterval = 0 }},
		{"bad submission", func(c *Config) { c.Submission.Count = 0 }},
		{"bad protocol", func(c *Config) { c.Protocol.RequestTTL = 0 }},
		{"bad art", func(c *Config) { c.ART.Epsilon = 9 }},
		{"bad expanding", func(c *Config) { c.Expanding = &Expanding{} }},
		{"deadline without slack", func(c *Config) {
			c.Policies = []sched.Policy{sched.EDF}
			c.Class = job.ClassDeadline
			c.DeadlineSlack = 0
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := Baseline()
			tt.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Fatal("Validate accepted broken config")
			}
		})
	}
}

func TestScaled(t *testing.T) {
	c := Baseline().Scaled(0.1)
	if c.Nodes != 50 {
		t.Fatalf("scaled nodes %d", c.Nodes)
	}
	if c.Submission.Count != 100 {
		t.Fatalf("scaled jobs %d", c.Submission.Count)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("scaled config invalid: %v", err)
	}
	tiny := Baseline().Scaled(0.001)
	if tiny.Nodes < 16 || tiny.Submission.Count < 20 {
		t.Fatalf("floors not applied: %d nodes %d jobs", tiny.Nodes, tiny.Submission.Count)
	}
	exp, err := ByName("iExpanding")
	if err != nil {
		t.Fatal(err)
	}
	sexp := exp.Scaled(0.1)
	if sexp.Expanding == nil || sexp.Expanding.ExtraNodes != 20 {
		t.Fatalf("scaled expanding %+v", sexp.Expanding)
	}
}

// smallScenario is a fast configuration exercising the full pipeline.
func smallScenario(t *testing.T, name string) Config {
	t.Helper()
	c, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	sc := c.Scaled(0.06) // 30 nodes, 60 jobs
	sc.Submission.Interval = 5 * time.Second
	sc.Horizon = sc.Submission.End() + 30*time.Hour
	return sc
}

func TestRunMixedSmall(t *testing.T) {
	c := smallScenario(t, "Mixed")
	res, err := Run(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Submitted != c.Submission.Count {
		t.Fatalf("submitted %d, want %d", res.Submitted, c.Submission.Count)
	}
	if res.Completed != res.Submitted {
		t.Fatalf("completed %d of %d (failed %d)", res.Completed, res.Submitted, res.Failed)
	}
	if res.Reschedules != 0 {
		t.Fatalf("reschedules %d in a non-rescheduling scenario", res.Reschedules)
	}
	if res.AvgCompletion <= 0 || res.AvgExecution <= 0 {
		t.Fatalf("degenerate durations: %+v", res)
	}
	if res.AvgCompletion < res.AvgExecution {
		t.Fatal("completion time below execution time")
	}
	if len(res.CompletedSeries) == 0 || len(res.IdleSeries) == 0 {
		t.Fatal("series missing")
	}
	last := res.CompletedSeries[len(res.CompletedSeries)-1]
	if last != res.Completed {
		t.Fatalf("series tail %d != completed %d", last, res.Completed)
	}
	if res.Traffic[core.MsgRequest].Count == 0 || res.Traffic[core.MsgAssign].Count == 0 {
		t.Fatalf("missing traffic: %+v", res.Traffic)
	}
	if res.Traffic[core.MsgInform].Count != 0 {
		t.Fatal("INFORM traffic present with rescheduling off")
	}
	if res.TotalBytes == 0 || res.BandwidthBPS <= 0 {
		t.Fatal("traffic accounting empty")
	}
}

func TestRunIMixedSmallReschedules(t *testing.T) {
	c := smallScenario(t, "iMixed")
	res, err := Run(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Submitted {
		t.Fatalf("completed %d of %d", res.Completed, res.Submitted)
	}
	if res.Traffic[core.MsgInform].Count == 0 {
		t.Fatal("no INFORM traffic in a rescheduling scenario")
	}
	if res.Reschedules == 0 {
		t.Fatal("no reschedules happened in iMixed")
	}
}

func TestRunDeadlineSmall(t *testing.T) {
	c := smallScenario(t, "Deadline")
	res, err := Run(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineJobs != res.Completed {
		t.Fatalf("deadline jobs %d != completed %d", res.DeadlineJobs, res.Completed)
	}
	if res.AvgLateness <= 0 && res.MissedDeadlines == 0 {
		t.Fatal("deadline accounting empty")
	}
}

func TestRunExpandingSmall(t *testing.T) {
	c := smallScenario(t, "iExpanding")
	c.Expanding.Start = 10 * time.Minute
	c.Expanding.Interval = 30 * time.Second
	res, err := Run(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantNodes := c.Nodes + c.Expanding.ExtraNodes
	if res.Nodes != wantNodes {
		t.Fatalf("final nodes %d, want %d", res.Nodes, wantNodes)
	}
	if res.Completed != res.Submitted {
		t.Fatalf("completed %d of %d", res.Completed, res.Submitted)
	}
}

func TestRunDeterministic(t *testing.T) {
	c := smallScenario(t, "iMixed")
	a, err := Run(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Completed != b.Completed || a.AvgCompletion != b.AvgCompletion ||
		a.TotalBytes != b.TotalBytes || a.Reschedules != b.Reschedules {
		t.Fatalf("identical runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestRunsDifferAcrossIndices(t *testing.T) {
	c := smallScenario(t, "Mixed")
	a, err := Run(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Seed == b.Seed {
		t.Fatal("run indices share a seed")
	}
	if a.AvgCompletion == b.AvgCompletion && a.TotalBytes == b.TotalBytes {
		t.Fatal("different runs produced identical results (suspicious)")
	}
}

func TestRunNAggregates(t *testing.T) {
	c := smallScenario(t, "Mixed")
	agg, results, err := RunN(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || agg.Runs != 3 {
		t.Fatalf("runs %d/%d", len(results), agg.Runs)
	}
	if agg.Completed.Mean != float64(c.Submission.Count) {
		t.Fatalf("mean completed %v, want all %d", agg.Completed.Mean, c.Submission.Count)
	}
	if len(agg.CompletedSeries) == 0 || len(agg.IdleSeries) == 0 {
		t.Fatal("aggregate series missing")
	}
	if _, _, err := RunN(c, 0); err == nil {
		t.Fatal("RunN accepted zero runs")
	}
}

func TestRunInvalidConfig(t *testing.T) {
	c := Baseline()
	c.Nodes = 0
	if _, err := Run(c, 0); err == nil {
		t.Fatal("Run accepted invalid config")
	}
}

func TestExtensionScenariosValid(t *testing.T) {
	exts := ExtensionScenarios()
	if len(exts) < 6 {
		t.Fatalf("extensions = %d, want at least 6", len(exts))
	}
	for _, c := range exts {
		if err := c.Validate(); err != nil {
			t.Errorf("extension %s invalid: %v", c.Name, err)
		}
	}
}

func TestExtensionTopologyRuns(t *testing.T) {
	for _, name := range []string{"iMixed-random", "iMixed-smallworld"} {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := c.Scaled(0.06)
		sc.Submission.Interval = 5 * time.Second
		res, err := Run(sc, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != res.Submitted {
			t.Fatalf("%s: completed %d of %d", name, res.Completed, res.Submitted)
		}
	}
}

func TestExtensionPoliciesRun(t *testing.T) {
	c, err := ByName("iPolicies4")
	if err != nil {
		t.Fatal(err)
	}
	sc := c.Scaled(0.06)
	sc.Submission.Interval = 5 * time.Second
	res, err := Run(sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Submitted {
		t.Fatalf("completed %d of %d", res.Completed, res.Submitted)
	}
}

func TestExtensionFailsafeRuns(t *testing.T) {
	c, err := ByName("iFailsafe")
	if err != nil {
		t.Fatal(err)
	}
	sc := c.Scaled(0.06)
	res, err := Run(sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Submitted {
		t.Fatalf("completed %d of %d (failed %d)", res.Completed, res.Submitted, res.Failed)
	}
}

func TestExpandingRejectsNonBlatantTopology(t *testing.T) {
	c, err := ByName("iExpanding")
	if err != nil {
		t.Fatal(err)
	}
	c.Topology = overlay.TopologyRing
	if err := c.Validate(); err == nil {
		t.Fatal("expanding scenario accepted a ring topology")
	}
}

// TestChurnLosesJobsWithoutFailsafe pools runs 0–2, like its twin below: a
// single run can dodge every loss when no crash happens to hit a job in
// flight.
func TestChurnLosesJobsWithoutFailsafe(t *testing.T) {
	c, err := ByName("iChurn")
	if err != nil {
		t.Fatal(err)
	}
	sc := c.Scaled(0.08) // 40 nodes
	sc.Churn = &Churn{Kills: 12, Start: 10 * time.Minute, Interval: time.Minute}
	var completed, submitted int
	for run := 0; run < 3; run++ {
		res, err := Run(sc, run)
		if err != nil {
			t.Fatal(err)
		}
		completed += res.Completed
		submitted += res.Submitted
	}
	if completed >= submitted {
		t.Fatalf("no jobs lost to churn over 3 runs: %d of %d", completed, submitted)
	}
}

func TestChurnFailsafeRecoversJobs(t *testing.T) {
	// Same config and name (hence same seeds and workload) with the
	// failsafe toggled: the failsafe run must recover the vast majority
	// of submissions despite the crashes.
	base, err := ByName("iChurn")
	if err != nil {
		t.Fatal(err)
	}
	cfg := base.Scaled(0.08)
	cfg.Churn = &Churn{Kills: 12, Start: 10 * time.Minute, Interval: time.Minute}

	var plainDone, safeDone, submitted int
	for run := 0; run < 3; run++ {
		plain := cfg
		res, err := Run(plain, run)
		if err != nil {
			t.Fatal(err)
		}
		plainDone += res.Completed
		submitted += res.Submitted

		safe := cfg
		safe.Protocol.NotifyInitiator = true
		sres, err := Run(safe, run)
		if err != nil {
			t.Fatal(err)
		}
		safeDone += sres.Completed
	}
	if safeDone < plainDone {
		t.Fatalf("failsafe hurt: %d vs %d completed over 3 runs", safeDone, plainDone)
	}
	if frac := float64(safeDone) / float64(submitted); frac < 0.9 {
		t.Fatalf("failsafe recovered only %.0f%% of jobs (%d/%d)", frac*100, safeDone, submitted)
	}
}

func TestReservationScenarioRuns(t *testing.T) {
	c, err := ByName("iReservations")
	if err != nil {
		t.Fatal(err)
	}
	sc := c.Scaled(0.06)
	d, err := Prepare(sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.ScheduleSubmissions(ARiASubmit)
	res := d.Finish()
	if res.Completed != res.Submitted {
		t.Fatalf("completed %d of %d", res.Completed, res.Submitted)
	}
	reserved := 0
	for _, o := range d.Recorder.Outcomes() {
		if o.EarliestStart == 0 {
			continue
		}
		reserved++
		if o.StartedAt < o.EarliestStart {
			t.Fatalf("job %s started at %v before its %v reservation",
				o.UUID.Short(), o.StartedAt, o.EarliestStart)
		}
	}
	// About a quarter of the jobs should carry reservations.
	if frac := float64(reserved) / float64(res.Completed); frac < 0.1 || frac > 0.45 {
		t.Fatalf("reserved fraction %.2f far from configured 0.25", frac)
	}
}

// TestPaperShapeFullScale is the paper-fidelity regression test: at full
// 500-node/1000-job scale, the headline Fig. 2 comparison must hold —
// dynamic rescheduling shortens completion by cutting waiting. Skipped
// under -short (one run takes several seconds).
func TestPaperShapeFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale run skipped in -short mode")
	}
	mixedCfg, err := ByName("Mixed")
	if err != nil {
		t.Fatal(err)
	}
	iMixedCfg, err := ByName("iMixed")
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := Run(mixedCfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	iMixed, err := Run(iMixedCfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Completed != 1000 || iMixed.Completed != 1000 {
		t.Fatalf("completions %d/%d, want all 1000", mixed.Completed, iMixed.Completed)
	}
	if iMixed.AvgCompletion >= mixed.AvgCompletion {
		t.Fatalf("rescheduling did not shorten completion: %v vs %v",
			iMixed.AvgCompletion, mixed.AvgCompletion)
	}
	if iMixed.AvgWaiting >= mixed.AvgWaiting {
		t.Fatalf("rescheduling did not cut waiting: %v vs %v",
			iMixed.AvgWaiting, mixed.AvgWaiting)
	}
	if iMixed.Reschedules == 0 {
		t.Fatal("no rescheduling at paper scale")
	}
	// Fig. 10 headline: ~3 MB per node over the 42 h horizon.
	perNodeMB := iMixed.BytesPerNode / (1 << 20)
	if perNodeMB < 1 || perNodeMB > 6 {
		t.Fatalf("per-node traffic %.2f MB far from the paper's ~3 MB", perNodeMB)
	}
}

func TestMaintenanceKeepsOverlayHealthyUnderChurn(t *testing.T) {
	c, err := ByName("iChurn")
	if err != nil {
		t.Fatal(err)
	}
	sc := c.Scaled(0.08)
	sc.Churn = &Churn{Kills: 10, Start: 10 * time.Minute, Interval: time.Minute}
	sc.MaintenanceInterval = 5 * time.Minute
	d, err := Prepare(sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.ScheduleSubmissions(ARiASubmit)
	res := d.Finish()
	g := d.Cluster.Graph()
	// Corpses were removed from the graph and the manager kept it
	// connected around them.
	if g.NumNodes() != sc.Nodes-10 {
		t.Fatalf("graph has %d nodes, want %d after churn", g.NumNodes(), sc.Nodes-10)
	}
	if !g.Connected() {
		t.Fatal("overlay disconnected despite maintenance rounds")
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
}

func TestMultiReqScenario(t *testing.T) {
	c, err := ByName("MultiReq3")
	if err != nil {
		t.Fatal(err)
	}
	sc := c.Scaled(0.06)
	res, err := Run(sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Submitted {
		t.Fatalf("completed %d of %d", res.Completed, res.Submitted)
	}
	// The §II critique made measurable: copies are revoked constantly.
	if res.Traffic[core.MsgCancel].Count == 0 {
		t.Fatal("multi-request run produced no CANCEL traffic")
	}
	// Triple assignment shows up on the wire.
	if res.Traffic[core.MsgAssign].Count < int64(2*res.Submitted) {
		t.Fatalf("ASSIGN count %d too low for triple assignment of %d jobs",
			res.Traffic[core.MsgAssign].Count, res.Submitted)
	}
}

func TestSitesScenarioRuns(t *testing.T) {
	c, err := ByName("iMixed-sites10")
	if err != nil {
		t.Fatal(err)
	}
	sc := c.Scaled(0.06)
	res, err := Run(sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Submitted {
		t.Fatalf("completed %d of %d", res.Completed, res.Submitted)
	}
}

func TestSelectionAblationScenariosRun(t *testing.T) {
	for _, name := range []string{"iSelectNewest", "iSelectCostliest"} {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := c.Scaled(0.05)
		res, err := Run(sc, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != res.Submitted {
			t.Fatalf("%s: completed %d of %d", name, res.Completed, res.Submitted)
		}
	}
}

func TestScenarioNamesUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, c := range append(Catalog(), ExtensionScenarios()...) {
		if seen[c.Name] {
			t.Fatalf("duplicate scenario name %q", c.Name)
		}
		seen[c.Name] = true
	}
}
