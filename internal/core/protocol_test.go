package core_test

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/resource"
	"github.com/smartgrid/aria/internal/sched"
	"github.com/smartgrid/aria/internal/sim"
	"github.com/smartgrid/aria/internal/transport"
)

// recorder captures job lifecycle events for assertions.
type recorder struct {
	core.NopObserver

	mu          sync.Mutex
	submitted   map[job.UUID]time.Duration
	assigned    map[job.UUID][]overlay.NodeID
	reschedules int
	started     map[job.UUID]overlay.NodeID
	completed   map[job.UUID]*job.Job
	completedOn map[job.UUID]overlay.NodeID
	failed      map[job.UUID]string
}

var _ core.Observer = (*recorder)(nil)

func newRecorder() *recorder {
	return &recorder{
		submitted:   make(map[job.UUID]time.Duration),
		assigned:    make(map[job.UUID][]overlay.NodeID),
		started:     make(map[job.UUID]overlay.NodeID),
		completed:   make(map[job.UUID]*job.Job),
		completedOn: make(map[job.UUID]overlay.NodeID),
		failed:      make(map[job.UUID]string),
	}
}

func (r *recorder) JobSubmitted(at time.Duration, _ overlay.NodeID, p job.Profile) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.submitted[p.UUID] = at
}

func (r *recorder) JobAssigned(_ time.Duration, uuid job.UUID, _, to overlay.NodeID, _ sched.Cost, resched bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.assigned[uuid] = append(r.assigned[uuid], to)
	if resched {
		r.reschedules++
	}
}

func (r *recorder) JobStarted(_ time.Duration, node overlay.NodeID, uuid job.UUID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.started[uuid] = node
}

func (r *recorder) JobCompleted(_ time.Duration, node overlay.NodeID, j *job.Job) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.completed[j.UUID] = j
	r.completedOn[j.UUID] = node
}

func (r *recorder) JobFailed(_ time.Duration, _ overlay.NodeID, uuid job.UUID, reason string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed[uuid] = reason
}

// fixture assembles a fully connected cluster of nodes with chosen profiles.
type fixture struct {
	engine  *sim.Engine
	cluster *transport.SimCluster
	rec     *recorder
	rng     *rand.Rand
}

type nodeSpec struct {
	profile resource.Profile
	policy  sched.Policy
}

func amd64Node(perf float64) resource.Profile {
	return resource.Profile{
		Arch: resource.ArchAMD64, OS: resource.OSLinux,
		MemoryGB: 16, DiskGB: 16, PerfIndex: perf,
	}
}

func powerNode(perf float64) resource.Profile {
	return resource.Profile{
		Arch: resource.ArchPOWER, OS: resource.OSLinux,
		MemoryGB: 16, DiskGB: 16, PerfIndex: perf,
	}
}

func amd64Job(rng *rand.Rand, ert time.Duration) job.Profile {
	return job.Profile{
		UUID: job.NewUUID(rng),
		Req: resource.Requirements{
			Arch: resource.ArchAMD64, OS: resource.OSLinux,
			MinMemoryGB: 1, MinDiskGB: 1,
		},
		ERT:   ert,
		Class: job.ClassBatch,
	}
}

func newFixture(t *testing.T, cfg core.Config, specs []nodeSpec) *fixture {
	t.Helper()
	engine := sim.NewEngine(7)
	graph := overlay.NewGraph()
	for i := range specs {
		graph.AddNode(overlay.NodeID(i))
	}
	// Fully connected: floods reach everyone within one hop.
	for i := 0; i < len(specs); i++ {
		for k := i + 1; k < len(specs); k++ {
			graph.AddLink(overlay.NodeID(i), overlay.NodeID(k))
		}
	}
	cluster := transport.NewSimCluster(engine, graph, overlay.FixedLatency(10*time.Millisecond))
	rec := newRecorder()
	for i, spec := range specs {
		art := job.ARTModel{Mode: job.DriftNone}
		if _, err := cluster.AddNode(overlay.NodeID(i), spec.profile, spec.policy, cfg, rec, art); err != nil {
			t.Fatalf("AddNode(%d): %v", i, err)
		}
	}
	cluster.StartAll()
	return &fixture{engine: engine, cluster: cluster, rec: rec, rng: rand.New(rand.NewSource(42))}
}

func (f *fixture) node(t *testing.T, id overlay.NodeID) *core.Node {
	t.Helper()
	n, ok := f.cluster.Node(id)
	if !ok {
		t.Fatalf("node %v missing", id)
	}
	return n
}

func noRescheduling(cfg core.Config) core.Config {
	cfg.InformJobs = 0
	return cfg
}

func TestSubmitAssignsAndCompletes(t *testing.T) {
	cfg := noRescheduling(core.DefaultConfig())
	f := newFixture(t, cfg, []nodeSpec{
		{amd64Node(1.0), sched.FCFS},
		{amd64Node(1.5), sched.FCFS},
		{amd64Node(1.2), sched.FCFS},
	})
	p := amd64Job(f.rng, 2*time.Hour)
	if err := f.node(t, 0).Submit(p); err != nil {
		t.Fatal(err)
	}
	f.engine.Run(6 * time.Hour)
	j, ok := f.rec.completed[p.UUID]
	if !ok {
		t.Fatalf("job never completed; failed=%v", f.rec.failed)
	}
	if j.State != job.StateCompleted {
		t.Fatalf("state = %v", j.State)
	}
	// Fastest node (perf 1.5, id 1) has the lowest ETTC on empty queues.
	if got := f.rec.completedOn[p.UUID]; got != 1 {
		t.Fatalf("job ran on %v, want fastest node 1", got)
	}
	// Execution took ERT/1.5 = 80 minutes exactly (DriftNone).
	if j.ExecutionTime() != 80*time.Minute {
		t.Fatalf("execution time %v, want 80m", j.ExecutionTime())
	}
}

func TestSubmitRejectsInvalidProfile(t *testing.T) {
	cfg := noRescheduling(core.DefaultConfig())
	f := newFixture(t, cfg, []nodeSpec{{amd64Node(1.0), sched.FCFS}})
	if err := f.node(t, 0).Submit(job.Profile{}); err == nil {
		t.Fatal("Submit accepted invalid profile")
	}
}

func TestSubmitDuplicatePending(t *testing.T) {
	cfg := noRescheduling(core.DefaultConfig())
	f := newFixture(t, cfg, []nodeSpec{{amd64Node(1.0), sched.FCFS}, {amd64Node(1.0), sched.FCFS}})
	p := amd64Job(f.rng, time.Hour)
	if err := f.node(t, 0).Submit(p); err != nil {
		t.Fatal(err)
	}
	if err := f.node(t, 0).Submit(p); err == nil {
		t.Fatal("duplicate pending submission accepted")
	}
}

func TestOnlyMatchingNodesHost(t *testing.T) {
	cfg := noRescheduling(core.DefaultConfig())
	f := newFixture(t, cfg, []nodeSpec{
		{powerNode(1.9), sched.FCFS}, // fast but wrong arch
		{powerNode(1.9), sched.FCFS},
		{amd64Node(1.0), sched.FCFS}, // slow but the only match
	})
	p := amd64Job(f.rng, time.Hour)
	if err := f.node(t, 0).Submit(p); err != nil {
		t.Fatal(err)
	}
	f.engine.Run(6 * time.Hour)
	if got := f.rec.completedOn[p.UUID]; got != 2 {
		t.Fatalf("job ran on %v, want the only matching node 2", got)
	}
}

func TestNoCandidateRetriesThenFails(t *testing.T) {
	cfg := noRescheduling(core.DefaultConfig())
	cfg.MaxRequestRetries = 2
	cfg.RetryBackoff = time.Minute
	f := newFixture(t, cfg, []nodeSpec{
		{powerNode(1.0), sched.FCFS},
		{powerNode(1.0), sched.FCFS},
	})
	p := amd64Job(f.rng, time.Hour) // nobody matches
	if err := f.node(t, 0).Submit(p); err != nil {
		t.Fatal(err)
	}
	f.engine.Run(time.Hour)
	if _, ok := f.rec.completed[p.UUID]; ok {
		t.Fatal("unmatchable job completed")
	}
	if reason, ok := f.rec.failed[p.UUID]; !ok || reason != "no candidate found" {
		t.Fatalf("failed=%v, want no-candidate failure", f.rec.failed)
	}
}

func TestLoadSpreadsAcrossNodes(t *testing.T) {
	// Ten identical jobs over three identical nodes: ETTC assignment must
	// spread them (queue growth raises a node's offers).
	cfg := noRescheduling(core.DefaultConfig())
	f := newFixture(t, cfg, []nodeSpec{
		{amd64Node(1.0), sched.FCFS},
		{amd64Node(1.0), sched.FCFS},
		{amd64Node(1.0), sched.FCFS},
	})
	hosts := make(map[overlay.NodeID]int)
	for i := 0; i < 9; i++ {
		p := amd64Job(f.rng, time.Hour)
		if err := f.node(t, 0).Submit(p); err != nil {
			t.Fatal(err)
		}
		// Space submissions so each decision sees updated queues.
		f.engine.Run(f.engine.Now() + 10*time.Second)
	}
	f.engine.Run(24 * time.Hour)
	if len(f.rec.completed) != 9 {
		t.Fatalf("completed %d jobs, want 9", len(f.rec.completed))
	}
	for _, node := range f.rec.completedOn {
		hosts[node]++
	}
	for id, count := range hosts {
		if count != 3 {
			t.Fatalf("node %v hosted %d jobs, want 3 each (hosts=%v)", id, count, hosts)
		}
	}
}

func TestReschedulingMovesJobToNewNode(t *testing.T) {
	// One overloaded node; a fresh node joins later and INFORM floods
	// must migrate queued jobs to it.
	cfg := core.DefaultConfig()
	cfg.InformInterval = time.Minute
	cfg.RescheduleThreshold = time.Minute
	f := newFixture(t, cfg, []nodeSpec{
		{amd64Node(1.0), sched.FCFS},
		{powerNode(1.0), sched.FCFS}, // non-matching bystander keeps floods alive
	})
	// Five 2h jobs, all forced onto node 0 (only match).
	uuids := make([]job.UUID, 5)
	for i := range uuids {
		p := amd64Job(f.rng, 2*time.Hour)
		uuids[i] = p.UUID
		if err := f.node(t, 0).Submit(p); err != nil {
			t.Fatal(err)
		}
	}
	f.engine.Run(time.Minute)
	// A new matching node joins the overlay at t=1m.
	g := f.cluster.Graph()
	newID := overlay.NodeID(2)
	g.AddNode(newID)
	g.AddLink(newID, 0)
	g.AddLink(newID, 1)
	n, err := f.cluster.AddNode(newID, amd64Node(1.0), sched.FCFS, cfg, f.rec, job.ARTModel{Mode: job.DriftNone})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	f.engine.Run(24 * time.Hour)
	if f.rec.reschedules == 0 {
		t.Fatal("no rescheduling happened despite a new idle node")
	}
	completedOnNew := 0
	for _, uuid := range uuids {
		if _, ok := f.rec.completed[uuid]; !ok {
			t.Fatalf("job %s never completed", uuid.Short())
		}
		if f.rec.completedOn[uuid] == newID {
			completedOnNew++
		}
	}
	if completedOnNew == 0 {
		t.Fatal("new node executed nothing after rescheduling")
	}
}

func TestHighThresholdBlocksRescheduling(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.InformInterval = time.Minute
	cfg.RescheduleThreshold = 100 * time.Hour // nothing can beat this
	f := newFixture(t, cfg, []nodeSpec{
		{amd64Node(1.0), sched.FCFS},
		{powerNode(1.0), sched.FCFS},
	})
	for i := 0; i < 5; i++ {
		if err := f.node(t, 0).Submit(amd64Job(f.rng, 2*time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	f.engine.Run(time.Minute)
	g := f.cluster.Graph()
	g.AddNode(2)
	g.AddLink(2, 0)
	g.AddLink(2, 1)
	n, err := f.cluster.AddNode(2, amd64Node(1.9), sched.FCFS, cfg, f.rec, job.ARTModel{Mode: job.DriftNone})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	f.engine.Run(24 * time.Hour)
	if f.rec.reschedules != 0 {
		t.Fatalf("reschedules = %d, want 0 under an unbeatable threshold", f.rec.reschedules)
	}
}

func TestDeadlineSchedulingEndToEnd(t *testing.T) {
	cfg := noRescheduling(core.DefaultConfig())
	f := newFixture(t, cfg, []nodeSpec{
		{amd64Node(1.0), sched.EDF},
		{amd64Node(1.0), sched.EDF},
	})
	mk := func(ert, deadline time.Duration) job.Profile {
		p := amd64Job(f.rng, ert)
		p.Class = job.ClassDeadline
		p.Deadline = deadline
		return p
	}
	tight := mk(time.Hour, 2*time.Hour+5*time.Minute)
	loose := mk(time.Hour, 20*time.Hour)
	if err := f.node(t, 0).Submit(loose); err != nil {
		t.Fatal(err)
	}
	if err := f.node(t, 0).Submit(tight); err != nil {
		t.Fatal(err)
	}
	f.engine.Run(24 * time.Hour)
	for _, p := range []job.Profile{tight, loose} {
		j, ok := f.rec.completed[p.UUID]
		if !ok {
			t.Fatalf("deadline job %s never completed", p.UUID.Short())
		}
		if j.MissedDeadline() {
			t.Fatalf("job %s missed its deadline (completed %v, deadline %v)",
				p.UUID.Short(), j.CompletedAt, j.Deadline)
		}
	}
}

func TestBatchJobNeverLandsOnDeadlineNode(t *testing.T) {
	cfg := noRescheduling(core.DefaultConfig())
	cfg.MaxRequestRetries = 1
	cfg.RetryBackoff = time.Second
	f := newFixture(t, cfg, []nodeSpec{
		{amd64Node(1.9), sched.EDF}, // matching resources, wrong class
		{amd64Node(1.0), sched.FCFS},
	})
	p := amd64Job(f.rng, time.Hour)
	if err := f.node(t, 0).Submit(p); err != nil {
		t.Fatal(err)
	}
	f.engine.Run(6 * time.Hour)
	if got := f.rec.completedOn[p.UUID]; got != 1 {
		t.Fatalf("batch job ran on %v, want batch node 1", got)
	}
}

func TestKillStopsExecution(t *testing.T) {
	cfg := noRescheduling(core.DefaultConfig())
	f := newFixture(t, cfg, []nodeSpec{
		{amd64Node(1.0), sched.FCFS},
		{powerNode(1.0), sched.FCFS},
	})
	p := amd64Job(f.rng, 2*time.Hour)
	if err := f.node(t, 0).Submit(p); err != nil {
		t.Fatal(err)
	}
	f.engine.Run(30 * time.Minute) // job is running on node 0
	n := f.node(t, 0)
	if !n.Busy() {
		t.Fatal("node 0 should be executing")
	}
	n.Kill()
	if n.Alive() {
		t.Fatal("killed node reports alive")
	}
	f.engine.Run(24 * time.Hour)
	if _, ok := f.rec.completed[p.UUID]; ok {
		t.Fatal("job completed on a killed node")
	}
}

func TestFailsafeResubmitsAfterAssigneeCrash(t *testing.T) {
	cfg := noRescheduling(core.DefaultConfig())
	cfg.NotifyInitiator = true
	cfg.WatchdogGrace = 2
	f := newFixture(t, cfg, []nodeSpec{
		{powerNode(1.0), sched.FCFS}, // initiator, never matches
		{amd64Node(1.5), sched.FCFS}, // first assignee (fastest)
		{amd64Node(1.0), sched.FCFS}, // backup
	})
	p := amd64Job(f.rng, time.Hour)
	if err := f.node(t, 0).Submit(p); err != nil {
		t.Fatal(err)
	}
	f.engine.Run(10 * time.Minute)
	if got := f.rec.started[p.UUID]; got != 1 {
		t.Fatalf("job started on %v, want fastest node 1", got)
	}
	f.node(t, 1).Kill()
	f.engine.Run(48 * time.Hour)
	j, ok := f.rec.completed[p.UUID]
	if !ok {
		t.Fatalf("failsafe never recovered the job; failed=%v", f.rec.failed)
	}
	if got := f.rec.completedOn[p.UUID]; got != 2 {
		t.Fatalf("recovered job ran on %v, want backup node 2", got)
	}
	if j.State != job.StateCompleted {
		t.Fatalf("state = %v", j.State)
	}
}

func TestIdleBusyAccounting(t *testing.T) {
	cfg := noRescheduling(core.DefaultConfig())
	f := newFixture(t, cfg, []nodeSpec{
		{amd64Node(1.0), sched.FCFS},
		{powerNode(1.0), sched.FCFS},
	})
	if f.cluster.IdleCount() != 2 {
		t.Fatalf("IdleCount = %d at start, want 2", f.cluster.IdleCount())
	}
	if err := f.node(t, 0).Submit(amd64Job(f.rng, time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := f.node(t, 0).Submit(amd64Job(f.rng, time.Hour)); err != nil {
		t.Fatal(err)
	}
	f.engine.Run(10 * time.Minute)
	n := f.node(t, 0)
	if n.Idle() {
		t.Fatal("node 0 idle while executing")
	}
	if !n.Busy() {
		t.Fatal("node 0 not busy with two jobs assigned")
	}
	if n.QueueLen() != 1 {
		t.Fatalf("QueueLen = %d, want 1 (one running, one queued)", n.QueueLen())
	}
	f.engine.Run(24 * time.Hour)
	if !n.Idle() {
		t.Fatal("node 0 not idle after completing everything")
	}
}

func TestFloodTerminatesAndIsBounded(t *testing.T) {
	// On a ring, a REQUEST flood must stop within TTL hops and duplicate
	// suppression must bound total transmissions.
	cfg := noRescheduling(core.DefaultConfig())
	cfg.RequestTTL = 4
	cfg.RequestFanout = 2
	cfg.MaxRequestRetries = 0
	engine := sim.NewEngine(11)
	graph := overlay.NewGraph()
	const n = 30
	for i := 0; i < n; i++ {
		graph.AddNode(overlay.NodeID(i))
	}
	for i := 0; i < n; i++ {
		graph.AddLink(overlay.NodeID(i), overlay.NodeID((i+1)%n))
	}
	cluster := transport.NewSimCluster(engine, graph, overlay.FixedLatency(time.Millisecond))
	rec := newRecorder()
	requests := 0
	cluster.SetTraffic(func(_ time.Duration, _, _ overlay.NodeID, m *core.Message) {
		if m.Type == core.MsgRequest {
			requests++
		}
	})
	for i := 0; i < n; i++ {
		// Nobody matches: the flood crosses the whole TTL range.
		if _, err := cluster.AddNode(overlay.NodeID(i), powerNode(1.0), sched.FCFS, cfg, rec, job.ARTModel{Mode: job.DriftNone}); err != nil {
			t.Fatal(err)
		}
	}
	cluster.StartAll()
	rng := rand.New(rand.NewSource(1))
	node, _ := cluster.Node(0)
	if err := node.Submit(amd64Job(rng, time.Hour)); err != nil {
		t.Fatal(err)
	}
	engine.Run(time.Hour)
	if requests == 0 {
		t.Fatal("no REQUEST traffic observed")
	}
	// Hard bound: every node forwards one wave at most once, with at most
	// fanout transmissions.
	if max := n * cfg.RequestFanout; requests > max {
		t.Fatalf("requests = %d, exceeds dedup bound %d", requests, max)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (time.Duration, int) {
		cfg := core.DefaultConfig()
		cfg.InformInterval = time.Minute
		engine := sim.NewEngine(5)
		graph := overlay.NewGraph()
		const n = 12
		for i := 0; i < n; i++ {
			graph.AddNode(overlay.NodeID(i))
		}
		for i := 0; i < n; i++ {
			for k := i + 1; k < n; k++ {
				graph.AddLink(overlay.NodeID(i), overlay.NodeID(k))
			}
		}
		cluster := transport.NewSimCluster(engine, graph, overlay.DefaultLatency(3))
		rec := newRecorder()
		profRng := rand.New(rand.NewSource(21))
		sampler := resource.NewSampler(profRng)
		for i := 0; i < n; i++ {
			policy := sched.FCFS
			if i%2 == 0 {
				policy = sched.SJF
			}
			if _, err := cluster.AddNode(overlay.NodeID(i), sampler.Profile(), policy, cfg, rec, job.DefaultARTModel()); err != nil {
				return -1, -1
			}
		}
		cluster.StartAll()
		jobRng := rand.New(rand.NewSource(22))
		for i := 0; i < 20; i++ {
			node, _ := cluster.Node(overlay.NodeID(i % n))
			p := amd64Job(jobRng, time.Duration(jobRng.Intn(120)+60)*time.Minute)
			engine.Schedule(time.Duration(i)*10*time.Second, func() { _ = node.Submit(p) })
		}
		engine.Run(48 * time.Hour)
		var last time.Duration
		for _, j := range rec.completed {
			if j.CompletedAt > last {
				last = j.CompletedAt
			}
		}
		return last, len(rec.completed)
	}
	last1, n1 := run()
	last2, n2 := run()
	if last1 != last2 || n1 != n2 {
		t.Fatalf("runs diverged: (%v, %d) vs (%v, %d)", last1, n1, last2, n2)
	}
	if n1 == 0 {
		t.Fatal("no jobs completed in determinism run")
	}
}

func TestNewNodeValidation(t *testing.T) {
	engine := sim.NewEngine(1)
	graph := overlay.NewGraph()
	graph.AddNode(0)
	cluster := transport.NewSimCluster(engine, graph, overlay.FixedLatency(time.Millisecond))
	okProfile := amd64Node(1.0)
	cfg := core.DefaultConfig()
	art := job.DefaultARTModel()

	if _, err := cluster.AddNode(0, resource.Profile{}, sched.FCFS, cfg, nil, art); err == nil {
		t.Fatal("accepted invalid profile")
	}
	if _, err := cluster.AddNode(0, okProfile, sched.Policy(0), cfg, nil, art); err == nil {
		t.Fatal("accepted invalid policy")
	}
	bad := cfg
	bad.RequestTTL = 0
	if _, err := cluster.AddNode(0, okProfile, sched.FCFS, bad, nil, art); err == nil {
		t.Fatal("accepted invalid config")
	}
	if _, err := cluster.AddNode(0, okProfile, sched.FCFS, cfg, nil, job.ARTModel{}); err == nil {
		t.Fatal("accepted invalid art model")
	}
	if _, err := cluster.AddNode(1, okProfile, sched.FCFS, cfg, nil, art); err == nil {
		t.Fatal("accepted node missing from graph")
	}
	if _, err := cluster.AddNode(0, okProfile, sched.FCFS, cfg, nil, art); err != nil {
		t.Fatalf("valid node rejected: %v", err)
	}
	if _, err := cluster.AddNode(0, okProfile, sched.FCFS, cfg, nil, art); err == nil {
		t.Fatal("accepted duplicate registration")
	}
}

func TestSubmitOnDeadNode(t *testing.T) {
	cfg := noRescheduling(core.DefaultConfig())
	f := newFixture(t, cfg, []nodeSpec{{amd64Node(1.0), sched.FCFS}, {amd64Node(1.0), sched.FCFS}})
	n := f.node(t, 0)
	n.Kill()
	if err := n.Submit(amd64Job(f.rng, time.Hour)); err == nil {
		t.Fatal("dead node accepted a submission")
	}
}

func TestSelfAssignmentWhenInitiatorIsBest(t *testing.T) {
	cfg := noRescheduling(core.DefaultConfig())
	f := newFixture(t, cfg, []nodeSpec{
		{amd64Node(1.9), sched.FCFS}, // initiator is the fastest match
		{amd64Node(1.0), sched.FCFS},
	})
	p := amd64Job(f.rng, time.Hour)
	if err := f.node(t, 0).Submit(p); err != nil {
		t.Fatal(err)
	}
	f.engine.Run(6 * time.Hour)
	if got := f.rec.completedOn[p.UUID]; got != 0 {
		t.Fatalf("job ran on %v, want initiator 0", got)
	}
}
