package transport

import (
	"errors"
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
)

func liveProfile() resource.Profile {
	return resource.Profile{
		Arch: resource.ArchAMD64, OS: resource.OSLinux,
		MemoryGB: 16, DiskGB: 16, PerfIndex: 1.5,
	}
}

// liveConfig shrinks protocol timings to wall-clock test scale.
func liveConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.AcceptTimeout = 150 * time.Millisecond
	cfg.InformInterval = 200 * time.Millisecond
	cfg.RescheduleThreshold = time.Millisecond
	cfg.RetryBackoff = 100 * time.Millisecond
	return cfg
}

func liveJob(rng *rand.Rand, ert time.Duration) job.Profile {
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

// completionWaiter observes completions and lets tests block on them.
type completionWaiter struct {
	core.NopObserver

	mu   sync.Mutex
	done map[job.UUID]chan struct{}
}

func newCompletionWaiter() *completionWaiter {
	return &completionWaiter{done: make(map[job.UUID]chan struct{})}
}

func (w *completionWaiter) channel(uuid job.UUID) chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	ch, ok := w.done[uuid]
	if !ok {
		ch = make(chan struct{})
		w.done[uuid] = ch
	}
	return ch
}

func (w *completionWaiter) JobCompleted(_ time.Duration, _ overlay.NodeID, j *job.Job) {
	close(w.channel(j.UUID))
}

func (w *completionWaiter) wait(t *testing.T, uuid job.UUID, timeout time.Duration) {
	t.Helper()
	select {
	case <-w.channel(uuid):
	case <-time.After(timeout):
		t.Fatalf("job %s did not complete within %v", uuid.Short(), timeout)
	}
}

func TestInprocEndToEnd(t *testing.T) {
	cluster := NewInprocCluster(1, overlay.FixedLatency(time.Millisecond))
	defer cluster.Close()
	waiter := newCompletionWaiter()
	cfg := liveConfig()
	art := job.ARTModel{Mode: job.DriftNone}
	const n = 5
	for i := overlay.NodeID(0); i < n; i++ {
		if _, err := cluster.AddNode(i, liveProfile(), sched.FCFS, cfg, waiter, art); err != nil {
			t.Fatal(err)
		}
	}
	for i := overlay.NodeID(0); i < n; i++ {
		for k := i + 1; k < n; k++ {
			if err := cluster.Connect(i, k); err != nil {
				t.Fatal(err)
			}
		}
	}
	cluster.StartAll()

	rng := rand.New(rand.NewSource(2))
	node, ok := cluster.Node(0)
	if !ok {
		t.Fatal("node 0 missing")
	}
	var uuids []job.UUID
	for i := 0; i < 4; i++ {
		p := liveJob(rng, 50*time.Millisecond)
		uuids = append(uuids, p.UUID)
		if err := node.Submit(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, uuid := range uuids {
		waiter.wait(t, uuid, 10*time.Second)
	}
}

func TestInprocReschedulingLive(t *testing.T) {
	cluster := NewInprocCluster(3, nil)
	defer cluster.Close()
	waiter := newCompletionWaiter()
	cfg := liveConfig()
	art := job.ARTModel{Mode: job.DriftNone}
	// One matching node, one bystander.
	if _, err := cluster.AddNode(0, liveProfile(), sched.FCFS, cfg, waiter, art); err != nil {
		t.Fatal(err)
	}
	bystander := liveProfile()
	bystander.Arch = resource.ArchPOWER
	if _, err := cluster.AddNode(1, bystander, sched.FCFS, cfg, waiter, art); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Connect(0, 1); err != nil {
		t.Fatal(err)
	}
	cluster.StartAll()

	rng := rand.New(rand.NewSource(4))
	node, _ := cluster.Node(0)
	var uuids []job.UUID
	for i := 0; i < 5; i++ {
		p := liveJob(rng, 300*time.Millisecond)
		uuids = append(uuids, p.UUID)
		if err := node.Submit(p); err != nil {
			t.Fatal(err)
		}
	}
	// A second matching node joins while jobs queue; INFORM floods must
	// pull work over to it live.
	time.Sleep(250 * time.Millisecond)
	late, err := cluster.AddNode(2, liveProfile(), sched.FCFS, cfg, waiter, art)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Connect(2, 0); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Connect(2, 1); err != nil {
		t.Fatal(err)
	}
	late.Start()
	for _, uuid := range uuids {
		waiter.wait(t, uuid, 15*time.Second)
	}
}

func TestInprocDuplicateNode(t *testing.T) {
	cluster := NewInprocCluster(1, nil)
	defer cluster.Close()
	if _, err := cluster.AddNode(0, liveProfile(), sched.FCFS, liveConfig(), nil, job.DefaultARTModel()); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.AddNode(0, liveProfile(), sched.FCFS, liveConfig(), nil, job.DefaultARTModel()); err == nil {
		t.Fatal("duplicate AddNode accepted")
	}
	if err := cluster.Connect(0, 99); err == nil {
		t.Fatal("Connect accepted unknown node")
	}
}

func TestTCPConfigValidate(t *testing.T) {
	good := TCPConfig{
		ID: 1, Listen: "127.0.0.1:0",
		Peers:     map[overlay.NodeID]string{2: "127.0.0.1:1"},
		Neighbors: []overlay.NodeID{2},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*TCPConfig)
	}{
		{"no listen", func(c *TCPConfig) { c.Listen = "" }},
		{"no peers", func(c *TCPConfig) { c.Peers = nil }},
		{"no neighbors", func(c *TCPConfig) { c.Neighbors = nil }},
		{"neighbor without address", func(c *TCPConfig) { c.Neighbors = []overlay.NodeID{9} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			bad := good
			tt.mutate(&bad)
			if err := bad.Validate(); err == nil {
				t.Fatal("Validate accepted bad config")
			}
		})
	}
}

func TestTCPEndToEnd(t *testing.T) {
	waiter := newCompletionWaiter()
	cfg := liveConfig()
	art := job.ARTModel{Mode: job.DriftNone}

	// Bind three listeners on ephemeral ports first, then exchange the
	// discovered addresses.
	const n = 3
	nodes := make([]*TCPNode, n)
	addrs := make(map[overlay.NodeID]string, n)
	for i := 0; i < n; i++ {
		tn, err := ListenTCP(TCPConfig{
			ID:     overlay.NodeID(i),
			Listen: "127.0.0.1:0",
			// Temporary self-referential wiring; fixed below.
			Peers:     map[overlay.NodeID]string{overlay.NodeID((i + 1) % n): "127.0.0.1:1"},
			Neighbors: []overlay.NodeID{overlay.NodeID((i + 1) % n)},
			Seed:      int64(i + 1),
		}, liveProfile(), sched.FCFS, cfg, waiter, art)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = tn.Close() }()
		nodes[i] = tn
		addrs[overlay.NodeID(i)] = tn.Addr()
	}
	// Rewire full peer maps and all-to-all neighborhoods now that the
	// real addresses are known.
	for i, tn := range nodes {
		env := tn.env
		env.mu.Lock()
		env.peers = make(map[overlay.NodeID]string, n)
		for id, addr := range addrs {
			env.peers[id] = addr
		}
		var nbs []overlay.NodeID
		for k := 0; k < n; k++ {
			if k != i {
				nbs = append(nbs, overlay.NodeID(k))
			}
		}
		env.neighbors = nbs
		env.mu.Unlock()
		tn.Node().Start()
	}

	rng := rand.New(rand.NewSource(9))
	var uuids []job.UUID
	for i := 0; i < 3; i++ {
		p := liveJob(rng, 40*time.Millisecond)
		uuids = append(uuids, p.UUID)
		if err := nodes[0].Node().Submit(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, uuid := range uuids {
		waiter.wait(t, uuid, 15*time.Second)
	}
}

func TestTCPCloseIdempotent(t *testing.T) {
	tn, err := ListenTCP(TCPConfig{
		ID: 1, Listen: "127.0.0.1:0",
		Peers:     map[overlay.NodeID]string{2: "127.0.0.1:1"},
		Neighbors: []overlay.NodeID{2},
	}, liveProfile(), sched.FCFS, liveConfig(), nil, job.DefaultARTModel())
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tn.Close(); err != nil {
		t.Fatal(err)
	}
	if tn.Node().Alive() {
		t.Fatal("node alive after Close")
	}
}

func TestSimClusterEquivalence(t *testing.T) {
	// The same workload through the sim transport and the inproc
	// transport must complete the same job set on the same node
	// (modulo timing): protocol behaviour is transport-independent.
	rng := rand.New(rand.NewSource(31))
	p := liveJob(rng, 30*time.Millisecond)

	// Sim run.
	engine := simEngineForTest()
	graph := overlay.NewGraph()
	graph.AddNode(0)
	graph.AddNode(1)
	graph.AddLink(0, 1)
	sc := NewSimCluster(engine, graph, overlay.FixedLatency(time.Millisecond))
	simDone := make(map[job.UUID]overlay.NodeID)
	simObs := &funcObserver{onCompleted: func(node overlay.NodeID, j *job.Job) {
		simDone[j.UUID] = node
	}}
	fast, slow := liveProfile(), liveProfile()
	fast.PerfIndex = 1.9
	slow.PerfIndex = 1.0
	if _, err := sc.AddNode(0, slow, sched.FCFS, liveConfig(), simObs, job.ARTModel{Mode: job.DriftNone}); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.AddNode(1, fast, sched.FCFS, liveConfig(), simObs, job.ARTModel{Mode: job.DriftNone}); err != nil {
		t.Fatal(err)
	}
	sc.StartAll()
	n0, _ := sc.Node(0)
	if err := n0.Submit(p); err != nil {
		t.Fatal(err)
	}
	engine.Run(time.Hour)
	if simDone[p.UUID] != 1 {
		t.Fatalf("sim run placed job on %v, want fastest node 1", simDone[p.UUID])
	}

	// Live run with the same topology and profiles.
	live := NewInprocCluster(1, overlay.FixedLatency(time.Millisecond))
	defer live.Close()
	waiter := newCompletionWaiter()
	var liveNode overlay.NodeID = -1
	var mu sync.Mutex
	obs := &funcObserver{onCompleted: func(node overlay.NodeID, j *job.Job) {
		mu.Lock()
		liveNode = node
		mu.Unlock()
		waiter.JobCompleted(0, node, j)
	}}
	if _, err := live.AddNode(0, slow, sched.FCFS, liveConfig(), obs, job.ARTModel{Mode: job.DriftNone}); err != nil {
		t.Fatal(err)
	}
	if _, err := live.AddNode(1, fast, sched.FCFS, liveConfig(), obs, job.ARTModel{Mode: job.DriftNone}); err != nil {
		t.Fatal(err)
	}
	if err := live.Connect(0, 1); err != nil {
		t.Fatal(err)
	}
	live.StartAll()
	p2 := p
	p2.UUID = job.NewUUID(rng)
	ln, _ := live.Node(0)
	if err := ln.Submit(p2); err != nil {
		t.Fatal(err)
	}
	waiter.wait(t, p2.UUID, 10*time.Second)
	mu.Lock()
	defer mu.Unlock()
	if liveNode != 1 {
		t.Fatalf("live run placed job on %v, want fastest node 1", liveNode)
	}
}

// funcObserver adapts lifecycle callbacks to core.Observer.
type funcObserver struct {
	core.NopObserver

	onCompleted func(node overlay.NodeID, j *job.Job)
	onStarted   func()
}

func (f *funcObserver) JobCompleted(_ time.Duration, node overlay.NodeID, j *job.Job) {
	if f.onCompleted != nil {
		f.onCompleted(node, j)
	}
}

func (f *funcObserver) JobStarted(time.Duration, overlay.NodeID, job.UUID) {
	if f.onStarted != nil {
		f.onStarted()
	}
}

func simEngineForTest() *sim.Engine {
	return sim.NewEngine(77)
}

func TestSimClusterAccessors(t *testing.T) {
	engine := sim.NewEngine(1)
	graph := overlay.NewGraph()
	graph.AddNode(0)
	c := NewSimCluster(engine, graph, overlay.FixedLatency(time.Millisecond))
	if c.Engine() != engine || c.Graph() != graph {
		t.Fatal("accessors returned wrong objects")
	}
	if c.IdleCount() != 0 {
		t.Fatal("empty cluster idle count wrong")
	}
	if _, err := c.AddNode(0, liveProfile(), sched.FCFS, liveConfig(), nil, job.DefaultARTModel()); err != nil {
		t.Fatal(err)
	}
	if c.IdleCount() != 1 {
		t.Fatal("one idle node expected")
	}
	hits := 0
	c.SetTraffic(func(_ time.Duration, _, _ overlay.NodeID, _ *core.Message) { hits++ })
	n, _ := c.Node(0)
	rng := rand.New(rand.NewSource(1))
	if err := n.Submit(liveJob(rng, time.Hour)); err != nil {
		t.Fatal(err)
	}
	engine.Run(time.Minute)
	_ = hits // node has no neighbors: zero sends is fine, hook must not crash
}

func TestTCPSendToUnknownPeerDropped(t *testing.T) {
	// A node whose peer map lacks an address must drop sends silently
	// (the protocol's retries cover it).
	waiter := newCompletionWaiter()
	tn, err := ListenTCP(TCPConfig{
		ID: 1, Listen: "127.0.0.1:0",
		Peers:     map[overlay.NodeID]string{2: "127.0.0.1:1"}, // port 1: dial fails
		Neighbors: []overlay.NodeID{2},
		Seed:      1,
	}, liveProfile(), sched.FCFS, liveConfig(), waiter, job.ARTModel{Mode: job.DriftNone})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tn.Close() }()
	tn.Node().Start()
	rng := rand.New(rand.NewSource(5))
	// The node itself matches, so the job self-assigns and completes even
	// though every outbound send fails.
	p := liveJob(rng, 20*time.Millisecond)
	if err := tn.Node().Submit(p); err != nil {
		t.Fatal(err)
	}
	waiter.wait(t, p.UUID, 10*time.Second)
}

// TestWriteMessageReportsWriterError: a frame the writer refuses is an
// error, not a silent drop.
func TestWriteMessageReportsWriterError(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := core.Message{Type: core.MsgAssign, From: 1, Job: liveJob(rng, time.Hour)}
	if err := WriteMessage(failWriter{}, m); err == nil || errors.Is(err, ErrMessageInvalid) {
		t.Fatalf("WriteMessage to a failing writer = %v, want the writer's error", err)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("sink closed") }
