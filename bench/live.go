package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/ctl"
	"github.com/smartgrid/aria/internal/eventlog"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/resource"
	"github.com/smartgrid/aria/internal/sched"
	"github.com/smartgrid/aria/internal/trace"
	"github.com/smartgrid/aria/internal/transport"
	"github.com/smartgrid/aria/internal/wal"
)

// liveShape fixes the size of a live-grid workload: TCP nodes on loopback in
// this process, one submitter goroutine, completions collected by the
// harness observer.
type liveShape struct {
	nodes int
	chord int // overlay: ring (±1) plus chords (±chord), degree 4

	// commit arms every hardening plane the way ariasoak arms ariad and
	// submits through the control plane; off, discovery is the bare flood.
	commit bool

	// providerEvery makes every k-th node big enough for the jobs (all
	// nodes when 1), so a flood has to travel past the nodes that are not.
	providerEvery int

	rate     float64       // phase A, open loop: jobs per second
	inflight int           // phase B, closed loop: jobs in flight
	warmJobs int           // set-up: jobs per node, so every connection is dialled before timing
	warmup   time.Duration // set-up: gossip warm-up, so every view is filled before timing
	drain    time.Duration // after each phase: how long a job may still complete before it counts as failed
}

var (
	liveFlood  = liveShape{nodes: 32, chord: 8, providerEvery: 2, rate: 800, inflight: 96, warmJobs: 2, drain: 2 * time.Second}
	liveCommit = liveShape{nodes: 16, chord: 4, commit: true, providerEvery: 1, rate: 3000, inflight: 8, warmJobs: 2, warmup: time.Second, drain: 2 * time.Second}
)

const (
	jobERT       = 200 * time.Microsecond
	jobMemoryGB  = 12
	setupRepeats = 3

	// floodAcceptTimeout is how long a live-flood initiator collects
	// offers: the configured floor under every latency of that workload.
	// A closed loop that saturates the CPUs sits on a cliff: the backlog
	// delays offers by about as long as the window is, one slow spell of
	// the host and rounds close empty, retry, and add the load that keeps
	// them closing empty (1 900 jobs/s at 1.04 ms of CPU each instead of
	// 2 900 at 0.68; a quarter of the runs on a busy host). 96 jobs in
	// flight ask for 1 860 jobs/s, two thirds of what the reference host
	// can do and below what it can do in its slow spells, so phase B
	// measures the cost of a job at a steady rate and not the cliff.
	floodAcceptTimeout = 50 * time.Millisecond

	// commitAcceptTimeout serves live-commit, where floods are only the
	// fallback: it mostly sets the failsafe watchdog's patience (three
	// deferrals of about this long before a silent job is resubmitted). At
	// 20 ms a 100 ms hiccup of the host made watchdogs run jobs twice.
	commitAcceptTimeout = 250 * time.Millisecond

	// snapshotEvery compacts each journal 16 times less often than ariad's
	// default of 256 records. Every snapshot fsyncs, and at 256 the fsync
	// latency of the disk under the checkout, not the journal code, set
	// live-commit's p99 (3.6 to 10.5 ms run to run, against 2.6 to 2.8).
	snapshotEvery = 4096
)

// shrink returns the shape at a fraction of its load, for the smoke tests.
func (s liveShape) shrink(f float64) liveShape {
	if f >= 1 {
		return s
	}
	s.nodes = max(8, s.nodes/2)
	s.chord = s.nodes / 4
	s.rate = max(50, s.rate*f)
	s.inflight = max(2, int(float64(s.inflight)*f))
	s.warmup /= 4
	return s
}

func (s liveShape) protocol() core.Config {
	cfg := core.DefaultConfig()
	// A round that closes without an offer (cold connections during the
	// warm-up jobs) retries on the grid's time scale, not the paper's 30 s.
	cfg.RetryBackoff = 50 * time.Millisecond
	if !s.commit {
		cfg.AcceptTimeout = floodAcceptTimeout
		cfg.InformJobs = 0
		return cfg
	}
	cfg.AcceptTimeout = commitAcceptTimeout
	cfg.AssignAck = true
	cfg.NotifyInitiator = true
	cfg.ProbeInterval = 200 * time.Millisecond
	cfg.ProbeTimeout = 150 * time.Millisecond
	cfg.SuspectTimeout = 2 * time.Second
	cfg.DirectoryCapacity = core.DefaultDirectoryCapacity
	cfg.DirectoryTTL = core.DefaultDirectoryTTL
	cfg.DirectoryGossip = core.DefaultDirectoryGossip
	cfg.SharedStateBound = 64
	cfg.SharedStateRetries = core.DefaultSharedStateRetries
	cfg.CommitTimeout = core.DefaultCommitTimeout
	cfg.CommitBackoff = core.DefaultCommitBackoff
	return cfg
}

// Phases a tracked job can belong to.
const (
	phaseWarm = iota + 1
	phaseA
	phaseB
)

// jobRec is what the harness knows about one submitted job. Times are
// offsets from the tracker's epoch on the harness's own clock.
type jobRec struct {
	phase                                int
	due, submitted, assigned, started    time.Duration
	completed                            time.Duration
	completions, failures, registrations int
}

// latency runs from when the job was due to be sent, not from when the
// generator got round to sending it, so a stall counts against every job
// queued behind it.
func (r *jobRec) latency() time.Duration { return r.completed - r.due }

const trackerShards = 32

// tracker is the harness observer: it sees every node's job lifecycle
// events and joins them, by UUID, with what the generator submitted.
type tracker struct {
	core.NopObserver

	epoch    time.Time
	detailed atomic.Bool // traced run: also keep the per-phase timestamps

	shards [trackerShards]struct {
		mu sync.Mutex
		m  map[job.UUID]*jobRec
	}

	registered, finished atomic.Int64
	tokens               chan struct{} // closed-loop credits, one per completed phase-B job

	commits, granted, fallbacks atomic.Int64
	walErr                      atomic.Pointer[error]
}

var (
	_ core.Observer            = (*tracker)(nil)
	_ core.SharedStateObserver = (*tracker)(nil)
)

func newTracker(inflight int) *tracker {
	t := &tracker{epoch: time.Now(), tokens: make(chan struct{}, inflight)}
	for i := range t.shards {
		t.shards[i].m = make(map[job.UUID]*jobRec)
	}
	return t
}

func (t *tracker) now() time.Duration { return time.Since(t.epoch) }

// with runs fn on the job's record under its shard lock, creating the
// record on first sight: a completion may be observed before the submitter
// has registered the UUID the control plane chose.
func (t *tracker) with(uuid job.UUID, fn func(*jobRec)) {
	sh := &t.shards[(int(uuid[len(uuid)-2])*31+int(uuid[len(uuid)-1]))%trackerShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec := sh.m[uuid]
	if rec == nil {
		rec = &jobRec{}
		sh.m[uuid] = rec
	}
	fn(rec)
}

// register records a submission the generator made.
func (t *tracker) register(uuid job.UUID, phase int, due time.Duration) {
	t.registered.Add(1)
	var done bool
	t.with(uuid, func(r *jobRec) {
		r.phase, r.due = phase, due
		r.registrations++
		done = r.completions+r.failures > 0
	})
	if done && phase == phaseB {
		t.credit()
	}
}

func (t *tracker) credit() {
	select {
	case t.tokens <- struct{}{}:
	default:
	}
}

func (t *tracker) JobSubmitted(_ time.Duration, _ overlay.NodeID, p job.Profile) {
	if t.detailed.Load() {
		now := t.now()
		t.with(p.UUID, func(r *jobRec) { r.submitted = now })
	}
}

func (t *tracker) JobAssigned(_ time.Duration, uuid job.UUID, _, _ overlay.NodeID, _ sched.Cost, rescheduled bool) {
	if t.detailed.Load() && !rescheduled {
		now := t.now()
		t.with(uuid, func(r *jobRec) {
			if r.assigned == 0 {
				r.assigned = now
			}
		})
	}
}

func (t *tracker) JobStarted(_ time.Duration, _ overlay.NodeID, uuid job.UUID) {
	if t.detailed.Load() {
		now := t.now()
		t.with(uuid, func(r *jobRec) {
			if r.started == 0 {
				r.started = now
			}
		})
	}
}

func (t *tracker) JobCompleted(_ time.Duration, _ overlay.NodeID, j *job.Job) {
	t.settle(j.UUID, true)
}

func (t *tracker) JobFailed(_ time.Duration, _ overlay.NodeID, uuid job.UUID, _ string) {
	t.settle(uuid, false)
}

func (t *tracker) settle(uuid job.UUID, completed bool) {
	now := t.now()
	var first bool
	var phase int
	t.with(uuid, func(r *jobRec) {
		first = r.completions+r.failures == 0
		if completed {
			if r.completions == 0 {
				r.completed = now
			}
			r.completions++
		} else {
			r.failures++
		}
		phase = r.phase
	})
	if first {
		t.finished.Add(1)
		if phase == phaseB {
			t.credit()
		}
	}
}

func (t *tracker) CommitSent(time.Duration, overlay.NodeID, job.UUID, overlay.NodeID, int) {
	t.commits.Add(1)
}

func (t *tracker) CommitConflict(time.Duration, overlay.NodeID, job.UUID, overlay.NodeID, string, int) {
}

func (t *tracker) CommitGranted(time.Duration, overlay.NodeID, job.UUID, overlay.NodeID, int) {
	t.granted.Add(1)
}

func (t *tracker) CommitFallback(time.Duration, overlay.NodeID, job.UUID, int) {
	t.fallbacks.Add(1)
}

// waitSettled blocks until every registered job has completed or failed, or
// the grace period ends.
func (t *tracker) waitSettled(grace time.Duration) {
	deadline := time.Now().Add(grace)
	for t.finished.Load() < t.registered.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// each visits every record; call it only once the grid is quiet.
func (t *tracker) each(fn func(uuid job.UUID, r *jobRec)) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for uuid, r := range sh.m {
			fn(uuid, r)
		}
		sh.mu.Unlock()
	}
}

// countingStore counts the bytes a journal appends: the file itself is
// truncated at every snapshot, so its size is not the volume written.
type countingStore struct {
	wal.Store
	appended *atomic.Int64
}

func (c countingStore) AppendJournal(frame []byte) error {
	c.appended.Add(int64(len(frame)))
	return c.Store.AppendJournal(frame)
}

// grid is one running live deployment.
type grid struct {
	shape   liveShape
	tracker *tracker
	nodes   []*transport.TCPNode
	ctls    []*ctl.Server
	rng     *rand.Rand

	walBytes atomic.Int64
	cleanup  []func() error // run in reverse after the nodes are closed
}

// reservePorts asks the kernel for n free loopback ports. ListenTCP needs
// every peer's address before any node listens, so the ports are released
// again and re-bound a moment later.
func reservePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			_ = ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// startGrid listens, wires and starts every node, then warms the grid up:
// the gossip warm-up fills every node's view and the warm-up jobs dial every
// connection the phases will use. All of it is set-up time.
func startGrid(s liveShape, seed int64, dir string) (g *grid, err error) {
	g = &grid{shape: s, tracker: newTracker(s.inflight), rng: rand.New(rand.NewSource(seed))}
	defer func() {
		if err != nil {
			err = errors.Join(err, g.close())
		}
	}()
	// One reservation covers the protocol and the control listeners: a
	// control listener asking for "any port" between release and re-bind
	// could be handed a port a later node is about to bind.
	addrs, err := reservePorts(2 * s.nodes)
	if err != nil {
		return g, err
	}
	addrs, ctlAddrs := addrs[:s.nodes], addrs[s.nodes:]
	peers := make(map[overlay.NodeID]string, s.nodes)
	for i, a := range addrs {
		peers[overlay.NodeID(i)] = a
	}
	proto := s.protocol()
	for i := 0; i < s.nodes; i++ {
		mod := func(d int) overlay.NodeID { return overlay.NodeID(((i+d)%s.nodes + s.nodes) % s.nodes) }
		profile := resource.Profile{
			Arch: resource.ArchAMD64, OS: resource.OSLinux,
			MemoryGB: 8, DiskGB: 16, PerfIndex: 1 + float64(i*7%10)/10,
		}
		if i%s.providerEvery == 0 {
			profile.MemoryGB = 16
		}
		var obs core.Observer = g.tracker
		if s.commit {
			if obs, err = g.armObservers(i, dir); err != nil {
				return g, err
			}
		}
		node, err := transport.ListenTCP(transport.TCPConfig{
			ID:        overlay.NodeID(i),
			Listen:    addrs[i],
			Peers:     peers,
			Neighbors: []overlay.NodeID{mod(1), mod(-1), mod(s.chord), mod(-s.chord)},
			Seed:      seed*1000 + int64(i),
		}, profile, sched.FCFS, proto, obs, job.ARTModel{Mode: job.DriftNone})
		if err != nil {
			return g, err
		}
		g.nodes = append(g.nodes, node)
		if s.commit {
			if err := g.armDurability(i, node, ctlAddrs[i], seed, dir); err != nil {
				return g, err
			}
		}
	}
	for _, n := range g.nodes {
		n.Node().Start()
	}
	time.Sleep(s.warmup)
	// The warm-up jobs go in at the phase-A rate. All at once they are a
	// burst of CPU work as long as the collect window: rounds close empty
	// and retry, and set-up takes 0.07 or 0.17 s from one time to the next.
	interval := time.Duration(float64(time.Second) / s.rate)
	warmStart := time.Now()
	for i := 0; i < s.warmJobs*s.nodes; i++ {
		time.Sleep(time.Until(warmStart.Add(time.Duration(i) * interval)))
		if err := g.submit(i%s.nodes, phaseWarm, 0); err != nil {
			return g, fmt.Errorf("warm-up: %w", err)
		}
	}
	g.tracker.waitSettled(s.drain)
	if done, want := g.tracker.finished.Load(), g.tracker.registered.Load(); done != want {
		return g, fmt.Errorf("warm-up: %d of %d jobs settled", done, want)
	}
	return g, nil
}

// armObservers builds the observer chain ariad runs with -events and
// -trace-buffer: the event log to a file and a span ring behind the Tee,
// with the harness's tracker first.
func (g *grid) armObservers(i int, dir string) (core.Observer, error) {
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("events-%d.jsonl", i)))
	if err != nil {
		return nil, err
	}
	ew := eventlog.NewWriter(f)
	g.cleanup = append(g.cleanup, f.Close, ew.Flush)
	return eventlog.Tee{g.tracker, ew, trace.NewRing(4096)}, nil
}

// armDurability attaches the file journal and the control server, as ariad
// does with -data-dir and -control.
func (g *grid) armDurability(i int, node *transport.TCPNode, ctlAddr string, seed int64, dir string) error {
	fs, err := wal.OpenFileStore(filepath.Join(dir, fmt.Sprintf("data-%d", i)))
	if err != nil {
		return err
	}
	g.cleanup = append(g.cleanup, fs.Close)
	journal := wal.New(countingStore{fs, &g.walBytes}, wal.Options{
		// ariad fsyncs every append. Here that would make the run measure
		// the disk under the checkout (fsync-bound, 25 % spread run to run)
		// instead of the journal, so appends stop at the page cache and the
		// wal.append_sync_us drive reports the fsync cost on its own.
		// Snapshots still fsync.
		SyncEveryAppend: false,
		SnapshotEvery:   snapshotEvery,
		OnError:         func(err error) { g.tracker.walErr.CompareAndSwap(nil, &err) },
	})
	node.Node().AttachJournal(journal)
	if _, err := node.Node().Recover(); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", ctlAddr)
	if err != nil {
		return err
	}
	srv := ctl.NewServer(ln, node.Node(), g.tracker.now, rand.New(rand.NewSource(seed*1000+500+int64(i))))
	g.ctls = append(g.ctls, srv)
	return nil
}

// submit hands one job to node i: straight into core.Node.Submit on the
// flood workload, through the control plane's request parser on the commit
// workload (which also picks the UUID).
func (g *grid) submit(i, phase int, due time.Duration) error {
	if g.shape.commit {
		resp := g.ctls[i].Handle(ctl.Request{
			Op: ctl.OpSubmit, Arch: "AMD64", OS: "LINUX",
			MinMemoryGB: jobMemoryGB, MinDiskGB: 1, ERT: jobERT.String(),
		})
		if !resp.OK {
			return fmt.Errorf("submit via ctl to node %d: %s", i, resp.Error)
		}
		g.tracker.register(job.UUID(resp.UUID), phase, due)
		return nil
	}
	p := job.Profile{
		UUID: job.NewUUID(g.rng),
		Req: resource.Requirements{
			Arch: resource.ArchAMD64, OS: resource.OSLinux,
			MinMemoryGB: jobMemoryGB, MinDiskGB: 1,
		},
		ERT:         jobERT,
		Class:       job.ClassBatch,
		SubmittedAt: g.tracker.now(),
	}
	g.tracker.register(p.UUID, phase, due)
	if err := g.nodes[i].Node().Submit(p); err != nil {
		return fmt.Errorf("submit to node %d: %w", i, err)
	}
	return nil
}

// close tears the grid down: control servers, nodes, then files; and waits
// for the goroutines the transports started.
func (g *grid) close() error {
	var errs []error
	for _, s := range g.ctls {
		errs = append(errs, s.Close())
	}
	for _, n := range g.nodes {
		errs = append(errs, n.Close())
	}
	for i := len(g.cleanup) - 1; i >= 0; i-- {
		errs = append(errs, g.cleanup[i]())
	}
	return errors.Join(errs...)
}

// waitGoroutines waits for the goroutine count to fall back to base (sender
// goroutines finish on their own once the sockets are closed) and reports
// how many stayed.
func waitGoroutines(base int) int {
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	return runtime.NumGoroutine() - base
}
