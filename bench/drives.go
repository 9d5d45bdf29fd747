package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"path/filepath"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/ctl"
	"github.com/smartgrid/aria/internal/directory"
	"github.com/smartgrid/aria/internal/eventlog"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/resource"
	"github.com/smartgrid/aria/internal/scenario"
	"github.com/smartgrid/aria/internal/sched"
	"github.com/smartgrid/aria/internal/sharedstate"
	"github.com/smartgrid/aria/internal/trace"
	"github.com/smartgrid/aria/internal/transport"
	"github.com/smartgrid/aria/internal/wal"
)

// The drives time one layer's public functions in isolation, with no other
// layer running. They are independent of the workload; every traced run
// repeats them so their numbers sit beside the shares they explain.

const driveRounds = 3

// drives runs the drives at a fraction of their full operation counts; the
// smoke tests use a small one.
type drives struct{ scale float64 }

func (d drives) ops(full int) int { return max(1, int(float64(full)*d.scale)) }

// timeOp runs setup (untimed) and then op n times, for driveRounds rounds,
// and returns the median round's time and heap allocations per operation.
func (d drives) timeOp(n int, setup func() func(i int)) (nsPerOp, allocsPerOp float64) {
	n = d.ops(n)
	var ns, allocs []float64
	for r := 0; r < driveRounds; r++ {
		op := setup()
		m0, t0 := mallocs(), time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		d := time.Since(t0)
		ns = append(ns, float64(d.Nanoseconds())/float64(n))
		allocs = append(allocs, float64(mallocs()-m0)/float64(n))
	}
	return median(ns), median(allocs)
}

// stubEnv is a core.Env that drops everything: messages vanish, timers never
// fire, the clock moves only when the drive moves it.
type stubEnv struct {
	now  time.Duration
	rng  *rand.Rand
	nbrs []overlay.NodeID
}

var _ core.Env = (*stubEnv)(nil)

func newStubEnv() *stubEnv {
	return &stubEnv{rng: rand.New(rand.NewSource(1)), nbrs: []overlay.NodeID{1, 2, 3, 4}}
}

func dropTimer() bool { return true }

func (e *stubEnv) Now() time.Duration                         { return e.now }
func (e *stubEnv) Schedule(time.Duration, func()) core.Cancel { return dropTimer }
func (e *stubEnv) Send(overlay.NodeID, core.Message)          {}
func (e *stubEnv) Rand() *rand.Rand                           { return e.rng }

// Neighbors returns a copy: the engine filters the slice in place.
func (e *stubEnv) Neighbors() []overlay.NodeID {
	return append([]overlay.NodeID(nil), e.nbrs...)
}

var (
	driveProfile = resource.Profile{Arch: resource.ArchAMD64, OS: resource.OSLinux, MemoryGB: 16, DiskGB: 16, PerfIndex: 1.5}
	driveReq     = resource.Requirements{Arch: resource.ArchAMD64, OS: resource.OSLinux, MinMemoryGB: 8, MinDiskGB: 8}
)

func driveJob(rng *rand.Rand) job.Profile {
	return job.Profile{UUID: job.NewUUID(rng), Req: driveReq, ERT: time.Hour, Class: job.ClassBatch}
}

func driveNode(env core.Env, cfg core.Config) *core.Node {
	n, err := core.NewNode(0, driveProfile, sched.FCFS, env, cfg, nil, job.ARTModel{Mode: job.DriftNone})
	if err != nil {
		panic(fmt.Sprintf("drive node: %v", err)) // the drive's own fixed inputs are wrong
	}
	return n
}

func someDigests(n int, rng *rand.Rand) []directory.Digest {
	ds := make([]directory.Digest, n)
	for i := range ds {
		ds[i] = directory.Digest{
			Node:    overlay.NodeID(i + 1),
			Profile: resource.Profile{Arch: resource.ArchAMD64, OS: resource.OSLinux, MemoryGB: 16, DiskGB: 16, PerfIndex: 1 + rng.Float64()*0.99},
			Load:    rng.Intn(8),
		}
	}
	return ds
}

// codecMix is the fixed message mix the codec drive encodes and decodes.
func codecMix() []core.Message {
	rng := rand.New(rand.NewSource(7))
	p := driveJob(rng)
	dir := directory.Encode(someDigests(4, rng))
	return []core.Message{
		{Type: core.MsgRequest, From: 3, Job: p, TTL: 8, Fanout: 4, Seq: 17, Via: 5, Hop: 2, Span: 1 << 33},
		{Type: core.MsgAccept, From: 9, Job: p, Cost: 1234.5, Span: 2 << 33},
		{Type: core.MsgInform, From: 9, Job: p, Cost: 4321, TTL: 7, Fanout: 2, Seq: 99, Via: 9, Hop: 1, Span: 3 << 33},
		{Type: core.MsgAssign, From: 3, Job: p, Via: 3, Span: 4 << 33},
		{Type: core.MsgPing, From: 3, Seq: 5, Peers: []overlay.NodeID{1, 2, 4, 8}, Dir: dir},
		{Type: core.MsgCommit, From: 3, Job: p, Inc: 2, Span: 5 << 33},
	}
}

// run runs every isolated drive; workDir holds the file-backed ones.
func (d drives) run(workDir string) (metrics, error) {
	m := metrics{}

	// transport: wire codec over the fixed mix.
	mix := codecMix()
	var frames [][]byte
	var frameBytes int
	for _, msg := range mix {
		var buf bytes.Buffer
		if err := transport.WriteMessage(&buf, msg); err != nil {
			return nil, err
		}
		frames = append(frames, buf.Bytes())
		frameBytes += buf.Len()
	}
	m["transport.codec_frame_bytes"] = float64(frameBytes) / float64(len(mix))
	var driveErr error
	m["transport.codec_encode_ns"], m["transport.codec_encode_allocs"] = d.timeOp(60000, func() func(int) {
		var buf bytes.Buffer
		return func(i int) {
			buf.Reset()
			if err := transport.WriteMessage(&buf, mix[i%len(mix)]); err != nil {
				driveErr = err
			}
		}
	})
	m["transport.codec_decode_ns"], m["transport.codec_decode_allocs"] = d.timeOp(20000, func() func(int) {
		var r bytes.Reader
		return func(i int) {
			r.Reset(frames[i%len(frames)])
			if _, err := transport.ReadMessage(&r); err != nil {
				driveErr = err
			}
		}
	})
	if driveErr != nil {
		return nil, fmt.Errorf("codec drive: %w", driveErr)
	}

	// transport + sim: one hop of a flood through a 64-node SimCluster, and
	// the kernel's timer push+pop on the kernel Prepare returns.
	small, err := scenario.ByName("iMixed")
	if err != nil {
		return nil, err
	}
	small.Nodes = 64
	small.Horizon = 3 * time.Hour
	var hopNs, hopAllocs []float64
	for r := 0; r < driveRounds; r++ {
		dep, err := scenario.Prepare(small, 0)
		if err != nil {
			return nil, err
		}
		if _, err := scenario.ReplaySWF(dep, scenario.SyntheticTrace(d.ops(1000), int64(r))); err != nil {
			return nil, err
		}
		m0, t0 := mallocs(), time.Now()
		res := dep.Finish()
		wall, allocs := time.Since(t0), mallocs()-m0
		var msgs int64
		for _, tr := range res.Traffic {
			msgs += tr.Count
		}
		if msgs == 0 {
			return nil, fmt.Errorf("sim hop drive delivered no message")
		}
		hopNs = append(hopNs, float64(wall.Nanoseconds())/float64(msgs))
		hopAllocs = append(hopAllocs, float64(allocs)/float64(msgs))
	}
	m["transport.sim_hop_ns"], m["transport.sim_hop_allocs"] = median(hopNs), median(hopAllocs)

	timers := d.ops(300_000)
	var timerNs, timerAllocs []float64
	for r := 0; r < driveRounds; r++ {
		dep, err := scenario.Prepare(small, 0)
		if err != nil {
			return nil, err
		}
		k, rng, fired := dep.Engine, rand.New(rand.NewSource(int64(r))), 0
		m0, t0 := mallocs(), time.Now()
		for i := 0; i < timers; i++ {
			k.Schedule(time.Duration(rng.Int63n(int64(time.Second))), func() { fired++ })
		}
		k.Run(time.Second)
		wall, allocs := time.Since(t0), mallocs()-m0
		if fired != timers {
			return nil, fmt.Errorf("timer drive fired %d of %d timers", fired, timers)
		}
		timerNs = append(timerNs, float64(wall.Nanoseconds())/float64(timers))
		timerAllocs = append(timerAllocs, float64(allocs)/float64(timers))
	}
	m["sim.timer_pushpop_ns"], m["sim.timer_pushpop_allocs"] = median(timerNs), median(timerAllocs)

	// core: one message type at a time against the stub environment.
	rng := rand.New(rand.NewSource(11))
	planes := liveCommit.protocol() // membership, directory and shared-state armed
	jobs := make([]job.Profile, 20000)
	for i := range jobs {
		jobs[i] = driveJob(rng)
	}
	m["core.handle_request_ns"], m["core.handle_request_allocs"] = d.timeOp(100000, func() func(int) {
		env := newStubEnv()
		n := driveNode(env, core.DefaultConfig())
		msg := core.Message{Type: core.MsgRequest, From: 7, Job: jobs[0], TTL: 5, Fanout: 4, Via: 2, Hop: 3}
		return func(i int) {
			// A fresh wave each time; the clock advances so the dedup
			// generations rotate at about the size a busy node sees.
			env.now += 75 * time.Millisecond
			msg.Seq = uint64(i + 1)
			n.HandleMessage(msg)
		}
	})
	m["core.handle_request_dup_ns"], m["core.handle_request_dup_allocs"] = d.timeOp(200000, func() func(int) {
		n := driveNode(newStubEnv(), core.DefaultConfig())
		msg := core.Message{Type: core.MsgRequest, From: 7, Job: jobs[0], TTL: 5, Fanout: 4, Seq: 1, Via: 2, Hop: 3}
		n.HandleMessage(msg)
		return func(int) { n.HandleMessage(msg) }
	})
	m["core.handle_inform_ns"], _ = d.timeOp(100000, func() func(int) {
		env := newStubEnv()
		n := driveNode(env, core.DefaultConfig())
		msg := core.Message{Type: core.MsgInform, From: 7, Job: jobs[0], Cost: 0, TTL: 5, Fanout: 2, Via: 2, Hop: 3}
		return func(i int) {
			env.now += 75 * time.Millisecond
			msg.Seq = uint64(i + 1)
			n.HandleMessage(msg)
		}
	})
	m["core.handle_accept_ns"], _ = d.timeOp(100000, func() func(int) {
		n := driveNode(newStubEnv(), core.DefaultConfig())
		if err := n.Submit(jobs[1]); err != nil {
			driveErr = err
		}
		msg := core.Message{Type: core.MsgAccept, Job: jobs[1]}
		return func(i int) {
			msg.From, msg.Cost = overlay.NodeID(1+i%64), sched.Cost(1000+i%977)
			n.HandleMessage(msg)
		}
	})
	// ASSIGN and COMMIT create queue state, so each node takes a queue's
	// worth of them and the next node is built outside the timer.
	const perNode = 32
	queueing := func(cfg core.Config, typ core.MsgType) func() func(int) {
		return func() func(int) {
			nodes := make([]*core.Node, len(jobs)/perNode)
			for i := range nodes {
				nodes[i] = driveNode(newStubEnv(), cfg)
			}
			msg := core.Message{Type: typ, From: 7, Via: 7}
			return func(i int) {
				msg.Job = jobs[i]
				nodes[i/perNode].HandleMessage(msg)
			}
		}
	}
	m["core.handle_assign_ns"], _ = d.timeOp(len(jobs), queueing(core.DefaultConfig(), core.MsgAssign))
	m["core.handle_commit_ns"], _ = d.timeOp(len(jobs), queueing(planes, core.MsgCommit))
	m["core.handle_ping_ns"], _ = d.timeOp(50000, func() func(int) {
		env := newStubEnv()
		n := driveNode(env, planes)
		digests := someDigests(4, rng)
		msg := core.Message{Type: core.MsgPing, From: 1, Peers: []overlay.NodeID{2, 3, 5, 6}}
		return func(i int) {
			// Each probe carries knowledge a moment fresher than the last,
			// so every digest is admitted rather than dropped as old news.
			env.now += time.Millisecond
			msg.Seq, msg.Dir = uint64(i), directory.Encode(digests)
			n.HandleMessage(msg)
		}
	})

	// sched: an offer on a 32-deep queue, ETTC (FCFS) and NAL (EDF).
	offer := func(policy sched.Policy, class job.Class) func() func(int) {
		return func() func(int) {
			q, err := sched.New(policy, 1.5)
			if err != nil {
				driveErr = err
				return func(int) {}
			}
			p := jobs[0]
			p.Class = class
			if class == job.ClassDeadline {
				p.Deadline = 100 * time.Hour
			}
			for i := 0; i < 32; i++ {
				queued := p
				queued.UUID = jobs[i+1].UUID
				q.Enqueue(job.New(queued), 0)
			}
			return func(int) {
				if _, err := q.OfferCost(p, time.Minute, 10*time.Minute); err != nil {
					driveErr = err
				}
			}
		}
	}
	m["sched.offer_ettc_ns"], _ = d.timeOp(100000, offer(sched.FCFS, job.ClassBatch))
	m["sched.offer_nal_ns"], _ = d.timeOp(20000, offer(sched.EDF, job.ClassDeadline))

	// directory and sharedstate: a full store at the default capacity.
	fullStore := func() (*directory.Store, []directory.Digest) {
		s := directory.New(core.DefaultDirectoryCapacity, core.DefaultDirectoryTTL)
		ds := someDigests(core.DefaultDirectoryCapacity, rng)
		for _, d := range ds {
			s.Learn(d, 0)
		}
		return s, ds
	}
	m["directory.learn_ns"], _ = d.timeOp(100000, func() func(int) {
		s, ds := fullStore()
		return func(i int) { s.Learn(ds[i%len(ds)], time.Duration(i+1)*time.Millisecond) }
	})
	m["directory.candidates_ns"], _ = d.timeOp(1000, func() func(int) {
		s, _ := fullStore()
		return func(int) { s.Candidates(driveReq, core.DefaultDirectedCandidates, time.Second) }
	})
	m["directory.gossip_ns"], _ = d.timeOp(100000, func() func(int) {
		s, _ := fullStore()
		return func(int) { s.Gossip(core.DefaultDirectoryGossip, time.Second) }
	})
	gossip := someDigests(1+core.DefaultDirectoryGossip, rng)
	payload := directory.Encode(gossip)
	m["directory.codec_encode_ns"], _ = d.timeOp(200000, func() func(int) {
		return func(int) { directory.Encode(gossip) }
	})
	m["directory.codec_decode_ns"], _ = d.timeOp(200000, func() func(int) {
		return func(int) {
			if _, err := directory.Decode(payload); err != nil {
				driveErr = err
			}
		}
	})
	m["sharedstate.pick_ns"], _ = d.timeOp(1000, func() func(int) {
		s, _ := fullStore()
		view := sharedstate.New(s, 64)
		return func(int) {
			if _, ok := view.Pick(driveReq, time.Second, nil); !ok {
				driveErr = fmt.Errorf("sharedstate drive: no provider picked")
			}
		}
	})

	// wal: append to memory, append+fsync and snapshot to a file in the
	// work directory, and load+replay of 10k records.
	record := func(i int) wal.Record {
		return wal.Record{Type: wal.RecEnqueue, At: time.Duration(i), UUID: jobs[i%len(jobs)].UUID, Profile: &jobs[i%len(jobs)], Peer: 3, Span: uint64(i), Seq: uint64(i)}
	}
	var memBytes int
	m["wal.append_ns"], m["wal.append_allocs"] = d.timeOp(20000, func() func(int) {
		store := &wal.MemStore{}
		j := wal.New(store, wal.Options{SnapshotEvery: 1 << 30})
		if err := j.Append(record(0)); err != nil {
			driveErr = err
		}
		b, _ := store.ReadJournal() // MemStore reads cannot fail
		memBytes = len(b)
		return func(i int) {
			if err := j.Append(record(i)); err != nil {
				driveErr = err
			}
		}
	})
	m["wal.append_bytes"] = float64(memBytes)
	fileJournal := func(name string, sync bool) (*wal.Journal, func()) {
		fs, err := wal.OpenFileStore(filepath.Join(workDir, name))
		if err != nil {
			driveErr = err
			return wal.New(&wal.MemStore{}, wal.Options{}), func() {}
		}
		return wal.New(fs, wal.Options{SyncEveryAppend: sync, SnapshotEvery: 1 << 30}), func() { _ = fs.Close() }
	}
	var closers []func()
	defer func() {
		for _, done := range closers {
			done()
		}
	}()
	syncNs, _ := d.timeOp(300, func() func(int) {
		j, done := fileJournal("drive-sync", true)
		closers = append(closers, done)
		return func(i int) {
			if err := j.Append(record(i)); err != nil {
				driveErr = err
			}
		}
	})
	m["wal.append_sync_us"] = syncNs / 1000
	state := &wal.State{Node: 1}
	for i := 0; i < 32; i++ {
		state.Queued = append(state.Queued, wal.QueuedJob{Profile: jobs[i], Initiator: 3})
	}
	snapNs, _ := d.timeOp(50, func() func(int) {
		j, done := fileJournal("drive-snap", false)
		closers = append(closers, done)
		return func(int) {
			if err := j.WriteSnapshot(state); err != nil {
				driveErr = err
			}
		}
	})
	m["wal.snapshot_us"] = snapNs / 1000
	replayRecords := d.ops(10000)
	replayNs, _ := d.timeOp(1, func() func(int) {
		j := wal.New(&wal.MemStore{}, wal.Options{SnapshotEvery: 1 << 30})
		for i := 0; i < replayRecords; i++ {
			if err := j.Append(record(i)); err != nil {
				driveErr = err
			}
		}
		return func(int) {
			snap, recs, _, err := j.Load()
			if err != nil || len(recs) != replayRecords {
				driveErr = fmt.Errorf("wal replay drive: loaded %d records: %v", len(recs), err)
			}
			wal.Replay(snap, recs)
		}
	})
	m["wal.replay_ns_per_record"] = replayNs / float64(replayRecords)

	// ctl: the submit request parser in front of core.Node.Submit.
	m["ctl.handle_submit_ns"], m["ctl.handle_submit_allocs"] = d.timeOp(20000, func() func(int) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			driveErr = err
			return func(int) {}
		}
		srv := ctl.NewServer(ln, driveNode(newStubEnv(), core.DefaultConfig()), func() time.Duration { return 0 }, rand.New(rand.NewSource(3)))
		closers = append(closers, func() { _ = srv.Close() })
		req := ctl.Request{Op: ctl.OpSubmit, Arch: "AMD64", OS: "LINUX", MinMemoryGB: 8, MinDiskGB: 8, ERT: "1h"}
		return func(int) {
			if resp := srv.Handle(req); !resp.OK {
				driveErr = fmt.Errorf("ctl drive: %s", resp.Error)
			}
		}
	})

	// observers: one event-log line, one collected span.
	done := job.New(jobs[0])
	m["eventlog.write_event_ns"], _ = d.timeOp(50000, func() func(int) {
		w := eventlog.NewWriter(io.Discard)
		return func(i int) {
			switch i % 5 {
			case 0:
				w.JobSubmitted(time.Second, 1, jobs[0])
			case 1:
				w.JobAssigned(time.Second, jobs[0].UUID, 1, 2, 42, false)
			case 2:
				w.JobStarted(time.Second, 2, jobs[0].UUID)
			case 3:
				w.JobCompleted(time.Second, 2, done)
			default:
				w.TraceSpan(core.TraceEvent{At: time.Second, Node: 2, Kind: core.SpanForward, UUID: jobs[0].UUID, Span: uint64(i), Parent: 7, Msg: core.MsgRequest, Hop: 2, TTL: 6, Fanout: 3})
			}
		}
	})
	m["trace.collect_span_ns"], _ = d.timeOp(200000, func() func(int) {
		c := trace.NewCollector()
		return func(i int) {
			c.TraceSpan(core.TraceEvent{At: time.Second, Node: 2, Kind: core.SpanForward, UUID: jobs[0].UUID, Span: uint64(i), Parent: 7})
		}
	})

	if driveErr != nil {
		return nil, driveErr
	}
	return m, nil
}
