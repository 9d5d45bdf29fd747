package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/resource"
	"github.com/smartgrid/aria/internal/sched"
	"github.com/smartgrid/aria/internal/sim"
	"github.com/smartgrid/aria/internal/wal"
)

// advInterval is the INFORM period every advertiser test runs at.
const advInterval = 5 * time.Minute

// advEnv runs one node on a simulation kernel and records the instants of
// the INFORM floods it originates. Nothing answers: the node's queue
// changes only by the ASSIGNs a test delivers and the jobs it runs.
type advEnv struct {
	engine  *sim.Engine
	rng     *rand.Rand
	informs []time.Duration
}

func (e *advEnv) Now() time.Duration { return e.engine.Now() }
func (e *advEnv) Schedule(delay time.Duration, fn func()) Cancel {
	return e.engine.Schedule(delay, fn).Cancel
}
func (e *advEnv) Send(_ overlay.NodeID, m Message) {
	if m.Type == MsgInform && m.Hop == 1 {
		if k := len(e.informs); k == 0 || e.informs[k-1] != e.Now() {
			e.informs = append(e.informs, e.Now())
		}
	}
}
func (e *advEnv) Neighbors() []overlay.NodeID { return []overlay.NodeID{2, 3} }
func (e *advEnv) Rand() *rand.Rand            { return e.rng }

func advConfig() Config {
	cfg := DefaultConfig()
	cfg.InformJobs = 2
	cfg.InformInterval = advInterval
	return cfg
}

// newAdvNode builds node 1 on the kernel, drawing from rand.NewSource(seed).
func newAdvNode(t *testing.T, engine *sim.Engine, seed int64, cfg Config) (*Node, *advEnv) {
	t.Helper()
	env := &advEnv{engine: engine, rng: rand.New(rand.NewSource(seed))}
	profile := resource.Profile{Arch: resource.ArchAMD64, OS: resource.OSLinux, MemoryGB: 8, DiskGB: 8, PerfIndex: 1}
	n, err := NewNode(1, profile, sched.FCFS, env, cfg, nil, job.ARTModel{Mode: job.DriftNone})
	if err != nil {
		t.Fatal(err)
	}
	return n, env
}

// firstTick is the instant an advertiser started at `at` on a fresh
// rand.NewSource(seed) first ticks: Start's first draw is its phase.
func firstTick(seed int64, at time.Duration) time.Duration {
	return at + time.Duration(rand.New(rand.NewSource(seed)).Int63n(int64(advInterval))) + advInterval
}

// nextAligned is the first instant of the schedule t0 + k·advInterval
// strictly after at.
func nextAligned(t0, at time.Duration) time.Duration {
	if at < t0 {
		return t0
	}
	return t0 + ((at-t0)/advInterval+1)*advInterval
}

func advJob(rng *rand.Rand, ert time.Duration) job.Profile {
	return job.Profile{
		UUID:  job.NewUUID(rng),
		Req:   resource.Requirements{Arch: resource.ArchAMD64, OS: resource.OSLinux, MinMemoryGB: 1, MinDiskGB: 1},
		ERT:   ert,
		Class: job.ClassBatch,
	}
}

// assignAt delivers an ASSIGN of p from the remote initiator 9 at instant at.
func assignAt(engine *sim.Engine, n *Node, at time.Duration, p job.Profile) {
	engine.ScheduleAt(at, func() { n.HandleMessage(Message{Type: MsgAssign, From: 9, Via: 9, Job: p}) })
}

// TestInformTicksStayPhaseAligned drives one node with ASSIGNs at scattered
// instants, so its queue empties and refills many times, and checks its
// INFORM floods against an always-ticking reference: at every t0 + k·I the
// reference looks at the queue (scheduled first, it sees what that tick
// sees) and predicts a flood exactly when a job is waiting. A dormant
// advertiser must hit every one of those instants and no other.
func TestInformTicksStayPhaseAligned(t *testing.T) {
	const seed, horizon = 7, 30 * time.Hour
	engine := sim.NewEngine(1)
	n, env := newAdvNode(t, engine, seed, advConfig())
	t0 := firstTick(seed, 0)
	var want []time.Duration
	wakes, empties := 0, 0
	wasEmpty := false
	for at := t0; at <= horizon; at += advInterval {
		at := at
		engine.ScheduleAt(at, func() {
			busy := n.QueueLen() > 0
			if busy {
				want = append(want, at)
				if wasEmpty {
					wakes++
				}
			} else {
				empties++
			}
			wasEmpty = !busy
		})
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 16; i++ {
		at := time.Duration(rng.Int63n(int64(8 * time.Hour)))
		assignAt(engine, n, at, advJob(rng, 10*time.Minute+time.Duration(rng.Int63n(int64(80*time.Minute)))))
	}
	n.Start()
	engine.Run(horizon)
	if wakes < 3 || empties < 3 {
		t.Fatalf("workload exercised %d wake-ups over %d empty ticks, want at least 3 of each", wakes, empties)
	}
	if !slices.Equal(env.informs, want) {
		t.Fatalf("INFORM floods at %v, always-ticking reference at %v", env.informs, want)
	}
	if !n.informDormant || n.informCancel != nil {
		t.Fatalf("drained node: dormant %v, timer armed %v", n.informDormant, n.informCancel != nil)
	}
}

// TestIdleAdvertiserArmsNoTimer: a node with nothing queued holds no
// advertiser timer, from Start on and again after its queue drains, so a
// kernel running only that node runs dry.
func TestIdleAdvertiserArmsNoTimer(t *testing.T) {
	engine := sim.NewEngine(1)
	n, env := newAdvNode(t, engine, 5, advConfig())
	n.Start()
	if p := engine.Pending(); p != 0 {
		t.Fatalf("idle node after Start: %d pending timers, want 0", p)
	}
	rng := rand.New(rand.NewSource(4))
	assignAt(engine, n, 10*time.Minute, advJob(rng, time.Hour))
	assignAt(engine, n, 11*time.Minute, advJob(rng, time.Hour))
	if ran := engine.RunAll(10_000); ran >= 10_000 {
		t.Fatal("kernel never ran dry: the advertiser kept ticking")
	}
	if len(env.informs) == 0 {
		t.Fatal("the waiting job was never advertised")
	}
	if !n.Idle() || engine.Pending() != 0 {
		t.Fatalf("idle %v with %d pending timers", n.Idle(), engine.Pending())
	}
}

// TestStoppedAdvertiserStaysAsleep: Stop on a dormant advertiser is final;
// a later enqueue does not re-arm it.
func TestStoppedAdvertiserStaysAsleep(t *testing.T) {
	engine := sim.NewEngine(1)
	n, env := newAdvNode(t, engine, 5, advConfig())
	n.Start()
	engine.Run(time.Hour)
	n.Stop()
	rng := rand.New(rand.NewSource(4))
	assignAt(engine, n, time.Hour+time.Minute, advJob(rng, 2*time.Hour))
	assignAt(engine, n, time.Hour+2*time.Minute, advJob(rng, 2*time.Hour))
	engine.RunAll(10_000)
	if len(env.informs) != 0 || engine.Pending() != 0 {
		t.Fatalf("stopped node sent INFORMs at %v, %d timers pending", env.informs, engine.Pending())
	}
}

// TestKillAndRestartRephaseAdvertiser: a killed node never advertises
// again, and its replacement ticks on the phase its own Start drew.
func TestKillAndRestartRephaseAdvertiser(t *testing.T) {
	const seedA, seedB, killAt = 1, 2, time.Hour
	engine := sim.NewEngine(1)
	a, envA := newAdvNode(t, engine, seedA, advConfig())
	a.Start()
	rng := rand.New(rand.NewSource(4))
	assignAt(engine, a, time.Minute, advJob(rng, 3*time.Hour))
	assignAt(engine, a, 2*time.Minute, advJob(rng, 3*time.Hour))
	engine.Run(killAt)
	a.Kill()
	before := len(envA.informs)
	if before == 0 {
		t.Fatal("staging failed: the first incarnation never advertised")
	}

	b, envB := newAdvNode(t, engine, seedB, advConfig())
	b.Start()
	assignAt(engine, b, killAt+time.Minute, advJob(rng, 3*time.Hour))
	assignAt(engine, b, killAt+2*time.Minute, advJob(rng, 3*time.Hour))
	engine.Run(4 * time.Hour)
	if len(envA.informs) != before {
		t.Fatalf("killed node advertised at %v", envA.informs[before:])
	}
	t0A, t0B := firstTick(seedA, 0), firstTick(seedB, killAt)
	if (t0B-t0A)%advInterval == 0 {
		t.Fatal("staging failed: both incarnations drew the same phase")
	}
	var want []time.Duration
	for at := t0B; at <= 4*time.Hour; at += advInterval {
		want = append(want, at)
	}
	if !slices.Equal(envB.informs, want) {
		t.Fatalf("restarted node advertised at %v, want %v", envB.informs, want)
	}
}

// crashWithQueue runs a journaled node that takes three long jobs from the
// remote initiator 9, kills it at 30 min and returns its journal.
func crashWithQueue(t *testing.T, engine *sim.Engine, cfg Config) (*wal.Journal, []job.Profile) {
	t.Helper()
	n, _ := newAdvNode(t, engine, 1, cfg)
	j := wal.New(&wal.MemStore{}, wal.Options{})
	n.AttachJournal(j)
	n.Start()
	rng := rand.New(rand.NewSource(4))
	jobs := []job.Profile{advJob(rng, 3*time.Hour), advJob(rng, 3*time.Hour), advJob(rng, 3*time.Hour)}
	for i, p := range jobs {
		assignAt(engine, n, time.Duration(i+1)*time.Minute, p)
	}
	engine.Run(30 * time.Minute)
	n.Kill()
	return j, jobs
}

// TestReleaseFencedWakesAdvertiser: crash-recovered copies stay fenced (out
// of the queue) until their initiator confirms them, so the replacement
// starts dormant; a confirmed copy that has to wait wakes it at the next
// aligned instant.
func TestReleaseFencedWakesAdvertiser(t *testing.T) {
	const seedB, confirmAt = 6, 50 * time.Minute
	engine := sim.NewEngine(1)
	cfg := advConfig()
	cfg.NotifyInitiator = true
	j, jobs := crashWithQueue(t, engine, cfg)

	b, env := newAdvNode(t, engine, seedB, cfg)
	b.AttachJournal(j)
	if _, err := b.Recover(); err != nil {
		t.Fatal(err)
	}
	b.Start()
	if got := b.openResends(resendFenced); got != 3 || !b.informDormant {
		t.Fatalf("staging failed: %d fenced copies, dormant %v", got, b.informDormant)
	}
	confirm := func(at time.Duration, p job.Profile) {
		engine.ScheduleAt(at, func() { b.HandleMessage(Message{Type: MsgNotify, From: 9, Job: p, Notify: NotifyConfirm}) })
	}
	confirm(40*time.Minute, jobs[0]) // starts at once: nothing waits, no wake
	confirm(confirmAt, jobs[1])      // waits behind it
	engine.Run(2 * time.Hour)
	t0 := firstTick(seedB, 30*time.Minute)
	if len(env.informs) == 0 || env.informs[0] != nextAligned(t0, confirmAt) {
		t.Fatalf("advertised at %v, want the first from %v", env.informs, nextAligned(t0, confirmAt))
	}
	for _, at := range env.informs {
		if (at-t0)%advInterval != 0 {
			t.Fatalf("INFORM at %v is off the schedule %v + k·%v", at, t0, advInterval)
		}
	}
}

// TestRecoverWakesAdvertiser: recovered queued jobs are advertised on the
// replacement's own schedule, whether Recover precedes Start (the normal
// order, where Start finds the queue full) or follows it on an advertiser
// already asleep.
func TestRecoverWakesAdvertiser(t *testing.T) {
	const seedB, startAt = 6, 30 * time.Minute
	t0 := firstTick(seedB, startAt)
	for _, tc := range []struct {
		name      string
		recoverAt time.Duration
	}{
		{"recover-then-start", startAt},
		{"start-then-recover", startAt + 20*time.Minute},
	} {
		t.Run(tc.name, func(t *testing.T) {
			engine := sim.NewEngine(1)
			j, _ := crashWithQueue(t, engine, advConfig())
			b, env := newAdvNode(t, engine, seedB, advConfig())
			b.AttachJournal(j)
			recover := func() {
				if _, err := b.Recover(); err != nil {
					t.Fatal(err)
				}
			}
			if tc.recoverAt == startAt {
				recover()
				// Recover's announcement drew from the stream; re-seed it
				// so Start's phase draw is the first, as firstTick assumes.
				env.rng = rand.New(rand.NewSource(seedB))
				b.Start()
			} else {
				b.Start()
				engine.Run(tc.recoverAt)
				if !b.informDormant {
					t.Fatal("staging failed: the empty replacement is not dormant")
				}
				recover()
			}
			engine.Run(2 * time.Hour)
			// The first flood is Recover's own announcement; the ticks follow.
			if len(env.informs) < 3 || env.informs[0] != tc.recoverAt {
				t.Fatalf("advertised at %v, want an announcement at %v and ticks after", env.informs, tc.recoverAt)
			}
			for i, at := range env.informs[1:] {
				if want := nextAligned(t0, tc.recoverAt) + time.Duration(i)*advInterval; at != want {
					t.Fatalf("tick %d at %v, want %v", i, at, want)
				}
			}
		})
	}
}

// TestNoAdvertiserWithoutRescheduling: with InformJobs = 0 the advertiser
// is never armed, not even by an enqueue.
func TestNoAdvertiserWithoutRescheduling(t *testing.T) {
	engine := sim.NewEngine(1)
	cfg := advConfig()
	cfg.InformJobs = 0
	n, env := newAdvNode(t, engine, 5, cfg)
	n.Start()
	rng := rand.New(rand.NewSource(4))
	assignAt(engine, n, time.Minute, advJob(rng, time.Hour))
	assignAt(engine, n, 2*time.Minute, advJob(rng, time.Hour))
	engine.Run(3 * time.Minute)
	if n.informCancel != nil || n.informDormant {
		t.Fatalf("advertiser armed %v, dormant %v with rescheduling off", n.informCancel != nil, n.informDormant)
	}
	engine.RunAll(10_000)
	if len(env.informs) != 0 || engine.Pending() != 0 {
		t.Fatalf("INFORMs at %v, %d timers pending", env.informs, engine.Pending())
	}
}
