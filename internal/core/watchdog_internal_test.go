package core

import (
	"math/rand"
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/resource"
	"github.com/smartgrid/aria/internal/sched"
)

// fakeEnv is a minimal Env for white-box unit tests of pure node logic.
type fakeEnv struct {
	now time.Duration
	rng *rand.Rand
}

func (f *fakeEnv) Now() time.Duration { return f.now }
func (f *fakeEnv) Schedule(_ time.Duration, _ func()) Cancel {
	return func() bool { return true }
}
func (f *fakeEnv) Send(overlay.NodeID, Message) {}
func (f *fakeEnv) Neighbors() []overlay.NodeID  { return nil }
func (f *fakeEnv) Rand() *rand.Rand             { return f.rng }

func newTestNode(t *testing.T, cfg Config) (*Node, *fakeEnv) {
	t.Helper()
	env := &fakeEnv{rng: rand.New(rand.NewSource(1))}
	profile := resource.Profile{
		Arch: resource.ArchAMD64, OS: resource.OSLinux,
		MemoryGB: 8, DiskGB: 8, PerfIndex: 1.5,
	}
	n, err := NewNode(1, profile, sched.FCFS, env, cfg, nil, job.DefaultARTModel())
	if err != nil {
		t.Fatal(err)
	}
	return n, env
}

func watchdogConfig() Config {
	cfg := DefaultConfig()
	cfg.InformJobs = 0
	cfg.NotifyInitiator = true
	cfg.WatchdogGrace = 3
	return cfg
}

func TestWatchdogDelayUsesExpectedCompletion(t *testing.T) {
	n, _ := newTestNode(t, watchdogConfig())
	p := job.Profile{
		UUID: "0123456789abcdef0123456789abcdef",
		Req: resource.Requirements{
			Arch: resource.ArchAMD64, OS: resource.OSLinux, MinMemoryGB: 1, MinDiskGB: 1,
		},
		ERT:   time.Hour,
		Class: job.ClassBatch,
	}
	// Without a cost estimate, the base is the ERT.
	plain := &trackedJob{profile: p}
	if got := n.watchdogDelay(plain); got != 3*time.Hour+n.cfg.AcceptTimeout {
		t.Fatalf("plain delay = %v, want 3h + accept timeout", got)
	}
	// A 5h ETTC offer raises the base above the ERT.
	expected := &trackedJob{profile: p, expect: 5 * time.Hour}
	if got := n.watchdogDelay(expected); got != 15*time.Hour+n.cfg.AcceptTimeout {
		t.Fatalf("cost-based delay = %v, want 15h + accept timeout", got)
	}
}

func TestWatchdogDelayBacksOffExponentially(t *testing.T) {
	n, _ := newTestNode(t, watchdogConfig())
	p := job.Profile{
		UUID: "0123456789abcdef0123456789abcdef",
		Req: resource.Requirements{
			Arch: resource.ArchAMD64, OS: resource.OSLinux, MinMemoryGB: 1, MinDiskGB: 1,
		},
		ERT:   time.Hour,
		Class: job.ClassBatch,
	}
	base := n.watchdogDelay(&trackedJob{profile: p})
	once := n.watchdogDelay(&trackedJob{profile: p, resub: 1})
	twice := n.watchdogDelay(&trackedJob{profile: p, resub: 2})
	many := n.watchdogDelay(&trackedJob{profile: p, resub: 50})
	cap6 := n.watchdogDelay(&trackedJob{profile: p, resub: 6})
	if once <= base || twice <= once {
		t.Fatalf("no backoff: %v, %v, %v", base, once, twice)
	}
	if many != cap6 {
		t.Fatalf("backoff not capped: resub=50 gives %v, resub=6 gives %v", many, cap6)
	}
}

func TestWatchdogDelayDeadlineAndReservation(t *testing.T) {
	n, env := newTestNode(t, watchdogConfig())
	env.now = time.Hour
	p := job.Profile{
		UUID: "0123456789abcdef0123456789abcdef",
		Req: resource.Requirements{
			Arch: resource.ArchAMD64, OS: resource.OSLinux, MinMemoryGB: 1, MinDiskGB: 1,
		},
		ERT:      time.Hour,
		Class:    job.ClassDeadline,
		Deadline: 10 * time.Hour,
	}
	// Deadline slack dominates: (10h − 1h) + 1h = 10h base.
	got := n.watchdogDelay(&trackedJob{profile: p})
	if want := 30*time.Hour + n.cfg.AcceptTimeout; got != want {
		t.Fatalf("deadline delay = %v, want %v", got, want)
	}
	// A future reservation extends the horizon further.
	p2 := p
	p2.Class = job.ClassBatch
	p2.Deadline = 0
	p2.EarliestStart = 4 * time.Hour // 3h past now
	got2 := n.watchdogDelay(&trackedJob{profile: p2})
	if want := time.Duration(float64(time.Hour+3*time.Hour)*3) + n.cfg.AcceptTimeout; got2 != want {
		t.Fatalf("reserved delay = %v, want %v", got2, want)
	}
}

// TestWatchdogRecoversFromNotifyLoss drives the failsafe end to end under
// message loss: every NOTIFY (completions, acks, all of it) is dropped, so
// from the initiator's viewpoint the delegated job went silent. The
// watchdog must re-flood a REQUEST within its grace bound — and the
// assignee's unacked-completion memory must refuse the re-assignment, so
// the job still executes exactly once.
func TestWatchdogRecoversFromNotifyLoss(t *testing.T) {
	net := newLossyNet(7)
	counter := newDeliveryCounter()

	cfg := ackConfig()
	cfg.NotifyInitiator = true

	initiator := net.addNode(t, 1, smallProfile(), cfg, counter)
	net.addNode(t, 2, bigProfile(), cfg, counter)
	net.connect(1, 2)

	net.drop = func(_, _ overlay.NodeID, m Message) bool {
		return m.Type == MsgNotify
	}

	if err := initiator.Submit(bigJob(testUUID)); err != nil {
		t.Fatal(err)
	}

	// The 1h job is assigned at ~AcceptTimeout and runs on node 2 (ETTC
	// offer ≈ 1h), so the watchdog deadline is grace×1h + AcceptTimeout
	// past the assignment. Up to that deadline there must be exactly the
	// original discovery flood.
	grace := time.Duration(cfg.WatchdogGrace * float64(time.Hour))
	net.engine.Run(grace)
	if got := net.requestsFrom(1); got != 1 {
		t.Fatalf("REQUEST floods before the watchdog deadline = %d, want 1", got)
	}
	if counter.completed[testUUID] != 1 {
		t.Fatalf("first execution did not complete: %d", counter.completed[testUUID])
	}

	// Within one retry slack past the deadline the initiator must have
	// resubmitted (the completion NOTIFY was dropped, so the job looks
	// lost to it).
	net.engine.Run(grace + 2*cfg.AcceptTimeout + cfg.RetryBackoff + time.Minute)
	if got := net.requestsFrom(1); got < 2 {
		t.Fatalf("initiator did not resubmit within the watchdog bound: %d floods", got)
	}

	// The re-assignment lands back on the only capable node — which
	// already completed the job and still holds the unacked completion
	// NOTIFY. It must refuse to run it again: exactly one execution even
	// though the initiator can never hear the completion.
	net.engine.Run(grace + 2*time.Hour)
	if counter.completed[testUUID] != 1 {
		t.Fatalf("completions = %d, want exactly 1 despite resubmission", counter.completed[testUUID])
	}
}

// TestCompletionNotifyRetryPreventsResubmit drops the first completion
// NOTIFY only: the assignee's ack-driven resend loop must deliver it on a
// retry, silencing the initiator's watchdog before it duplicates the job.
func TestCompletionNotifyRetryPreventsResubmit(t *testing.T) {
	net := newLossyNet(11)
	counter := newDeliveryCounter()

	cfg := ackConfig()
	cfg.NotifyInitiator = true

	initiator := net.addNode(t, 1, smallProfile(), cfg, counter)
	assignee := net.addNode(t, 2, bigProfile(), cfg, counter)
	net.connect(1, 2)

	dropped := 0
	net.drop = func(_, _ overlay.NodeID, m Message) bool {
		if m.Type == MsgNotify && m.Notify == NotifyCompleted && dropped == 0 {
			dropped++
			return true
		}
		return false
	}

	if err := initiator.Submit(bigJob(testUUID)); err != nil {
		t.Fatal(err)
	}

	// Run far past the watchdog bound: the resent NOTIFY (first retry one
	// AssignAckTimeout after completion) must have closed the tracking
	// long before the watchdog could fire.
	grace := time.Duration(cfg.WatchdogGrace * float64(time.Hour))
	net.engine.Run(2*grace + 4*time.Hour)

	if dropped != 1 {
		t.Fatalf("fault never injected: %d drops", dropped)
	}
	if got := net.requestsFrom(1); got != 1 {
		t.Fatalf("initiator resubmitted despite the retried NOTIFY: %d floods", got)
	}
	if counter.completed[testUUID] != 1 {
		t.Fatalf("completions = %d, want exactly 1", counter.completed[testUUID])
	}
	if counter.failed != 0 {
		t.Fatalf("job declared failed: %d", counter.failed)
	}
	// The ack closed the resend loop on the assignee.
	if open := assignee.openResends(resendNotify); open != 0 {
		t.Fatalf("resend loop still open: %d pending notifies", open)
	}
}

// TestUntrackedCompletionNotifyAcked: an initiator with no tracking state
// for the job (watchdog gave up, or a wiped restart) must still ack, or the
// assignee would resend forever.
func TestUntrackedCompletionNotifyAcked(t *testing.T) {
	net := newLossyNet(3)
	cfg := ackConfig()
	cfg.NotifyInitiator = true
	n1 := net.addNode(t, 1, smallProfile(), cfg, newDeliveryCounter())
	net.addNode(t, 2, bigProfile(), cfg, newDeliveryCounter())
	net.connect(1, 2)

	n1.HandleMessage(Message{Type: MsgNotify, From: 2, Job: bigJob(testUUID), Notify: NotifyCompleted, Span: 9})

	acks := 0
	for _, s := range net.sent {
		if s.from == 1 && s.to == 2 && s.msg.Type == MsgNotify && s.msg.Notify == NotifyAck {
			acks++
		}
	}
	if acks != 1 {
		t.Fatalf("untracked completion notify acked %d times, want 1", acks)
	}
}

func TestNextSeqMonotonic(t *testing.T) {
	n, _ := newTestNode(t, watchdogConfig())
	n.mu.Lock()
	defer n.mu.Unlock()
	a, b, c := n.nextSeq(), n.nextSeq(), n.nextSeq()
	if !(a < b && b < c) {
		t.Fatalf("sequence not monotonic: %d %d %d", a, b, c)
	}
}

// TestWatchdogDefersWhileAssignHandshakeOpen pins the stand-down rule for
// an un-acked ASSIGN: while the retransmission loop still owns the job —
// it will either land the ack or exhaust into its own loss-safe fallback —
// a firing watchdog must defer, not race it with a parallel resubmission
// flood. A live soak caught exactly that race minting a duplicate: the
// ASSIGN was delayed in flight, the watchdog re-flooded 1.5s after the
// first unanswered retry, and both copies ran.
func TestWatchdogDefersWhileAssignHandshakeOpen(t *testing.T) {
	n, _ := newTestNode(t, watchdogConfig())
	n.alive = true
	p := job.Profile{
		UUID: "0123456789abcdef0123456789abcdef",
		Req: resource.Requirements{
			Arch: resource.ArchAMD64, OS: resource.OSLinux, MinMemoryGB: 1, MinDiskGB: 1,
		},
		ERT:   time.Hour,
		Class: job.ClassBatch,
	}
	tj := &trackedJob{profile: p, assignee: 2}
	n.tracked[p.UUID] = tj
	n.outbox[resendKey{p.UUID, resendAssign}] = &resend{kind: resendAssign, profile: p, peer: 2}

	for i := 1; i <= watchdogMaxDefers; i++ {
		n.watchdogFire(p.UUID)
		if tj.defers != i || tj.resub != 0 {
			t.Fatalf("fire %d with open handshake: defers=%d resub=%d", i, tj.defers, tj.resub)
		}
	}
	// The deferral budget is bounded: with it spent, even an open
	// handshake no longer holds the failsafe back.
	n.watchdogFire(p.UUID)
	if tj.resub != 1 {
		t.Fatalf("budget spent but no resubmission: resub=%d", tj.resub)
	}

	// Fresh tracking with the handshake closed (acked and gone):
	// the first firing resubmits immediately, as before.
	tj2 := &trackedJob{profile: p, assignee: 2}
	n.tracked[p.UUID] = tj2
	delete(n.outbox, resendKey{p.UUID, resendAssign})
	n.watchdogFire(p.UUID)
	if tj2.defers != 0 || tj2.resub != 1 {
		t.Fatalf("closed handshake must not defer: defers=%d resub=%d", tj2.defers, tj2.resub)
	}
}
