package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/directory"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/resource"
	"github.com/smartgrid/aria/internal/sched"
)

// These tests pin the seams of a discovery round — how it is granted,
// abandoned, killed and counted — at each stage (flood, directed probe,
// optimistic commit), on a recording environment.

// roundLog records trace spans and the discovery-round observer calls.
type roundLog struct {
	commitLog
	granted   []overlay.NodeID // CommitGranted targets
	conflicts int              // CommitConflict calls
	failed    int              // JobFailed calls
	rejected  []int            // SubmitRejected in-flight counts
}

func newRoundLog() *roundLog {
	return &roundLog{commitLog: commitLog{evicted: make(map[overlay.NodeID]string)}}
}

func (l *roundLog) CommitGranted(_ time.Duration, _ overlay.NodeID, _ job.UUID, target overlay.NodeID, _ int) {
	l.granted = append(l.granted, target)
}

func (l *roundLog) CommitConflict(time.Duration, overlay.NodeID, job.UUID, overlay.NodeID, string, int) {
	l.conflicts++
}

func (l *roundLog) JobFailed(time.Duration, overlay.NodeID, job.UUID, string) { l.failed++ }

func (l *roundLog) SubmitRejected(_ time.Duration, _ overlay.NodeID, _ job.UUID, pending int) {
	l.rejected = append(l.rejected, pending)
}

// commitInitiator builds initiator node 1 on net with the shared-state arm
// armed and big providers 2..last whose digests it has cached. The
// initiator is not started, so the seeded view is all it knows.
func commitInitiator(t *testing.T, net *lossyNet, cfg Config, last overlay.NodeID, log Observer) *Node {
	t.Helper()
	n, err := NewNode(1, smallProfile(), sched.FCFS, &lossyEnv{net: net, id: 1}, cfg, log, job.ARTModel{Mode: job.DriftNone})
	if err != nil {
		t.Fatal(err)
	}
	net.nodes[1] = n
	for id := overlay.NodeID(2); id <= last; id++ {
		net.addNode(t, id, bigProfile(), cfg, newDeliveryCounter())
		n.dir.Learn(directory.Digest{Node: id, Profile: bigProfile()}, 0)
	}
	return n
}

// sentTo lists the transmissions of one type from one node to another.
func (ln *lossyNet) sentTo(from, to overlay.NodeID, typ MsgType) []Message {
	var out []Message
	for _, s := range ln.sent {
		if s.from == from && s.to == to && s.msg.Type == typ {
			out = append(out, s.msg)
		}
	}
	return out
}

// inflight reads the view's reservation count against a provider.
func (n *Node) inflight(provider overlay.NodeID) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.view.Inflight(provider)
}

// trackedAssignee reports the assignee the initiator's failsafe tracks.
func (n *Node) trackedAssignee(uuid job.UUID) (overlay.NodeID, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	t, ok := n.tracked[uuid]
	if !ok {
		return 0, false
	}
	return t.assignee, t.watchdog != nil
}

// TestCommitGrant drives the two ways a commit round is granted: by the
// provider's ASSIGN_ACK, and by the provider's NOTIFY(queued) when it
// outruns a lost or late ack. Either grants exactly once, releases the
// view's reservation, cancels the commit timeout and hands the job to the
// failsafe; a late ack after a NOTIFY grant changes nothing.
func TestCommitGrant(t *testing.T) {
	for _, tc := range []struct {
		name string
		lost func(m Message) bool // which reply to the initiator is lost
	}{
		{"assign-ack", func(m Message) bool { return m.Type == MsgNotify && m.Notify == NotifyQueued }},
		{"notify-queued", func(m Message) bool { return m.Type == MsgAssignAck }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := newLossyNet(43)
			cfg := sharedStateConfig()
			cfg.InformJobs = 0
			cfg.NotifyInitiator = true
			log := newRoundLog()
			initiator := commitInitiator(t, net, cfg, 2, log)
			net.drop = func(_, to overlay.NodeID, m Message) bool { return to == 1 && tc.lost(m) }

			p := bigJob(testUUID)
			if err := initiator.Submit(p); err != nil {
				t.Fatal(err)
			}
			net.engine.Run(3 * cfg.CommitTimeout)
			if acks := net.sentTo(2, 1, MsgAssignAck); len(acks) == 1 {
				// The lost ack turns up late: the round is closed already.
				initiator.HandleMessage(acks[0])
			}

			if len(log.granted) != 1 || log.granted[0] != 2 {
				t.Fatalf("granted = %v, want one grant by node 2", log.granted)
			}
			if got := initiator.inflight(2); got != 0 {
				t.Errorf("view holds %d reservations on node 2 after the grant, want 0", got)
			}
			if n := len(log.kind(SpanCommit)); n != 1 || len(log.kind(SpanConflict)) != 0 || len(log.kind(SpanFloodOrigin)) != 0 {
				t.Errorf("%d commits, %d conflict verdicts, %d floods; want 1, 0, 0",
					n, len(log.kind(SpanConflict)), len(log.kind(SpanFloodOrigin)))
			}
			if a, armed := initiator.trackedAssignee(p.UUID); a != 2 || !armed {
				t.Errorf("failsafe tracks assignee %d (watchdog armed %v), want node 2 armed", a, armed)
			}
		})
	}
}

// TestLateConflictAfterCommitTimeoutIgnored: a commit timeout resolves the
// attempt unilaterally, so a CONFLICT from the silent provider that turns
// up afterwards must not fail the attempt a second time.
func TestLateConflictAfterCommitTimeoutIgnored(t *testing.T) {
	net := newLossyNet(47)
	cfg := sharedStateConfig()
	cfg.InformJobs = 0
	cfg.SharedStateRetries = 2
	log := newRoundLog()
	initiator := commitInitiator(t, net, cfg, 3, log)
	net.drop = func(_, to overlay.NodeID, m Message) bool {
		return to == 1 && (m.Type == MsgAssignAck || m.Type == MsgConflict)
	}

	p := bigJob(testUUID)
	if err := initiator.Submit(p); err != nil {
		t.Fatal(err)
	}
	net.engine.Run(cfg.CommitTimeout + time.Millisecond)
	if log.conflicts != 1 {
		t.Fatalf("%d failed attempts after the commit timeout, want 1", log.conflicts)
	}
	first := log.kind(SpanCommit)[0].Peer
	initiator.HandleMessage(Message{Type: MsgConflict, From: first, Job: p, Conflict: ConflictBusy})
	net.engine.Run(cfg.CommitTimeout + backoff(cfg.CommitBackoff, 0) + 100*time.Millisecond)

	if log.conflicts != 1 {
		t.Errorf("%d failed attempts, want 1: the late CONFLICT failed the timed-out attempt again", log.conflicts)
	}
	commits := log.kind(SpanCommit)
	if len(commits) != 2 || commits[1].Peer == first || commits[1].Attempt != 2 {
		t.Fatalf("commits = %+v, want one retry (attempt 2) to another provider", commits)
	}
	if got := initiator.inflight(first); got != 0 {
		t.Errorf("view holds %d reservations on the timed-out provider, want 0", got)
	}
}

// TestCompletionClosesCommitRound: a completion NOTIFY for a job whose
// commit round is open abandons the round — a CANCEL chases the possibly
// granted copy, the reservation is released, and the provider's grant,
// arriving afterwards, places nothing.
func TestCompletionClosesCommitRound(t *testing.T) {
	net := newLossyNet(53)
	cfg := sharedStateConfig()
	cfg.InformJobs = 0
	log := newRoundLog()
	initiator := commitInitiator(t, net, cfg, 2, log)

	p := bigJob(testUUID)
	if err := initiator.Submit(p); err != nil {
		t.Fatal(err)
	}
	if got := initiator.inflight(2); got != 1 {
		t.Fatalf("view holds %d reservations on the commit target, want 1", got)
	}
	// An earlier copy of the job completed at node 9.
	initiator.HandleMessage(Message{Type: MsgNotify, From: 9, Job: p, Notify: NotifyCompleted})
	net.engine.Run(3 * cfg.CommitTimeout)

	commit := log.kind(SpanCommit)[0]
	cancels := log.kind(SpanCancel)
	if len(cancels) != 1 || cancels[0].Node != 1 || cancels[0].Parent != commit.Span || cancels[0].Peer != 2 {
		t.Fatalf("cancels = %+v, want one from the initiator to node 2 under commit %#x", cancels, commit.Span)
	}
	if n := len(net.sentTo(1, 2, MsgCancel)); n != 1 {
		t.Errorf("%d CANCELs sent to the commit target, want 1", n)
	}
	if n := len(net.sentTo(1, 9, MsgNotify)); n != 1 {
		t.Errorf("%d NOTIFY acks to the completing node, want 1", n)
	}
	if got := initiator.inflight(2); got != 0 {
		t.Errorf("view holds %d reservations after the completion, want 0", got)
	}
	if len(log.granted) != 0 || len(log.kind(SpanConflict)) != 0 || len(log.kind(SpanCommit)) != 1 {
		t.Errorf("granted %v, %d timeout verdicts, %d commits after the round closed; want none, 0, 1",
			log.granted, len(log.kind(SpanConflict)), len(log.kind(SpanCommit)))
	}
	if _, tracked := initiator.trackedAssignee(p.UUID); tracked {
		t.Error("initiator tracks the completed job")
	}
	if !net.nodes[2].Idle() {
		t.Error("the commit target still holds the completed job")
	}
}

// TestCopyResurfacesDuringReplacementRound: the watchdog has resubmitted a
// job, and before the replacement round places a second copy, the original
// copy turns up — as a NOTIFY(queued) from its assignee, or as a
// crash-recovered copy asking to be confirmed. At either stage the
// replacement round is abandoned (a commit round chasing its target with a
// CANCEL), the original copy is kept and the failsafe tracks it again.
func TestCopyResurfacesDuringReplacementRound(t *testing.T) {
	const original = overlay.NodeID(7)
	for _, tc := range []struct {
		name   string
		commit bool
		notify NotifyKind
	}{
		{"flood/queued", false, NotifyQueued},
		{"flood/resurfaced", false, NotifyResurfaced},
		{"commit/queued", true, NotifyQueued},
		{"commit/resurfaced", true, NotifyResurfaced},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := newLossyNet(59)
			cfg := watchdogConfig()
			if tc.commit {
				cfg = sharedStateConfig()
				cfg.InformJobs = 0
				cfg.NotifyInitiator = true
			}
			log := newRoundLog()
			var initiator *Node
			if tc.commit {
				initiator = commitInitiator(t, net, cfg, 2, log)
			} else {
				var err error
				initiator, err = NewNode(1, smallProfile(), sched.FCFS, &lossyEnv{net: net, id: 1}, cfg, log, job.ARTModel{Mode: job.DriftNone})
				if err != nil {
					t.Fatal(err)
				}
				net.nodes[1] = initiator
			}
			p := bigJob(testUUID)
			initiator.mu.Lock()
			initiator.tracked[p.UUID] = &trackedJob{profile: p, assignee: original}
			initiator.mu.Unlock()
			initiator.watchdogFire(p.UUID)
			if len(log.kind(SpanResubmit)) != 1 {
				t.Fatal("the watchdog did not resubmit")
			}
			stage := SpanFloodOrigin
			if tc.commit {
				stage = SpanCommit
			}
			if len(log.kind(stage)) != 1 {
				t.Fatalf("the replacement round did not open at the %v stage", stage)
			}

			initiator.HandleMessage(Message{Type: MsgNotify, From: original, Job: p, Notify: tc.notify})
			net.engine.Run(cfg.AcceptTimeout + cfg.RetryBackoff + 3*cfg.CommitTimeout)

			if a, armed := initiator.trackedAssignee(p.UUID); a != original || !armed {
				t.Errorf("failsafe tracks assignee %d (watchdog armed %v), want the original %d armed", a, armed, original)
			}
			if n := len(log.kind(SpanFloodOrigin)) + len(log.kind(SpanCommit)) + len(log.kind(SpanAssign)); n != 1 || log.failed != 0 {
				t.Errorf("the replacement round went on: %d rounds and assignments, %d failures; want 1, 0", n, log.failed)
			}
			confirms := 0
			for _, m := range net.sentTo(1, original, MsgNotify) {
				if m.Notify == NotifyConfirm {
					confirms++
				}
			}
			want := 0
			if tc.notify == NotifyResurfaced {
				want = 1 // the resurfaced copy is confirmed
			}
			if confirms != want {
				t.Errorf("%d confirmations to the original assignee, want %d", confirms, want)
			}
			if !tc.commit {
				return
			}
			commit := log.kind(SpanCommit)[0]
			cancels := log.kind(SpanCancel)
			if len(cancels) == 0 || cancels[0].Parent != commit.Span || cancels[0].Peer != 2 {
				t.Errorf("cancels = %+v, want the first to chase commit %#x at node 2", cancels, commit.Span)
			}
			if got := initiator.inflight(2); got != 0 {
				t.Errorf("view holds %d reservations on the abandoned target, want 0", got)
			}
			if len(log.granted) != 0 {
				t.Errorf("granted %v after the round was abandoned", log.granted)
			}
			if !net.nodes[2].Idle() {
				t.Error("the abandoned commit target still holds a copy")
			}
		})
	}
}

// stagedInitiator is a node whose view sends each of three jobs to a
// different discovery stage: stagedJob(128) matches nothing cached and
// floods, stagedJob(48) matches only saturated providers 2 and 3 and goes
// to a directed round, and stagedJob(16) commits to idle provider 4.
func stagedInitiator(t *testing.T, cfg Config, log Observer) *Node {
	t.Helper()
	cfg.DirectedCandidates = 2
	cfg.MinDirectedOffers = 1
	n, err := NewNode(1, smallProfile(), sched.FCFS, &fakeEnv{rng: rand.New(rand.NewSource(1))}, cfg, log, job.DefaultARTModel())
	if err != nil {
		t.Fatal(err)
	}
	huge := resource.Profile{Arch: resource.ArchAMD64, OS: resource.OSLinux, MemoryGB: 64, DiskGB: 64, PerfIndex: 1}
	n.dir.Learn(directory.Digest{Node: 2, Profile: huge, Load: cfg.SharedStateBound}, 0)
	n.dir.Learn(directory.Digest{Node: 3, Profile: huge, Load: cfg.SharedStateBound}, 0)
	n.dir.Learn(directory.Digest{Node: 4, Profile: bigProfile()}, 0)
	return n
}

// stagedJob is a job numbered seq that needs memGB of memory.
func stagedJob(memGB, seq int) job.Profile {
	p := bigJob(job.UUID(fmt.Sprintf("%032x", seq+1)))
	p.Req.MinMemoryGB = memGB
	return p
}

// TestKillLosesEveryOpenRound: a crash emits exactly one lost span for
// each open discovery round, whatever its stage, parented to the round's
// own span.
func TestKillLosesEveryOpenRound(t *testing.T) {
	log := newRoundLog()
	n := stagedInitiator(t, sharedStateConfig(), log)
	for i, mem := range []int{128, 48, 16} {
		if err := n.Submit(stagedJob(mem, i)); err != nil {
			t.Fatal(err)
		}
	}
	flood, probe, commit := log.kind(SpanFloodOrigin), log.kind(SpanDirectedProbe), log.kind(SpanCommit)
	if len(flood) != 1 || len(probe) != 1 || len(commit) != 1 {
		t.Fatalf("%d floods, %d directed probes, %d commits; want one of each", len(flood), len(probe), len(commit))
	}
	n.Kill()
	want := map[uint64]overlay.NodeID{flood[0].Span: 0, probe[0].Span: 0, commit[0].Span: 4}
	lost := log.kind(SpanLost)
	if len(lost) != len(want) {
		t.Fatalf("%d lost spans, want %d: %+v", len(lost), len(want), lost)
	}
	for _, ev := range lost {
		peer, ok := want[ev.Parent]
		if !ok || ev.Peer != peer {
			t.Errorf("lost span %+v parents no open round (or names the wrong peer)", ev)
		}
		delete(want, ev.Parent)
	}
}

// TestMaxPendingSubmitsCountsEveryStage: admission control counts every
// open discovery round, commit rounds included.
func TestMaxPendingSubmitsCountsEveryStage(t *testing.T) {
	cfg := sharedStateConfig()
	cfg.MaxPendingSubmits = 2
	log := newRoundLog()
	n := stagedInitiator(t, cfg, log)
	for i, mem := range []int{16, 128} {
		if err := n.Submit(stagedJob(mem, i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(log.kind(SpanCommit)) != 1 {
		t.Fatal("the first job did not open a commit round")
	}
	err := n.Submit(stagedJob(48, 2))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third submit: %v, want ErrOverloaded", err)
	}
	if len(log.rejected) != 1 || log.rejected[0] != 2 {
		t.Errorf("rejections = %v, want one at 2 rounds in flight", log.rejected)
	}
}
