package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/sched"
	"github.com/smartgrid/aria/internal/wal"
)

// restart replaces a killed node with a fresh one on the same address that
// replays the given journal, exactly as the simulated cluster's restart
// does.
func (ln *lossyNet) restart(t *testing.T, id overlay.NodeID, cfg Config, j *wal.Journal) *Node {
	t.Helper()
	old := ln.nodes[id]
	n, err := NewNode(id, old.Profile(), sched.FCFS, &lossyEnv{net: ln, id: id}, cfg, newDeliveryCounter(), job.ARTModel{Mode: job.DriftNone})
	if err != nil {
		t.Fatal(err)
	}
	n.AttachJournal(j)
	if _, err := n.Recover(); err != nil {
		t.Fatal(err)
	}
	ln.nodes[id] = n
	n.Start()
	return n
}

// completionNotifiesSince counts completion NOTIFYs the given node sent
// from transmission index mark on.
func (ln *lossyNet) completionNotifiesSince(mark int, from overlay.NodeID) int {
	count := 0
	for _, s := range ln.sent[mark:] {
		if s.from == from && s.msg.Type == MsgNotify && s.msg.Notify == NotifyCompleted {
			count++
		}
	}
	return count
}

// TestCheckpointKeepsPendingCompletionNotify pins that an unacked
// completion NOTIFY is durable state: a checkpoint must carry it, and so
// must the compaction that ends every recovery — otherwise a second crash
// forgets the NOTIFY and the initiator's watchdog reruns a job whose
// completion was already observable.
func TestCheckpointKeepsPendingCompletionNotify(t *testing.T) {
	// Cadence 1 compacts on every append, the completion's own included.
	for _, every := range []int{wal.DefaultSnapshotEvery, 1} {
		t.Run(fmt.Sprintf("snapshot-every-%d", every), func(t *testing.T) {
			checkpointKeepsPendingCompletionNotify(t, every)
		})
	}
}

func checkpointKeepsPendingCompletionNotify(t *testing.T, snapshotEvery int) {
	net := newLossyNet(21)
	cfg := ackConfig()
	cfg.NotifyInitiator = true
	initiator := net.addNode(t, 1, smallProfile(), cfg, newDeliveryCounter())
	assignee := net.addNode(t, 2, bigProfile(), cfg, newDeliveryCounter())
	net.connect(1, 2)
	j := wal.New(&wal.MemStore{}, wal.Options{SnapshotEvery: snapshotEvery})
	assignee.AttachJournal(j)

	// The initiator never hears the completion: the NOTIFY stays open.
	silenced := true
	net.drop = func(_, _ overlay.NodeID, m Message) bool {
		return silenced && m.Type == MsgNotify && m.Notify == NotifyCompleted
	}
	if err := initiator.Submit(bigJob(testUUID)); err != nil {
		t.Fatal(err)
	}
	net.engine.Run(time.Hour + time.Minute)
	if open := assignee.openResends(resendNotify); open != 1 {
		t.Fatalf("staging failed: %d open completion notifies, want 1", open)
	}
	pending := func() int {
		snap, recs, _, err := j.Load()
		if err != nil {
			t.Fatal(err)
		}
		return len(wal.Replay(snap, recs).PendingNotify)
	}
	if got := pending(); got != 1 {
		t.Fatalf("journal holds %d pending completion notifies, want 1", got)
	}

	if err := assignee.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := pending(); got != 1 {
		t.Fatalf("checkpoint kept %d pending completion notifies, want 1", got)
	}

	// Crash, recover (its compaction is a checkpoint too), crash again:
	// the second recovery must still resend the NOTIFY.
	assignee.Kill()
	net.restart(t, 2, cfg, j)
	net.engine.Run(net.engine.Now() + time.Minute)
	if got := pending(); got != 1 {
		t.Fatalf("recovery compaction kept %d pending completion notifies, want 1", got)
	}
	net.nodes[2].Kill()
	mark := len(net.sent)
	net.restart(t, 2, cfg, j)
	if got := net.completionNotifiesSince(mark, 2); got != 1 {
		t.Fatalf("second recovery resent %d completion notifies, want 1", got)
	}

	// Healed, the resend lands and the ack closes the loop durably.
	silenced = false
	net.engine.Run(net.engine.Now() + time.Minute)
	if got := pending(); got != 0 {
		t.Fatalf("acked completion notify still journaled: %d pending", got)
	}
	if got := net.requestsFrom(1); got != 1 {
		t.Fatalf("initiator resubmitted the completed job: %d floods", got)
	}
}

// openResends counts the node's outbox entries of one kind.
func (n *Node) openResends(kind resendKind) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	count := 0
	for key := range n.outbox {
		if key.kind == kind {
			count++
		}
	}
	return count
}

// spanLog records the trace events a node emits.
type spanLog struct {
	NopObserver
	spans []TraceEvent
}

func (l *spanLog) TraceSpan(ev TraceEvent) { l.spans = append(l.spans, ev) }

// TestKillLosesOpenAssignsInOrder pins the crash's SpanLost order for open
// ASSIGN handshakes: a node that dies with several unacked ASSIGNs must
// abandon them in one order, run after run, or the simulator's trace (and
// every digest over it) depends on map iteration.
func TestKillLosesOpenAssignsInOrder(t *testing.T) {
	var want []uint64
	for run := 0; run < 30; run++ {
		log := &spanLog{}
		n, err := NewNode(1, smallProfile(), sched.FCFS, &fakeEnv{rng: rand.New(rand.NewSource(1))}, ackConfig(), log, job.DefaultARTModel())
		if err != nil {
			t.Fatal(err)
		}
		n.mu.Lock()
		for i := 0; i < 6; i++ {
			p := bigJob(job.UUID(fmt.Sprintf("%032x", i+1)))
			n.sendAssign(overlay.NodeID(10+i), p, n.id, false, n.emitSpan(TraceEvent{Kind: SpanAssign, UUID: p.UUID}))
		}
		n.mu.Unlock()
		n.Kill()
		var got []uint64
		for _, ev := range log.spans {
			if ev.Kind == SpanLost {
				got = append(got, ev.Parent)
			}
		}
		if len(got) != 6 {
			t.Fatalf("run %d: %d lost spans, want 6", run, len(got))
		}
		if want == nil {
			want = got
			continue
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("run %d lost the handshakes in order %v, run 0 in %v", run, got, want)
		}
	}
}
