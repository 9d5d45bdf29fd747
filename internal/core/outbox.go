package core

import (
	"sort"
	"time"

	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/wal"
)

// resendKind names what an outbox entry waits for. Each kind is a message
// this node resends with backoff until its peer answers:
//
//   - resendAssign: an ASSIGN awaiting its ASSIGN_ACK (AssignAck
//     extension). Capped at AssignMaxRetries; exhaustion runs the
//     loss-safe fallback.
//   - resendNotify: a completion NOTIFY awaiting the initiator's ack
//     (NotifyInitiator extension). Uncapped: giving up early would leave
//     the initiator's watchdog to rerun a job whose completion was already
//     observable (an amnesiac initiator acks unknown jobs too).
//   - resendFenced: a crash-recovered copy of a delegated job, fenced until
//     the initiator answers the resurfaced query. CONFIRM (or a
//     retransmitted ASSIGN) releases the copy into the queue, CANCEL drops
//     it. Uncapped: an unreachable initiator delays the copy, never
//     duplicates it.
//
// A confirmed-dead peer ends every kind at once: the ASSIGN falls back, the
// NOTIFY closes (whoever takes the job over next re-asks), and the fenced
// copy is released — a dead initiator's watchdog died with it, so no
// replacement can race the execution, while holding on would lose the job.
type resendKind uint8

const (
	resendAssign resendKind = iota
	resendNotify
	resendFenced
)

// resendKey keys the outbox: one entry per job and kind.
type resendKey struct {
	uuid job.UUID
	kind resendKind
}

// resend is one outbox entry.
type resend struct {
	kind    resendKind
	profile job.Profile
	// peer receives the resends: the assignee of an ASSIGN, the initiator
	// otherwise.
	peer overlay.NodeID
	// initiator and reschedule belong to an ASSIGN. initiator is the From
	// it carries: this node for a first assignment, the original initiator
	// for a rescheduling handoff. reschedule marks the handoff, whose
	// fallback re-enqueues the job locally instead of rediscovering it.
	initiator  overlay.NodeID
	reschedule bool
	// span rides every resend, and the entry's outcome parents to it: the
	// assignment, completion or recovery span.
	span     uint64
	attempts int
	timer    Cancel
}

func (r *resend) key() resendKey { return resendKey{r.profile.UUID, r.kind} }

// message is the message r resends. An ASSIGN's Via carries the actual
// sender so the assignee can address the ack (From is the initiator).
func (r *resend) message(self overlay.NodeID) Message {
	switch r.kind {
	case resendAssign:
		return Message{Type: MsgAssign, From: r.initiator, Job: r.profile, Via: self, Span: r.span}
	case resendNotify:
		return Message{Type: MsgNotify, From: self, Job: r.profile, Notify: NotifyCompleted, Span: r.span}
	default:
		return Message{Type: MsgNotify, From: self, Job: r.profile, Notify: NotifyResurfaced, Span: r.span}
	}
}

// ackFlatHead is how many resends of the NOTIFY kinds go out at the flat
// AssignAckTimeout before the backoff starts doubling. The flat head is
// load-bearing for exactly-one execution: a transient one-way outage
// swallows the early sends, and the signal must land within one timeout of
// the heal, before the initiator's watchdog places a replacement copy.
// ASSIGNs double from the first retry.
const ackFlatHead = 3

// backoff is base doubled shift times, the shift clamped to [0, 6].
func backoff(base time.Duration, shift int) time.Duration {
	return base << uint(min(max(shift, 0), 6))
}

// openResend enters r in the outbox, replacing any entry under its key,
// journals it, sends the first copy and arms the resend timer. The entry
// goes in before its record, so a compaction the append triggers
// snapshots it. Caller holds the lock.
func (n *Node) openResend(r *resend) {
	if prev, ok := n.outbox[r.key()]; ok && prev.timer != nil {
		prev.timer()
	}
	n.outbox[r.key()] = r
	n.journalResend(r)
	n.env.Send(r.peer, r.message(n.id))
	n.armResend(r)
}

// journalResend records an open entry (and every ASSIGN retransmission,
// with its attempt count). A fenced copy has no record of its own: durably
// it is the enqueued job that Recover fences again. Caller holds the lock.
func (n *Node) journalResend(r *resend) {
	switch r.kind {
	case resendAssign:
		n.jlog(wal.Record{Type: wal.RecAssignSent, UUID: r.profile.UUID, Profile: &r.profile, Peer: r.peer, Init: r.initiator, Reschedule: r.reschedule, Attempts: r.attempts, Span: r.span})
	case resendNotify:
		n.jlog(wal.Record{Type: wal.RecNotifySent, UUID: r.profile.UUID, Profile: &r.profile, Peer: r.peer, Span: r.span})
	}
}

// armResend schedules r's next resend. Caller holds the lock.
func (n *Node) armResend(r *resend) {
	shift := r.attempts
	if r.kind != resendAssign {
		shift -= ackFlatHead
	}
	key := r.key()
	r.timer = n.env.Schedule(backoff(n.cfg.AssignAckTimeout, shift), func() { n.resendFire(key) })
}

// resendFire resends an unanswered entry, or gives it up once its peer is
// confirmed dead or an ASSIGN's retries are spent. Only ASSIGN attempts are
// journaled, traced and observed; the NOTIFY kinds resend silently, since
// their receivers are idempotent.
func (n *Node) resendFire(key resendKey) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return
	}
	r, ok := n.outbox[key]
	if !ok {
		return
	}
	if n.peerDead(r.peer) || (key.kind == resendAssign && r.attempts >= n.cfg.AssignMaxRetries) {
		switch key.kind {
		case resendAssign:
			n.closeResend(key.uuid, key.kind)
			n.assignFallback(r)
		case resendNotify:
			n.closeResend(key.uuid, key.kind)
		case resendFenced:
			n.releaseFenced(key.uuid)
		}
		return
	}
	r.attempts++
	if key.kind == resendAssign {
		n.obs.AssignRetried(n.env.Now(), n.id, key.uuid, r.attempts)
		n.journalResend(r)
		n.emitSpan(TraceEvent{Kind: SpanRetry, UUID: key.uuid, Parent: r.span, Peer: r.peer, Attempt: r.attempts})
	}
	n.env.Send(r.peer, r.message(n.id))
	n.armResend(r)
}

// closeResend ends the entry under (uuid, kind) and returns it, or nil
// when there is none: it cancels the timer, drops the entry and journals
// the close — the handshake closed, or the completion acked. A fenced
// copy's fate is journaled by the caller that decides it. Caller holds the
// lock.
func (n *Node) closeResend(uuid job.UUID, kind resendKind) *resend {
	key := resendKey{uuid, kind}
	r, ok := n.outbox[key]
	if !ok {
		return nil
	}
	if r.timer != nil {
		r.timer()
	}
	delete(n.outbox, key)
	switch kind {
	case resendAssign:
		n.jlog(wal.Record{Type: wal.RecAssignClosed, UUID: uuid})
	case resendNotify:
		n.jlog(wal.Record{Type: wal.RecNotifyAck, UUID: uuid})
	}
	return r
}

// releaseFenced moves a fenced recovered copy into the run queue: the
// initiator confirmed it (explicitly, implicitly via a retransmitted
// ASSIGN, or by being confirmed dead). A no-op when nothing is fenced for
// the job. Caller holds the lock.
func (n *Node) releaseFenced(uuid job.UUID) {
	h := n.closeResend(uuid, resendFenced)
	if h == nil {
		return
	}
	n.initiators[uuid] = h.peer
	n.queue.Enqueue(job.New(h.profile), n.env.Now())
	if n.tobs != nil {
		n.enqSpans[uuid] = h.span
	}
	n.maybeStart()
	n.wakeInform()
}

// absorbRedelivery answers an ASSIGN or COMMIT for a job this node already
// holds — queued, running, fenced, or completed with its NOTIFY unacked —
// reporting whether it did. Such a delivery is a retransmission whose ack
// was lost, or a failsafe resubmission that re-chose this node: it is
// re-acknowledged (to ackTo, when ack is set) and traced as a duplicate so
// the sender's span keeps an observable consequence, and it never runs the
// job again. A completed job's NOTIFY is pushed again instead; a fenced copy
// takes the redelivery as the initiator's confirmation and is released.
// Caller holds the lock.
func (n *Node) absorbRedelivery(m Message, ackTo overlay.NodeID, ack bool) bool {
	uuid := m.Job.UUID
	pn, done := n.outbox[resendKey{uuid, resendNotify}]
	_, fenced := n.outbox[resendKey{uuid, resendFenced}]
	_, queued := n.queue.Get(uuid)
	if !done && !fenced && !queued && (n.running == nil || n.running.UUID != uuid) {
		return false
	}
	if ack {
		n.env.Send(ackTo, Message{Type: MsgAssignAck, From: n.id, Job: m.Job, Span: m.Span})
	}
	n.emitSpan(TraceEvent{Kind: SpanDuplicate, UUID: uuid, Parent: m.Span, Peer: m.From, Msg: m.Type})
	switch {
	case done:
		n.env.Send(pn.peer, pn.message(n.id))
	case fenced:
		n.releaseFenced(uuid)
	}
	return true
}

// sortedResends lists the outbox in (UUID, kind) order, so the walks over
// it (crash, snapshot) are deterministic. Caller holds the lock.
func (n *Node) sortedResends() []*resend {
	out := make([]*resend, 0, len(n.outbox))
	for _, r := range n.outbox {
		out = append(out, r)
	}
	sort.Slice(out, func(i, k int) bool {
		a, b := out[i].key(), out[k].key()
		return a.uuid < b.uuid || (a.uuid == b.uuid && a.kind < b.kind)
	})
	return out
}
