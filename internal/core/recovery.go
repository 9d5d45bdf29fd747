package core

import (
	"fmt"
	"sort"
	"time"

	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/wal"
)

// Counter slack applied on recovery: spans and flood sequence numbers issued
// after the last journal append are not recorded, so a recovered node must
// skip past the journaled maxima by a safety margin — a reused flood key
// would be silently suppressed by every peer's dedup table, and a reused
// span ID would corrupt the causal tree.
const (
	recoverSeqSlack  = 64
	recoverSpanSlack = 4096
)

// RecoveryStats summarizes one journal recovery.
type RecoveryStats struct {
	// JobsRecovered counts distinct job-state entries restored: queued
	// jobs (including an interrupted running job, which re-enters the
	// queue), re-armed initiator watchdogs, re-opened ASSIGN handshakes
	// and re-sent completion NOTIFYs.
	JobsRecovered int

	// ReplayRecords is the number of journal records folded on top of the
	// snapshot.
	ReplayRecords int

	// SnapshotAge is how far the snapshot lagged the recovery instant
	// (the node's whole pre-crash uptime when no snapshot existed).
	SnapshotAge time.Duration

	// Clean reports whether nothing had to be discarded. False means a
	// torn journal tail was cut — the expected artifact of a hard crash
	// (or short write) mid-append, degrading to clean-prefix recovery.
	// Actual corruption never reaches these stats: Recover refuses to run
	// on a corrupt store and returns an error wrapping wal.ErrCorrupt.
	Clean bool
}

// AttachJournal binds a write-ahead journal to the node. Every scheduler
// state transition is appended from then on; call before Start and before
// any traffic is delivered. A nil journal detaches (the node reverts to
// fail-stop).
func (n *Node) AttachJournal(j *wal.Journal) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.journal = j
}

// Journal returns the attached write-ahead journal, if any.
func (n *Node) Journal() *wal.Journal {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.journal
}

// Recover rebuilds the node's scheduler state from the attached journal:
// the local queue, initiator failsafe tracking (watchdogs re-armed on the
// environment clock), and the outbox — unacknowledged ASSIGNs and
// completion NOTIFYs re-open with an immediate resend, and queued copies
// of remotely initiated jobs come back fenced until their initiator
// re-confirms them. Unfenced queued jobs are re-announced via INFORM when
// rescheduling is enabled, under fresh flood sequence numbers. Replayed
// spans parent to the journaled pre-crash spans, linking the recovery into
// the original causal tree.
//
// Call after AttachJournal and before Start, on a node that has taken no
// traffic. Recovery ends with a fresh snapshot (compacting the pre-crash
// journal) so a second crash replays only post-recovery records.
func (n *Node) Recover() (RecoveryStats, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	var stats RecoveryStats
	if n.journal == nil {
		return stats, fmt.Errorf("node %v: recover without a journal", n.id)
	}
	if !n.alive {
		return stats, fmt.Errorf("node %v: recover on a dead node", n.id)
	}
	snap, recs, info, err := n.journal.Load()
	if err != nil {
		return stats, fmt.Errorf("node %v: %w", n.id, err)
	}
	if info.Corrupt() {
		// Bit rot inside accepted frames: the store can no longer prove
		// which executions happened, so replaying it would risk double
		// execution. Refuse loudly; the operator (or supervisor) decides
		// whether to wipe and rejoin amnesiac. A torn tail, by contrast,
		// is the expected crash artifact and recovery proceeds below.
		return stats, fmt.Errorf("node %v: snapshot %v, journal %v: %w",
			n.id, info.SnapshotDamage, info.JournalDamage, wal.ErrCorrupt)
	}
	state := wal.Replay(snap, recs)
	now := n.env.Now()
	stats.ReplayRecords = len(recs)
	stats.JobsRecovered = state.Jobs()
	stats.Clean = info.Clean()
	if snap != nil {
		stats.SnapshotAge = now - snap.At
		if stats.SnapshotAge < 0 {
			// Live restarts reset the environment clock to zero, so a
			// snapshot from the previous process can carry a later stamp.
			stats.SnapshotAge = 0
		}
	} else {
		stats.SnapshotAge = now
	}

	// Skip the counters past everything the pre-crash process might have
	// issued after its last journal append.
	if state.Seq+recoverSeqSlack > n.seq {
		n.seq = state.Seq + recoverSeqSlack
	}
	if state.SpanSeq+recoverSpanSlack > n.spanSeq {
		n.spanSeq = state.SpanSeq + recoverSpanSlack
	}

	n.emitSpan(TraceEvent{Kind: SpanRestart, Fanout: stats.JobsRecovered})

	// An interrupted execution never completed: the job re-enters the
	// queue behind the journaled queued jobs and runs again from scratch.
	queued := state.Queued
	if state.Running != nil {
		queued = append(queued, wal.QueuedJob(*state.Running))
	}
	type announce struct {
		uuid job.UUID
		span uint64
	}
	var announces []announce
	for _, q := range queued {
		uuid := q.Profile.UUID
		if _, dup := n.queue.Get(uuid); dup {
			continue
		}
		if _, dup := n.outbox[resendKey{uuid, resendFenced}]; dup {
			continue
		}
		initiator := q.Initiator
		if initiator == 0 {
			initiator = n.id
		}
		rspan := n.emitSpan(TraceEvent{Kind: SpanRecovered, UUID: uuid, Parent: q.Span, Msg: MsgAssign, Peer: initiator})
		n.jlog(wal.Record{Type: wal.RecEnqueue, UUID: uuid, Profile: &q.Profile, Peer: initiator, Span: rspan})
		if n.cfg.NotifyInitiator && initiator != n.id {
			// A remote-initiator copy is fenced until the initiator
			// re-confirms it: during the outage its watchdog may have
			// resubmitted the job elsewhere, and re-executing both copies
			// would break exactly-one. The resurfaced query retries with
			// backoff, so a partitioned initiator delays the copy rather
			// than duplicating it. Durably the copy stays an enqueued job:
			// a re-crash replays it here and fences it again.
			n.openResend(&resend{kind: resendFenced, profile: q.Profile, peer: initiator, span: rspan})
			continue
		}
		n.initiators[uuid] = initiator
		n.queue.Enqueue(job.New(q.Profile), now)
		if n.tobs != nil {
			n.enqSpans[uuid] = rspan
		}
		announces = append(announces, announce{uuid: uuid, span: rspan})
	}

	// Initiator-side failsafe tracking: re-arm every watchdog. No job is
	// re-flooded here — if the assignee still holds the job the watchdog
	// never fires, and if it crashed too the watchdog recovers it late
	// rather than duplicating live work.
	for _, tr := range state.Tracked {
		uuid := tr.Profile.UUID
		rspan := n.emitSpan(TraceEvent{Kind: SpanRecovered, UUID: uuid, Parent: tr.Span, Msg: MsgNotify, Peer: tr.Assignee, Attempt: tr.Resub})
		t := &trackedJob{profile: tr.Profile, assignee: tr.Assignee, resub: tr.Resub, expect: tr.Expect, span: rspan}
		n.tracked[uuid] = t
		n.jlog(wal.Record{Type: wal.RecWatchdog, UUID: uuid, Profile: &tr.Profile, Peer: tr.Assignee, Resub: tr.Resub, Expect: tr.Expect, Span: rspan})
		n.armWatchdog(t)
	}

	// Unacknowledged outbound ASSIGNs: reopen the handshake and retransmit
	// immediately. Duplicate delivery is safe — the assignee re-acks
	// ASSIGNs it already queued.
	for _, oa := range state.OutAssigns {
		rspan := n.emitSpan(TraceEvent{Kind: SpanRecovered, UUID: oa.Profile.UUID, Parent: oa.Span, Msg: MsgAssignAck, Peer: oa.To, Attempt: oa.Attempts})
		n.openResend(&resend{kind: resendAssign, profile: oa.Profile, peer: oa.To, initiator: oa.Initiator, reschedule: oa.Reschedule, span: rspan, attempts: oa.Attempts})
	}

	// Completion NOTIFYs that never got their ack: resend immediately and
	// re-arm the backoff loop. Over-sending is safe (the initiator acks
	// duplicates, and unknown jobs too); under-sending would leave its
	// watchdog to rerun a job this node already completed and reported.
	for _, pn := range state.PendingNotify {
		rspan := n.emitSpan(TraceEvent{Kind: SpanRecovered, UUID: pn.Profile.UUID, Parent: pn.Span, Msg: MsgNotify, Peer: pn.Initiator})
		n.openResend(&resend{kind: resendNotify, profile: pn.Profile, peer: pn.Initiator, span: rspan})
	}

	n.obs.NodeRecovered(now, n.id, stats.JobsRecovered, stats.ReplayRecords, stats.SnapshotAge)

	// Compact: the recovered state becomes the new snapshot, so the
	// pre-crash journal is never replayed twice.
	if err := n.checkpointLocked(); err != nil {
		return stats, err
	}

	// Re-announce recovered queued jobs for rescheduling under fresh
	// sequence numbers (peers' dedup tables would suppress reused keys).
	if n.cfg.Rescheduling() {
		for _, a := range announces {
			n.announceRecovered(a.uuid, a.span)
		}
	}
	n.maybeStart()
	return stats, nil
}

// announceRecovered floods one INFORM advertising a recovered queued job,
// parented to its recovery span. Caller holds the lock.
func (n *Node) announceRecovered(uuid job.UUID, parent uint64) {
	j, ok := n.queue.Get(uuid)
	if !ok {
		return // started (or rescheduled) during recovery
	}
	cost, ok := n.queue.QueuedCost(uuid, n.env.Now(), n.estRemaining())
	if !ok {
		return
	}
	var span uint64
	if n.tobs != nil {
		span = n.nextSpanID()
	}
	msg := Message{
		Type:   MsgInform,
		From:   n.id,
		Job:    j.Profile,
		Cost:   cost,
		TTL:    n.cfg.InformTTL - 1,
		Fanout: n.cfg.InformFanout,
		Seq:    n.nextSeq(),
		Via:    n.id,
		Hop:    1,
		Span:   span,
	}
	n.markSeen(msg.floodFP())
	sent := n.forward(msg, n.cfg.InformFanout)
	n.emitSpan(TraceEvent{
		Kind: SpanFloodOrigin, UUID: uuid, Span: span, Parent: parent,
		Msg: MsgInform, Hop: 0, TTL: n.cfg.InformTTL, Fanout: sent,
		Seq: msg.Seq, Origin: n.id, Cost: cost,
	})
}

// Checkpoint snapshots the node's current scheduler state into the journal
// and compacts it. A clean shutdown that checkpoints recovers with zero
// replay records.
func (n *Node) Checkpoint() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.journal == nil {
		return nil
	}
	return n.checkpointLocked()
}

// checkpointLocked writes the snapshot and compacts the journal. Caller
// holds the lock.
func (n *Node) checkpointLocked() error {
	if n.journal == nil {
		return nil
	}
	return n.journal.WriteSnapshot(n.snapshotState())
}

// snapshotState captures the node's recoverable scheduler state with
// deterministic (UUID-sorted) ordering. Caller holds the lock.
func (n *Node) snapshotState() *wal.State {
	s := &wal.State{
		Node:    n.id,
		At:      n.env.Now(),
		Seq:     n.seq,
		SpanSeq: n.spanSeq,
	}
	for _, j := range n.queue.Jobs() {
		initiator, ok := n.initiators[j.UUID]
		if !ok {
			initiator = n.id
		}
		s.Queued = append(s.Queued, wal.QueuedJob{Profile: j.Profile, Initiator: initiator, Span: n.enqSpans[j.UUID]})
	}
	for _, r := range n.sortedResends() {
		switch r.kind {
		case resendAssign:
			s.OutAssigns = append(s.OutAssigns, wal.OutAssign{Profile: r.profile, To: r.peer, Initiator: r.initiator, Reschedule: r.reschedule, Attempts: r.attempts, Span: r.span})
		case resendNotify:
			s.PendingNotify = append(s.PendingNotify, wal.PendingNotify{Profile: r.profile, Initiator: r.peer, Span: r.span})
		case resendFenced:
			// Fenced recovered copies are durably still queued jobs: a
			// restart replays them and fences them again.
			s.Queued = append(s.Queued, wal.QueuedJob{Profile: r.profile, Initiator: r.peer, Span: r.span})
		}
	}
	sort.Slice(s.Queued, func(i, k int) bool { return s.Queued[i].Profile.UUID < s.Queued[k].Profile.UUID })
	for _, t := range n.tracked {
		s.Tracked = append(s.Tracked, wal.TrackedJob{Profile: t.profile, Assignee: t.assignee, Resub: t.resub, Expect: t.expect, Span: t.span})
	}
	sort.Slice(s.Tracked, func(i, k int) bool { return s.Tracked[i].Profile.UUID < s.Tracked[k].Profile.UUID })
	if n.running != nil {
		s.Running = &wal.RunningJob{Profile: n.running.Profile, Initiator: n.runningInitiator, Span: n.runningSpan}
	}
	return s
}

// jlog appends one record to the attached journal (a no-op without one),
// stamping the node clock and counters, and checkpoints when the compaction
// cadence is due. Journal write errors are sticky inside the journal and
// deliberately not fatal here: a node with a failing disk degrades to
// fail-stop (amnesiac restart) instead of halting the protocol. Caller
// holds the lock.
func (n *Node) jlog(rec wal.Record) {
	if n.journal == nil {
		return
	}
	rec.At = n.env.Now()
	rec.Seq = n.seq
	rec.SpanSeq = n.spanSeq
	if err := n.journal.Append(rec); err != nil {
		return
	}
	if n.journal.ShouldSnapshot() {
		_ = n.checkpointLocked()
	}
}
