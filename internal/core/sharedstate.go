package core

import (
	"time"

	"github.com/smartgrid/aria/internal/directory"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/sched"
)

// The shared-state plane is the optimistic-commit scheduler arm: instead of
// discovering providers per job (flood or directed probes), an initiator
// picks the best provider from its eventually-consistent cached cluster
// view (internal/sharedstate, layered on the gossip-fed directory store)
// and commits the assignment optimistically with a single COMMIT message.
// The provider validates the commit against reality — queue below the
// shared-state bound, incarnation matching the view's, profile actually
// satisfying the job — and either grants it (the ASSIGN_ACK doubles as the
// grant, and the job is enqueued exactly like an ASSIGN) or rejects it
// with a typed CONFLICT reply carrying its honest digest. The initiator
// folds the correction into its view and retries the next-best candidate
// after a bounded backoff; after K failed commits (conflicts or timeouts)
// it abandons the view and escalates to the classic ARiA REQUEST flood, so
// completion semantics never depend on view quality.

// pendingCommit is an initiator's bookkeeping for one optimistic-commit
// round.
type pendingCommit struct {
	profile job.Profile
	target  overlay.NodeID
	// attempts counts commits sent this round, from 1; the round falls
	// back to the flood when it reaches SharedStateRetries failures.
	attempts int
	// excluded lists providers already tried this round: a conflicted or
	// silent provider is not re-picked even if the view still likes it.
	excluded map[overlay.NodeID]bool
	// span is the current commit span; conflicts and the grant parent to
	// it. timer is the in-flight commit timeout or, between attempts, the
	// retry backoff.
	span  uint64
	timer Cancel
	// inflight is true while a COMMIT is outstanding and unresolved. A
	// commit timeout resolves the attempt unilaterally, so a late CONFLICT
	// from the abandoned target must not resolve it a second time — but a
	// late grant still closes the round (the provider really holds the
	// job), which is why the round outlives the attempt.
	inflight bool
}

// resolveCommitView releases the view's in-flight reservation for the
// current commit attempt, exactly once per attempt. Caller holds the lock.
func (n *Node) resolveCommitView(pc *pendingCommit) {
	if pc.inflight {
		pc.inflight = false
		n.view.CommitResolved(pc.target)
	}
}

// discoveryOpen reports whether any discovery round — flood, directed, or
// optimistic commit — is in flight for uuid. Round-opening paths consult it
// so two concurrent rounds can never place two live copies. Caller holds
// the lock.
func (n *Node) discoveryOpen(uuid job.UUID) bool {
	if _, ok := n.pending[uuid]; ok {
		return true
	}
	_, ok := n.commits[uuid]
	return ok
}

// pickCommitTarget selects the best viewed provider for p that is not
// excluded, not this node, and not suspected or confirmed dead. Caller
// holds the lock.
func (n *Node) pickCommitTarget(p job.Profile, excluded map[overlay.NodeID]bool) (directory.Digest, bool) {
	return n.view.Pick(p.Req, n.env.Now(), func(id overlay.NodeID) bool {
		return id == n.id || excluded[id] || n.peerDead(id) || n.peerSuspect(id)
	})
}

// startCommit attempts the optimistic-commit stage of discovery, reporting
// false when the view holds no committable candidate — a cold or saturated
// view falls through to directed discovery or the flood, whose ACCEPT
// traffic warms it. Caller holds the lock.
func (n *Node) startCommit(p job.Profile, parent uint64) bool {
	if _, dup := n.commits[p.UUID]; dup {
		return true // round already open; never start a second
	}
	d, ok := n.pickCommitTarget(p, nil)
	if !ok {
		return false
	}
	pc := &pendingCommit{profile: p, excluded: make(map[overlay.NodeID]bool)}
	n.commits[p.UUID] = pc
	n.dispatchCommit(pc, d, parent)
	return true
}

// dispatchCommit sends one COMMIT to the picked provider and arms the
// commit timeout. The view reserves the believed slot until the commit
// resolves. Caller holds the lock.
func (n *Node) dispatchCommit(pc *pendingCommit, d directory.Digest, parent uint64) {
	pc.attempts++
	pc.target = d.Node
	pc.excluded[d.Node] = true
	pc.inflight = true
	n.view.CommitStarted(d.Node)
	uuid := pc.profile.UUID
	pc.span = n.emitSpan(TraceEvent{
		Kind: SpanCommit, UUID: uuid, Parent: parent,
		Peer: d.Node, Cost: sched.Cost(d.Load), Attempt: pc.attempts,
	})
	n.obs.CommitSent(n.env.Now(), n.id, uuid, d.Node, pc.attempts)
	n.env.Send(d.Node, Message{
		Type: MsgCommit, From: n.id, Job: pc.profile,
		Inc: d.Incarnation, Span: pc.span,
	})
	pc.timer = n.env.Schedule(n.cfg.CommitTimeout, func() { n.commitTimeoutFire(uuid) })
}

// handleCommit validates an optimistic commit against this provider's
// actual state: grant it (the ASSIGN_ACK doubles as the grant, and the job
// is enqueued exactly like an ASSIGN) or reject it with a typed CONFLICT
// carrying this node's honest digest so the initiator's next pick works
// from truth. Caller holds the lock.
func (n *Node) handleCommit(m Message) {
	if m.Job.Validate() != nil {
		return
	}
	uuid := m.Job.UUID
	if pn, done := n.notifyOut[uuid]; done {
		// Already completed here and the completion NOTIFY is still
		// unacked: a re-commit (a watchdog resubmission that re-picked this
		// node) must not re-run the job. Re-grant and push the completion
		// again, mirroring the duplicate-ASSIGN path.
		n.env.Send(m.From, Message{Type: MsgAssignAck, From: n.id, Job: m.Job, Span: m.Span})
		n.emitSpan(TraceEvent{Kind: SpanDuplicate, UUID: uuid, Parent: m.Span, Peer: m.From, Msg: MsgCommit})
		n.env.Send(pn.initiator, Message{Type: MsgNotify, From: n.id, Job: pn.profile, Notify: NotifyCompleted, Span: pn.span})
		return
	}
	if _, fenced := n.held[uuid]; fenced {
		// A re-commit for a fenced recovered copy is an implicit
		// confirmation that the initiator still wants it here.
		n.env.Send(m.From, Message{Type: MsgAssignAck, From: n.id, Job: m.Job, Span: m.Span})
		n.emitSpan(TraceEvent{Kind: SpanDuplicate, UUID: uuid, Parent: m.Span, Peer: m.From, Msg: MsgCommit})
		n.releaseHeld(uuid)
		return
	}
	if _, queued := n.queue.Get(uuid); queued || (n.running != nil && n.running.UUID == uuid) {
		n.env.Send(m.From, Message{Type: MsgAssignAck, From: n.id, Job: m.Job, Span: m.Span})
		n.emitSpan(TraceEvent{Kind: SpanDuplicate, UUID: uuid, Parent: m.Span, Peer: m.From, Msg: MsgCommit})
		return
	}
	now := n.env.Now()
	var kind ConflictKind
	switch {
	case m.Inc != n.incarnation:
		// The view predates a restart of this node: its queue state and
		// journal lineage are about a different instance.
		kind = ConflictStale
	case !n.profile.Satisfies(m.Job.Req):
		// The view's capability picture is structurally wrong.
		kind = ConflictStale
	case n.loadDepth() >= n.cfg.SharedStateBound || n.overloaded():
		// At the bound. If another commit landed within the last commit
		// round trip, a concurrent committer won the race for the final
		// slot; otherwise the initiator's view was simply stale about
		// organically accumulated load.
		if n.lastCommitGrant >= 0 && now-n.lastCommitGrant <= n.cfg.CommitTimeout {
			kind = ConflictLost
		} else {
			kind = ConflictBusy
		}
	default:
		if _, err := n.queue.OfferCost(m.Job, now, n.estRemaining()); err != nil {
			// Feasibility (deadline, reservation) says no right now.
			kind = ConflictBusy
		}
	}
	if kind != 0 {
		cspan := n.emitSpan(TraceEvent{
			Kind: SpanConflict, UUID: uuid, Parent: m.Span,
			Peer: m.From, Reason: kind.String(), Fanout: n.loadDepth(),
		})
		n.env.Send(m.From, Message{
			Type: MsgConflict, From: n.id, Job: m.Job,
			Conflict: kind, Span: cspan, Dir: n.selfDirPayload(),
		})
		return
	}
	n.lastCommitGrant = now
	n.env.Send(m.From, Message{Type: MsgAssignAck, From: n.id, Job: m.Job, Span: m.Span})
	n.enqueueLocal(m.Job, m.From, m.Span)
}

// handleConflict reacts to a provider's typed commit rejection: fold the
// correction into the view (the CONFLICT carries the provider's honest
// digest) and retry or fall back. Caller holds the lock.
func (n *Node) handleConflict(m Message) {
	pc, ok := n.commits[m.Job.UUID]
	if !ok || !pc.inflight || m.From != pc.target {
		// No open round, a late conflict from a superseded target, or a
		// conflict for an attempt the timeout already resolved.
		return
	}
	if pc.timer != nil {
		pc.timer()
		pc.timer = nil
	}
	n.resolveCommitView(pc)
	switch m.Conflict {
	case ConflictStale:
		// Structurally wrong entry: evict it, then admit the honest digest
		// the reply carries (the restarted incarnation, the real profile).
		n.view.ObserveStale(m.From)
		n.learnDigests(m)
	default:
		// Busy or lost: the digest shows the real (saturated) load; the
		// explicit saturation covers digests the codec aged past admission.
		n.learnDigests(m)
		n.view.ObserveBusy(m.From)
	}
	n.failCommit(pc, m.Conflict.String(), m.Span)
}

// commitTimeoutFire treats a silent provider as a failed commit attempt:
// the entry is dropped from the view as unreachable and the round retries
// or falls back. The conflict span it emits is initiator-side — there is
// no reply to parent one under.
func (n *Node) commitTimeoutFire(uuid job.UUID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return
	}
	pc, ok := n.commits[uuid]
	if !ok {
		return
	}
	pc.timer = nil
	n.resolveCommitView(pc)
	n.view.ObserveUnreachable(pc.target)
	cspan := n.emitSpan(TraceEvent{
		Kind: SpanConflict, UUID: uuid, Parent: pc.span,
		Peer: pc.target, Reason: "timeout", Attempt: pc.attempts,
	})
	n.failCommit(pc, "timeout", cspan)
}

// failCommit closes one failed commit attempt: retry against the refreshed
// view after a bounded backoff, or — at K failures — abandon the view and
// escalate to the classic flood. Caller holds the lock.
func (n *Node) failCommit(pc *pendingCommit, reason string, conflictSpan uint64) {
	uuid := pc.profile.UUID
	n.obs.CommitConflict(n.env.Now(), n.id, uuid, pc.target, reason, pc.attempts)
	if pc.attempts >= n.cfg.SharedStateRetries {
		n.commitFallback(pc, conflictSpan)
		return
	}
	pc.timer = n.env.Schedule(n.commitBackoff(pc.attempts), func() { n.commitRetryFire(uuid, conflictSpan) })
}

// commitRetryFire re-picks from the refreshed view and dispatches the next
// commit, or falls back immediately when no alternative provider is viewed
// committable — waiting out more conflicts against an exhausted view would
// only delay the flood.
func (n *Node) commitRetryFire(uuid job.UUID, parent uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return
	}
	pc, ok := n.commits[uuid]
	if !ok {
		return
	}
	pc.timer = nil
	d, found := n.pickCommitTarget(pc.profile, pc.excluded)
	if !found {
		n.commitFallback(pc, parent)
		return
	}
	n.dispatchCommit(pc, d, parent)
}

// commitFallback abandons the optimistic round and escalates to the
// classic REQUEST flood with a fresh retry budget — the flood is the
// discovery the commits tried to avoid, not a retry of one. Caller holds
// the lock.
func (n *Node) commitFallback(pc *pendingCommit, parent uint64) {
	uuid := pc.profile.UUID
	delete(n.commits, uuid)
	fb := n.emitSpan(TraceEvent{
		Kind: SpanCommitFallback, UUID: uuid, Parent: parent, Attempt: pc.attempts,
	})
	n.obs.CommitFallback(n.env.Now(), n.id, uuid, pc.attempts)
	n.startFlood(pc.profile, 0, fb)
}

// commitGranted closes a granted commit: the ASSIGN_ACK from the target is
// the grant. The job is now the provider's, tracked exactly like a
// flood-arm assignment (watchdog, NOTIFY lifecycle). A late grant — one
// arriving after the commit timeout, while the round backs off — still
// closes the round: the provider holds the job either way. Caller holds
// the lock.
func (n *Node) commitGranted(pc *pendingCommit, m Message) {
	uuid := m.Job.UUID
	if pc.timer != nil {
		pc.timer()
	}
	delete(n.commits, uuid)
	n.resolveCommitView(pc)
	n.view.ObserveGranted(pc.target)
	n.obs.CommitGranted(n.env.Now(), n.id, uuid, pc.target, pc.attempts)
	n.obs.JobAssigned(n.env.Now(), uuid, n.id, pc.target, 0, false)
	n.trackAssignment(pc.profile, pc.target, 0, pc.span)
}

// closeCommitOnComplete revokes an in-flight commit round for a job this
// node learned is complete: without it, a grant racing the completion
// NOTIFY would track (and eventually re-run) a copy of a finished job. A
// CANCEL chases the possibly-placed copy; a provider that never enqueued
// it ignores the CANCEL. The cancel span parents to the commit span so
// every commit attempt's outcome stays in its causal tree. Caller holds
// the lock.
func (n *Node) closeCommitOnComplete(uuid job.UUID) {
	pc, ok := n.commits[uuid]
	if !ok {
		return
	}
	if pc.timer != nil {
		pc.timer()
	}
	delete(n.commits, uuid)
	n.resolveCommitView(pc)
	cspan := n.emitSpan(TraceEvent{Kind: SpanCancel, UUID: uuid, Parent: pc.span, Peer: pc.target})
	n.env.Send(pc.target, Message{Type: MsgCancel, From: n.id, Job: pc.profile, Span: cspan})
}

// commitBackoff is the pause before commit attempt attempts+1: the
// configured base doubled per failure (bounded), desynchronizing
// initiators that conflicted on the same provider.
func (n *Node) commitBackoff(attempts int) time.Duration {
	return n.cfg.CommitBackoff << uint(min(attempts-1, 6))
}
