package core

import (
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/sched"
)

// A discovery round is the initiator's side of the paper's REQUEST →
// ACCEPTs → ASSIGN exchange (§III-B/C): it opens when a job is submitted (or
// re-submitted) and ends when the job is placed, given up, or abandoned
// because a live copy turned up. Every open round, whatever its stage, sits
// in one table keyed by job UUID, so the seams that must not place a second
// copy — admission, resubmission, fallbacks, a crash — ask one place.
//
// A round passes along one ordered chain of stages, cheapest first:
//
//   - commit: an optimistic COMMIT to the best provider in the cached
//     cluster view (shared-state extension, sharedstate.go);
//   - directed: TTL-0 REQUEST probes to cached matches (directory
//     extension, directory.go);
//   - flood: the classic REQUEST flood.
//
// A fresh round opens at the first stage whose cache holds a usable
// candidate. A cheap stage that cannot place the job escalates to the flood
// (escalate), and a round ends through endRound, which cancels its timer
// and releases its view reservation exactly once (disarm).

// stage is where a discovery round stands on the chain.
type stage int

const (
	stageCommit stage = iota + 1
	stageDirected
	stageFlood
)

// round is an initiator's bookkeeping for one discovery round.
type round struct {
	stage   stage
	profile job.Profile
	retries int
	// span is the flood-origin or directed-probe span, or at the commit
	// stage the current commit span; decisions, conflicts and the grant
	// parent to it.
	span uint64
	// timer is the decision timer of a collect stage (directed, flood); at
	// the commit stage, the in-flight commit's timeout or, between
	// attempts, the retry backoff.
	timer Cancel

	// Collect stages: the best offer so far, and every offer in arrival
	// order (for the dead-winner re-scan and multi-assign). directedOffers
	// counts a directed round's remote ACCEPTs, gating the flood fallback
	// against MinDirectedOffers.
	best           overlay.NodeID
	bestCost       sched.Cost
	hasBest        bool
	offers         []offer
	directedOffers int

	// Commit stage: the provider of the current attempt, the attempts sent
	// so far (from 1; the round escalates at SharedStateRetries failures),
	// and the providers already tried — a conflicted or silent provider is
	// not re-picked even if the view still likes it. inflight is true while
	// a COMMIT is outstanding and unresolved. A commit timeout resolves the
	// attempt unilaterally, so a late CONFLICT from the abandoned target must
	// not resolve it a second time — but a late grant still closes the round
	// (the provider really holds the job), which is why the round outlives
	// the attempt.
	target   overlay.NodeID
	attempts int
	excluded map[overlay.NodeID]bool
	inflight bool
}

// offer is one candidate's bid.
type offer struct {
	node overlay.NodeID
	cost sched.Cost
}

// startDiscovery opens a discovery round for p at the first stage that can
// work. The cheap stages run on fresh rounds only — retries have already
// proven the cached knowledge insufficient for this job — and each reports
// false when the cache holds no usable candidate. Caller holds the lock and
// has checked that no round is open for p.
func (n *Node) startDiscovery(p job.Profile, retries int, parent uint64) {
	if retries == 0 && n.view != nil && n.startCommit(p, parent) {
		return
	}
	if retries == 0 && n.cfg.Directory() && n.startDirected(p, parent) {
		return
	}
	n.startFlood(p, retries, parent)
}

// openCollect enters a collect-stage round for p into the table. The
// initiator is itself a candidate when its resources match. The round's
// span is allocated up front: it rides the wire before the fan-out is
// known. Caller holds the lock.
func (n *Node) openCollect(s stage, p job.Profile, retries int) *round {
	r := &round{stage: s, profile: p, retries: retries}
	if cost, ok := n.selfOffer(p); ok {
		r.best, r.bestCost, r.hasBest = n.id, cost, true
		r.offers = append(r.offers, offer{node: n.id, cost: cost})
	}
	n.rounds[p.UUID] = r
	if n.tobs != nil {
		r.span = n.nextSpanID()
	}
	return r
}

// startFlood floods a REQUEST round for p and arms the decision timer.
// The round's flood-origin span parents to the given span (the submission,
// a retry, a watchdog resubmission, an assignment fallback, or a cheap
// stage's fallback). Caller holds the lock.
func (n *Node) startFlood(p job.Profile, retries int, parent uint64) {
	r := n.openCollect(stageFlood, p, retries)
	// Flood recovery: a retried round searches a degraded overlay
	// progressively deeper by escalating the TTL per attempt.
	ttl := n.cfg.RequestTTL
	if retries > 0 && n.cfg.ReFloodTTLStep > 0 {
		ttl += retries * n.cfg.ReFloodTTLStep
		n.obs.FloodEscalated(n.env.Now(), n.id, p.UUID, retries, ttl)
	}
	msg := Message{
		Type:   MsgRequest,
		From:   n.id,
		Job:    p,
		Cost:   0,
		TTL:    ttl - 1,
		Fanout: n.cfg.RequestFanout,
		Seq:    n.nextSeq(),
		Via:    n.id,
		Hop:    1,
		Span:   r.span,
	}
	n.markSeen(msg.floodFP())
	sent := n.forward(msg, n.cfg.RequestFanout)
	n.emitSpan(TraceEvent{
		Kind: SpanFloodOrigin, UUID: p.UUID, Span: r.span, Parent: parent,
		Msg: MsgRequest, Hop: 0, TTL: ttl, Fanout: sent,
		Seq: msg.Seq, Origin: n.id, Attempt: retries,
	})
	uuid := p.UUID
	r.timer = n.env.Schedule(n.cfg.AcceptTimeout, func() { n.decide(uuid) })
}

// decide closes a collect-stage round: assign to the best offer, or retry.
func (n *Node) decide(uuid job.UUID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return
	}
	r, ok := n.rounds[uuid]
	if !ok || r.stage == stageCommit {
		return
	}
	r.timer = nil // this is the timer firing
	n.endRound(r)
	// A starved directed round escalates to the flood before any
	// assignment is considered: directed discovery must never narrow the
	// candidate pool a flood would have reached.
	if r.stage == stageDirected && r.directedOffers < n.cfg.MinDirectedOffers {
		n.escalate(r, r.span)
		return
	}
	best, bestCost, hasBest := r.best, r.bestCost, r.hasBest
	if hasBest && n.peerDead(best) {
		// The winner was confirmed dead during the collect window: re-scan
		// the surviving offers in arrival order (strict < preserves the
		// original first-wins tie-breaking).
		hasBest = false
		for _, o := range r.offers {
			if o.node != n.id && n.peerDead(o.node) {
				continue
			}
			if !hasBest || o.cost < bestCost {
				best, bestCost, hasBest = o.node, o.cost, true
			}
		}
	}
	if !hasBest {
		if r.retries < n.cfg.MaxRequestRetries {
			p, retries, parent := r.profile, r.retries+1, r.span
			n.env.Schedule(n.retryDelay(retries), func() {
				n.mu.Lock()
				defer n.mu.Unlock()
				if !n.alive {
					return
				}
				if _, open := n.rounds[p.UUID]; open {
					return
				}
				n.startDiscovery(p, retries, parent)
			})
			return
		}
		n.emitSpan(TraceEvent{Kind: SpanFail, UUID: uuid, Parent: r.span, Attempt: r.retries})
		n.obs.JobFailed(n.env.Now(), n.id, uuid, "no candidate found")
		return
	}
	if n.cfg.MultiAssign > 1 {
		n.multiAssign(r)
		return
	}
	n.obs.JobAssigned(n.env.Now(), uuid, n.id, best, bestCost, false)
	aspan := n.emitSpan(TraceEvent{
		Kind: SpanAssign, UUID: uuid, Parent: r.span,
		Peer: best, Cost: bestCost,
	})
	n.trackAssignment(r.profile, best, bestCost, aspan)
	if best == n.id {
		n.enqueueLocal(r.profile, n.id, aspan)
		return
	}
	n.sendAssign(best, r.profile, n.id, false, aspan)
}

// escalate closes a round whose cheap stage could not place the job and
// floods in its place. The fallback span — the stage's own kind, which the
// trace checker audits — links the flood under the given span, and the
// retry budget is untouched: the flood is the round the cheap stage tried
// to avoid, not a retry of one. Caller holds the lock.
func (n *Node) escalate(r *round, parent uint64) {
	n.endRound(r)
	uuid := r.profile.UUID
	var fb uint64
	if r.stage == stageCommit {
		fb = n.emitSpan(TraceEvent{Kind: SpanCommitFallback, UUID: uuid, Parent: parent, Attempt: r.attempts})
		n.obs.CommitFallback(n.env.Now(), n.id, uuid, r.attempts)
	} else {
		fb = n.emitSpan(TraceEvent{Kind: SpanDirectoryFallback, UUID: uuid, Parent: parent, Attempt: r.directedOffers})
		n.obs.DirectoryFallback(n.env.Now(), n.id, uuid, r.directedOffers)
	}
	n.startFlood(r.profile, r.retries, fb)
}

// endRound takes a round out of the table and disarms it. Caller holds the
// lock.
func (n *Node) endRound(r *round) {
	delete(n.rounds, r.profile.UUID)
	n.disarm(r)
}

// disarm cancels the round's timer and releases the view reservation of
// its in-flight commit, each at most once however many paths reach it: a
// commit attempt that failed disarms the round it stays in, and ending the
// round disarms it again. A timer that is firing is nilled by its handler
// first. Caller holds the lock.
func (n *Node) disarm(r *round) {
	if r.timer != nil {
		r.timer()
		r.timer = nil
	}
	if r.inflight {
		r.inflight = false
		n.view.CommitResolved(r.target)
	}
}

// abandonRound ends a round that must not place its job, because a live
// copy of it turned up or it completed. At the commit stage a CANCEL chases
// the target, which may already hold a granted copy (a provider that never
// enqueued it ignores the CANCEL); the cancel span parents to the commit
// span, so every commit attempt's outcome stays in its causal tree. Caller
// holds the lock.
func (n *Node) abandonRound(r *round) {
	n.endRound(r)
	if r.stage != stageCommit {
		return
	}
	cspan := n.emitSpan(TraceEvent{Kind: SpanCancel, UUID: r.profile.UUID, Parent: r.span, Peer: r.target})
	n.env.Send(r.target, Message{Type: MsgCancel, From: n.id, Job: r.profile, Span: cspan})
}
