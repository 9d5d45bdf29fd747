package core

import (
	"errors"
	"time"

	"github.com/smartgrid/aria/internal/directory"
	"github.com/smartgrid/aria/internal/overlay"
)

// ErrOverloaded is returned by Submit when admission control rejects a job:
// the node already has MaxPendingSubmits discovery rounds in flight. Callers
// (the gateway, the scenario harness) match it with errors.Is and either
// redraw another portal or push back on the client.
var ErrOverloaded = errors.New("node overloaded")

// retryBackoffShiftMax bounds the exponential retry ladder so the shift
// cannot overflow before the cap clamps it.
const retryBackoffShiftMax = 16

// loadDepth is the node's queued + running job count — the quantity the
// MaxQueuedJobs bound is measured against. Caller holds the lock.
func (n *Node) loadDepth() int {
	d := n.queue.Len()
	if n.running != nil {
		d++
	}
	return d
}

// overloaded reports whether the provider-side shedding bound is active and
// reached. Caller holds the lock.
func (n *Node) overloaded() bool {
	return n.cfg.MaxQueuedJobs > 0 && n.loadDepth() >= n.cfg.MaxQueuedJobs
}

// retryDelay is the pause before REQUEST re-flood number retries (counting
// from 1). With no cap configured it is the paper's fixed RetryBackoff; with
// RetryBackoffCap set it doubles per retry up to the cap and is jittered to
// a uniform draw from [d/2, d), so synchronized initiators spread out
// instead of re-flooding in lockstep. The jitter draw only happens on the
// capped path, keeping baseline runs bit-identical. Caller holds the lock.
func (n *Node) retryDelay(retries int) time.Duration {
	d := n.cfg.RetryBackoff
	if n.cfg.RetryBackoffCap <= 0 {
		return d
	}
	if retries > 1 {
		d <<= uint(min(retries-1, retryBackoffShiftMax))
	}
	if d <= 0 || d > n.cfg.RetryBackoffCap {
		d = n.cfg.RetryBackoffCap
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(n.env.Rand().Int63n(int64(half)))
}

// dirBusyDemote reacts to any BUSY reply from peer: the directory entry is
// demoted (re-learnable — the next gossiped digest re-admits the peer with
// its new load) so directed probes route around the hot node. Caller holds
// the lock.
func (n *Node) dirBusyDemote(peer overlay.NodeID) {
	n.obs.PeerBusy(n.env.Now(), n.id, peer)
	if n.dir != nil {
		n.dir.Evict(peer, directory.EvictBusy)
	}
}

// shedAssign refuses an incoming ASSIGN at a saturated provider: a BUSY
// reply (Re=ASSIGN) goes back to the actual sender. No AssignAck is sent —
// the sender's handshake stays open, so a lost BUSY is still covered by the
// ASSIGN retry ladder and eventually the fallback. The BUSY carries the
// ASSIGN's initiator address in Via so a handshake-less sender can classify
// the re-dispatch without per-assignment state. Caller holds the lock.
func (n *Node) shedAssign(m Message) {
	depth := n.loadDepth()
	n.obs.AssignShed(n.env.Now(), n.id, m.Job.UUID, depth)
	bspan := n.emitSpan(TraceEvent{
		Kind: SpanBusy, UUID: m.Job.UUID, Parent: m.Span,
		Msg: MsgAssign, Peer: m.Via, Fanout: depth,
	})
	n.env.Send(m.Via, Message{Type: MsgBusy, From: n.id, Job: m.Job, Re: MsgAssign, Via: m.From, Span: bspan})
}

// handleBusy reacts to a BUSY reply. An advisory BUSY (Re=REQUEST) only
// demotes the hot peer in the directory: the discovery round simply decides
// without that node's offer. A shed BUSY (Re=ASSIGN) additionally closes
// the open handshake and re-dispatches the job — an initiator re-floods a
// fresh REQUEST, a rescheduling assignee takes the job back into its own
// queue — inside the same critical section, so the traced shed span always
// has a re-dispatch child (the checker's shed-ASSIGN invariant). Caller
// holds the lock.
func (n *Node) handleBusy(m Message) {
	n.dirBusyDemote(m.From)
	if m.Re != MsgAssign {
		return
	}
	uuid := m.Job.UUID
	profile, initiator, reschedule := m.Job, m.Via, m.Via != n.id
	if oa, ok := n.outbox[resendKey{uuid, resendAssign}]; ok {
		if m.From != oa.peer {
			return // stale BUSY from a node no longer holding the handshake
		}
		n.closeResend(uuid, resendAssign)
		profile, initiator, reschedule = oa.profile, oa.initiator, oa.reschedule
	} else if n.cfg.AssignAck {
		return // handshake already closed (ack raced the BUSY, or a duplicate)
	}
	if reschedule {
		if _, queued := n.queue.Get(uuid); queued {
			return // already re-acquired
		}
		if n.running != nil && n.running.UUID == uuid {
			return
		}
		n.obs.ShedRedispatched(n.env.Now(), n.id, uuid, false)
		sh := n.emitSpan(TraceEvent{Kind: SpanShed, UUID: uuid, Parent: m.Span, Peer: m.From})
		n.enqueueLocal(profile, initiator, sh)
		return
	}
	if n.discoveryOpen(uuid) {
		return // a re-discovery for this job is already running
	}
	n.obs.ShedRedispatched(n.env.Now(), n.id, uuid, true)
	sh := n.emitSpan(TraceEvent{Kind: SpanShed, UUID: uuid, Parent: m.Span, Peer: m.From})
	n.startDiscovery(profile, 0, sh)
}
