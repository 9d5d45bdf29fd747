package core

import (
	"log"
	"os"

	"github.com/smartgrid/aria/internal/directory"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
)

// The directory plane is the directed-discovery extension: each node keeps a
// bounded, staleness-aware cache of remote resource-profile digests
// (internal/directory), fed by digests piggybacked on membership PING/PONG
// gossip and on ACCEPT/INFORM traffic, and invalidated by the liveness
// detector (suspect evicts, dead tombstones) and by transport unreachability.
// An initiator's first discovery round probes up to DirectedCandidates
// cached matches with TTL-0 targeted REQUESTs — the directed stage of the
// discovery round (round.go); the classic flood remains the fallback
// whenever the cache is empty or the directed round starves, so completion
// semantics never depend on cache quality.

// SetIncarnation stamps the node's restart counter, carried in its own
// profile digest so remote caches can order knowledge across restarts (a
// tombstoned dead node re-admits only with a strictly greater incarnation).
// Transports call it before Start on a restarted node.
func (n *Node) SetIncarnation(inc uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.incarnation = inc
}

// DirectorySnapshot dumps the node's live directory for operator debugging
// (ariactl's directory Op); nil when the directory is disabled.
func (n *Node) DirectorySnapshot() []directory.Digest {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.dir == nil {
		return nil
	}
	return n.dir.Snapshot(n.env.Now())
}

// selfDigest is the node's own directory digest: zero age, current
// incarnation, live load. Caller holds the lock.
func (n *Node) selfDigest() directory.Digest {
	load := n.queue.Len()
	if n.running != nil {
		load++
	}
	return directory.Digest{Node: n.id, Profile: n.profile, Incarnation: n.incarnation, Load: load}
}

// selfDirPayload encodes the node's own digest for piggybacking on an
// ACCEPT or INFORM — encoded per send, because the load hint must be live.
// Nil when the directory is disabled. Caller holds the lock.
func (n *Node) selfDirPayload() []byte {
	if n.dir == nil {
		return nil
	}
	return directory.Encode([]directory.Digest{n.selfDigest()})
}

// dirGossipPayload builds the digest payload for a PING or PONG: the node's
// own digest first (the freshest fact it has), then DirectoryGossip cache
// samples rotated across calls. The samples pass through the node's digest
// scratch, so the encoded payload is the only allocation. Caller holds the
// lock.
func (n *Node) dirGossipPayload() []byte {
	if n.dir == nil {
		return nil
	}
	n.dirScratch = append(n.dirScratch[:0], n.selfDigest())
	n.dirScratch = n.dir.AppendGossip(n.dirScratch, n.cfg.DirectoryGossip, n.env.Now())
	return directory.Encode(n.dirScratch)
}

// learnDigests folds a message's digest payload into the cache, decoding
// through the node's digest scratch. Undecodable payloads are dropped whole;
// digests about this node itself or about peers already confirmed dead are
// skipped. Caller holds the lock.
func (n *Node) learnDigests(m Message) {
	if n.dir == nil || len(m.Dir) == 0 {
		return
	}
	ds, err := directory.AppendDecode(n.dirScratch[:0], m.Dir)
	if err != nil {
		return
	}
	n.dirScratch = ds
	now := n.env.Now()
	for _, d := range ds {
		if d.Node == n.id || n.peerDead(d.Node) {
			continue
		}
		admitted := n.dir.Learn(d, now)
		if dirDebug {
			log.Printf("dirdebug: now=%v admitted=%v subject=%d inc=%d age=%v load=%d via=%v from=%d",
				now, admitted, d.Node, d.Incarnation, d.Age, d.Load, m.Type, m.From)
		}
	}
}

// dirDebug gates digest-learn tracing for soak debugging.
var dirDebug = os.Getenv("ARIA_DIR_DEBUG") != ""

// dirEvict drops a peer's cached digest without a tombstone (suspicion,
// transport unreachability): the peer may be alive and fresh gossip
// re-admits it. Caller holds the lock.
func (n *Node) dirEvict(peer overlay.NodeID, reason string) {
	if n.dir != nil {
		n.dir.Evict(peer, reason)
	}
}

// dirInvalidate tombstones a peer confirmed dead: only a strictly greater
// incarnation (a restarted instance) is ever cached again. Caller holds the
// lock.
func (n *Node) dirInvalidate(peer overlay.NodeID) {
	if n.dir != nil {
		n.dir.Invalidate(peer)
	}
}

// startDirected attempts the directed stage of discovery: TTL-0 targeted
// REQUESTs to up to DirectedCandidates cached nodes whose digest satisfies
// the job. It reports false (and emits a directory miss) when no usable
// candidate is cached, in which case the caller floods instead. Caller holds
// the lock.
func (n *Node) startDirected(p job.Profile, parent uint64) bool {
	now := n.env.Now()
	// The best DirectedCandidates usable entries, least-loaded first
	// (join-shortest-known-queue), so the probes spread load the way a
	// flood's global cost view would; the hint only picks who gets probed
	// — live ACCEPT costs still decide the assignment.
	budget := n.cfg.DirectedCandidates
	usable := func(node overlay.NodeID, _ int) bool {
		return node != n.id && !n.peerDead(node) && !n.peerSuspect(node)
	}
	targets := n.dir.AppendBest(make([]directory.Digest, 0, budget), p.Req, budget, now, usable)
	if len(targets) < budget {
		// Not enough knowledge to fill the probe budget: a cold or sparse
		// cache would aim the whole round at its few entries and herd load
		// onto them. Flood instead — every ACCEPT it draws carries the
		// sender's digest, so the miss itself warms the cache.
		n.obs.DirectoryMiss(now, n.id, p.UUID)
		return false
	}
	r := n.openCollect(stageDirected, p, 0)
	// One wave, many unicasts: every probe shares the sequence number and
	// span, exactly like flood copies of one wave. Wire TTL 0 means a
	// receiver that cannot host the job has nothing to forward — the probe
	// dies silently instead of cascading.
	msg := Message{
		Type:   MsgRequest,
		From:   n.id,
		Job:    p,
		TTL:    0,
		Fanout: 1,
		Seq:    n.nextSeq(),
		Via:    n.id,
		Hop:    1,
		Span:   r.span,
	}
	n.markSeen(msg.floodFP())
	for _, d := range targets {
		n.env.Send(d.Node, msg)
	}
	n.emitSpan(TraceEvent{
		Kind: SpanDirectedProbe, UUID: p.UUID, Span: r.span, Parent: parent,
		Msg: MsgRequest, Hop: 0, TTL: 1, Fanout: len(targets),
		Seq: msg.Seq, Origin: n.id,
	})
	n.obs.DirectoryHit(now, n.id, p.UUID, len(targets))
	uuid := p.UUID
	r.timer = n.env.Schedule(n.cfg.AcceptTimeout, func() { n.decide(uuid) })
	return true
}
