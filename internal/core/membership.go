package core

import (
	"sort"
	"time"

	"github.com/smartgrid/aria/internal/directory"
	"github.com/smartgrid/aria/internal/overlay"
)

// The membership plane is a SWIM-style liveness detector woven into the
// protocol engine: each node pings one rotating neighbor per ProbeInterval,
// moves unresponsive neighbors through suspect → dead, prunes dead links,
// and repairs its degree by reconnecting to a neighbor-of-neighbor learned
// from the peer lists gossiped on every PING/PONG. Like the rest of the
// engine it is callback-driven and goroutine-free, so the same code runs
// deterministically under the simulator and concurrently under the live
// transports.

// peerState is a neighbor's position in the detector's state machine.
type peerState int

const (
	stateAlive peerState = iota
	stateSuspect
	stateDead // terminal: the node never addresses the peer again
)

// String renders the state for snapshots and reports.
func (s peerState) String() string {
	switch s {
	case stateAlive:
		return "alive"
	case stateSuspect:
		return "suspect"
	case stateDead:
		return "dead"
	default:
		return "unknown"
	}
}

// PeerStatus is one neighbor's liveness verdict in a membership snapshot.
type PeerStatus struct {
	Peer  overlay.NodeID
	State string // "alive", "suspect", or "dead"
}

// MembershipSnapshot reports the detector's current verdict for every
// tracked peer, in ascending peer order; it is empty when the membership
// plane is disabled. Safe to call from any goroutine — this is the audit
// surface convergence checkers poll after a partition heals.
func (n *Node) MembershipSnapshot() []PeerStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.peers == nil {
		return nil
	}
	out := make([]PeerStatus, 0, len(n.peers))
	for peer, ph := range n.peers {
		out = append(out, PeerStatus{Peer: peer, State: ph.state.String()})
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Peer < out[k].Peer })
	return out
}

// peerHealth is the detector's bookkeeping for one neighbor.
type peerHealth struct {
	state peerState

	// awaiting marks an outstanding probe; awaitSeq is its PING sequence
	// number (any PONG or PING from the peer counts as refutation, the
	// sequence is kept for diagnostics).
	awaiting bool
	awaitSeq uint64

	// probeTimer fires the probe timeout; deadTimer closes the suspect
	// window.
	probeTimer Cancel
	deadTimer  Cancel
}

// ReportUnreachable feeds transport-level evidence into the detector: a
// dead connection (TCP write failure, failed redial) suspects the peer
// immediately instead of waiting for the next probe round. It is safe to
// call from any goroutine; with the detector disabled it is a no-op.
func (n *Node) ReportUnreachable(peer overlay.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive || n.peers == nil || peer == n.id {
		return
	}
	// Transport-level unreachability also evicts the peer's directory
	// entry (no tombstone: a redial may succeed and gossip re-admits it) —
	// directed probes must not chase a peer the transport cannot reach.
	n.dirEvict(peer, directory.EvictUnreachable)
	ph := n.peerHealthFor(peer)
	if ph.state != stateAlive {
		return
	}
	n.suspectPeer(peer, ph)
}

// peerHealthFor returns (creating if needed) the health record for peer.
// Caller holds the lock and has checked n.peers != nil.
func (n *Node) peerHealthFor(peer overlay.NodeID) *peerHealth {
	ph := n.peers[peer]
	if ph == nil {
		ph = &peerHealth{}
		n.peers[peer] = ph
	}
	return ph
}

// peerDead reports whether the detector has confirmed peer dead. Caller
// holds the lock.
func (n *Node) peerDead(peer overlay.NodeID) bool {
	if n.peers == nil {
		return false
	}
	ph := n.peers[peer]
	return ph != nil && ph.state == stateDead
}

// peerLive reports whether the membership plane affirmatively vouches for
// peer: the detector is enabled, holds a probe record, and has not
// convicted it. Distinct from !peerDead, which is also true when
// membership is off or the peer was never probed — peerLive demands
// positive evidence. Caller holds the lock.
func (n *Node) peerLive(peer overlay.NodeID) bool {
	if n.peers == nil || peer == 0 || peer == n.id {
		return false
	}
	ph := n.peers[peer]
	return ph != nil && ph.state != stateDead
}

// peerSuspect reports whether peer is currently under suspicion. Caller
// holds the lock.
func (n *Node) peerSuspect(peer overlay.NodeID) bool {
	if n.peers == nil {
		return false
	}
	ph := n.peers[peer]
	return ph != nil && ph.state == stateSuspect
}

// livePeers returns the current neighbors not marked dead, in the
// environment's order. It filters Env.Neighbors' slice in place, so the
// result is valid only until the next Neighbors call. Caller holds the
// lock.
func (n *Node) livePeers() []overlay.NodeID {
	neighbors := n.env.Neighbors()
	out := neighbors[:0]
	for _, nb := range neighbors {
		if !n.peerDead(nb) {
			out = append(out, nb)
		}
	}
	return out
}

// probeTick probes the next neighbor in rotation and re-arms itself.
func (n *Node) probeTick() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return
	}
	if targets := n.livePeers(); len(targets) > 0 {
		n.probeIdx++
		n.probePeer(targets[n.probeIdx%len(targets)])
	}
	n.probeCancel = n.env.Schedule(n.cfg.ProbeInterval, n.probeFn)
}

// probePeer sends one PING to peer and arms its probe timeout. Caller holds
// the lock.
func (n *Node) probePeer(peer overlay.NodeID) {
	ph := n.peerHealthFor(peer)
	if ph.state == stateDead {
		return
	}
	seq := n.nextSeq()
	ph.awaiting = true
	ph.awaitSeq = seq
	if ph.probeTimer != nil {
		ph.probeTimer()
	}
	n.env.Send(peer, Message{Type: MsgPing, From: n.id, Seq: seq, Peers: n.gossipPeers(), Dir: n.dirGossipPayload()})
	ph.probeTimer = n.env.Schedule(n.cfg.ProbeTimeout, func() { n.probeTimeoutFire(peer) })
}

// gossipPeers snapshots the node's non-dead neighbor list for the Peers
// payload of a PING or PONG. Caller holds the lock.
func (n *Node) gossipPeers() []overlay.NodeID {
	live := n.livePeers()
	out := make([]overlay.NodeID, len(live))
	copy(out, live)
	return out
}

// probeTimeoutFire handles an unanswered probe: an alive peer becomes
// suspect; a suspected peer is re-probed immediately so a recovering or
// jittered link gets every chance to refute before the suspect window
// closes.
func (n *Node) probeTimeoutFire(peer overlay.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive || n.peers == nil {
		return
	}
	ph := n.peers[peer]
	if ph == nil || !ph.awaiting {
		return // answered in time
	}
	ph.awaiting = false
	switch ph.state {
	case stateAlive:
		n.suspectPeer(peer, ph)
	case stateSuspect:
		n.probePeer(peer)
	}
}

// suspectPeer moves peer from alive to suspect: the dead timer starts and a
// fast re-probe goes out immediately. Caller holds the lock.
func (n *Node) suspectPeer(peer overlay.NodeID, ph *peerHealth) {
	ph.state = stateSuspect
	// A suspect is no directed-probe candidate: evict its digest now
	// (tombstone-free, so a refutation's next gossip re-admits it).
	n.dirEvict(peer, directory.EvictSuspect)
	n.emitSpan(TraceEvent{Kind: SpanSuspect, Peer: peer})
	n.obs.PeerSuspected(n.env.Now(), n.id, peer)
	if ph.deadTimer != nil {
		ph.deadTimer()
	}
	ph.deadTimer = n.env.Schedule(n.cfg.SuspectTimeout, func() { n.confirmDead(peer) })
	n.probePeer(peer)
}

// refutePeer records liveness evidence for peer (an inbound PING or PONG):
// outstanding probes are settled and a suspicion is lifted. Dead verdicts
// are terminal and are not refuted. Caller holds the lock.
func (n *Node) refutePeer(peer overlay.NodeID) {
	ph := n.peerHealthFor(peer)
	if ph.state == stateDead {
		return
	}
	ph.awaiting = false
	if ph.probeTimer != nil {
		ph.probeTimer()
		ph.probeTimer = nil
	}
	if ph.state == stateSuspect {
		ph.state = stateAlive
		if ph.deadTimer != nil {
			ph.deadTimer()
			ph.deadTimer = nil
		}
		n.obs.PeerRefuted(n.env.Now(), n.id, peer)
	}
}

// confirmDead closes a suspect window: the peer is declared dead (terminal),
// its link pruned, and degree repair attempted.
func (n *Node) confirmDead(peer overlay.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive || n.peers == nil {
		return
	}
	ph := n.peers[peer]
	if ph == nil || ph.state != stateSuspect {
		return
	}
	ph.state = stateDead
	ph.awaiting = false
	if ph.probeTimer != nil {
		ph.probeTimer()
		ph.probeTimer = nil
	}
	ph.deadTimer = nil
	// The dead verdict is terminal: tombstone the directory entry so only
	// a strictly greater incarnation (a restarted instance) is re-learned.
	n.dirInvalidate(peer)
	n.emitSpan(TraceEvent{Kind: SpanPeerDead, Peer: peer})
	n.obs.PeerDead(n.env.Now(), n.id, peer)
	if n.menv != nil {
		n.menv.PruneLink(peer)
		n.repairDegree(peer)
	}
}

// repairDegree reconnects to a neighbor-of-neighbor after the link to dead
// was pruned, preserving the MaxDegree bound. Candidates come from the peer
// lists gossiped on PING/PONG — the dead node's last-known neighbors first
// (they lost a link too), then the rest of the cached lists. Caller holds
// the lock.
func (n *Node) repairDegree(dead overlay.NodeID) {
	if n.cfg.MaxDegree > 0 && len(n.livePeers()) >= n.cfg.MaxDegree {
		return
	}
	current := make(map[overlay.NodeID]bool)
	for _, nb := range n.env.Neighbors() {
		current[nb] = true
	}
	eligible := func(id overlay.NodeID) bool {
		return id != n.id && !current[id] && !n.peerDead(id) && !n.peerSuspect(id)
	}
	dedup := make(map[overlay.NodeID]bool)
	var candidates []overlay.NodeID
	gather := func(list []overlay.NodeID) []overlay.NodeID {
		// Sorted iteration keeps candidate order independent of map
		// history; the shuffle below provides the randomness.
		sorted := append([]overlay.NodeID(nil), list...)
		sort.Slice(sorted, func(i, k int) bool { return sorted[i] < sorted[k] })
		var out []overlay.NodeID
		for _, id := range sorted {
			if eligible(id) && !dedup[id] {
				dedup[id] = true
				out = append(out, id)
			}
		}
		return out
	}
	primary := gather(n.nbrPeers[dead])
	var rest []overlay.NodeID
	others := make([]overlay.NodeID, 0, len(n.nbrPeers))
	for id := range n.nbrPeers {
		if id != dead {
			others = append(others, id)
		}
	}
	sort.Slice(others, func(i, k int) bool { return others[i] < others[k] })
	for _, id := range others {
		rest = append(rest, gather(n.nbrPeers[id])...)
	}
	rng := n.env.Rand()
	rng.Shuffle(len(primary), func(i, k int) { primary[i], primary[k] = primary[k], primary[i] })
	rng.Shuffle(len(rest), func(i, k int) { rest[i], rest[k] = rest[k], rest[i] })
	candidates = append(primary, rest...)
	for _, cand := range candidates {
		if !n.menv.Reconnect(cand, n.cfg.MaxDegree) {
			continue
		}
		n.emitSpan(TraceEvent{
			Kind: SpanRepair, Peer: cand, Origin: dead,
			Fanout: len(n.env.Neighbors()),
		})
		n.obs.LinkRepaired(n.env.Now(), n.id, dead, cand)
		return
	}
}

// handlePing answers a liveness probe and harvests its gossip. Traffic from
// a peer already confirmed dead is ignored: the verdict is terminal, so the
// "never address a dead peer" invariant stays clean. Caller holds the lock.
func (n *Node) handlePing(m Message) {
	if n.peers == nil || n.peerDead(m.From) {
		return
	}
	n.nbrPeers[m.From] = m.Peers
	n.learnDigests(m)
	n.refutePeer(m.From)
	n.env.Send(m.From, Message{Type: MsgPong, From: n.id, Seq: m.Seq, Peers: n.gossipPeers(), Dir: n.dirGossipPayload()})
}

// handlePong settles an outstanding probe. Caller holds the lock.
func (n *Node) handlePong(m Message) {
	if n.peers == nil || n.peerDead(m.From) {
		return
	}
	n.nbrPeers[m.From] = m.Peers
	n.learnDigests(m)
	n.refutePeer(m.From)
}

// cancelMembershipTimers stops the probe loop and every per-peer timer
// (node crash or shutdown). Caller holds the lock.
func (n *Node) cancelMembershipTimers() {
	if n.probeCancel != nil {
		n.probeCancel()
		n.probeCancel = nil
	}
	for _, ph := range n.peers {
		if ph.probeTimer != nil {
			ph.probeTimer()
			ph.probeTimer = nil
		}
		if ph.deadTimer != nil {
			ph.deadTimer()
			ph.deadTimer = nil
		}
	}
}

// membershipDelayBound is a compile-time reminder that the defaults keep the
// promised detection bound: interval + probe timeout + suspect window must
// not exceed two probe intervals.
var _ = func() time.Duration {
	const bound = 2 * DefaultProbeInterval
	if DefaultProbeInterval+DefaultProbeTimeout+DefaultSuspectTimeout > bound {
		panic("membership defaults break the two-interval detection bound")
	}
	return bound
}()
