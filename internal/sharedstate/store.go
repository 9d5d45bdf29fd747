// Package sharedstate implements the cluster-state view behind the
// shared-state optimistic scheduler arm (Omega/arktos-style "shared-state
// lock-free optimistic concurrent scheduling", the third architecture next
// to ARiA's fully distributed flood and the centralized oracle baseline).
//
// The view generalizes the gossip-fed directory cache into a full per-node
// queue/capability picture: each entry carries the subject's resource
// profile (capability), its queued+running depth (queue state), the
// incarnation that produced it, and its staleness — all fed by the same
// channels that feed directed discovery (digests piggybacked on PING/PONG
// gossip and on ACCEPT/INFORM traffic) and invalidated the same ways
// (staleness TTL, incarnation tombstones on dead verdicts, eviction on
// suspicion or unreachability). The directory's bounded store provides
// that substrate; this package layers the optimistic-concurrency state on
// top: in-flight commit reservations, slot-aware candidate selection, and
// conflict feedback that corrects the view faster than gossip would.
//
// The protocol flow the view serves: an initiator Picks the best provider
// whose believed free slots (bound − load − local in-flight commits) are
// positive, commits an ASSIGN optimistically, and on a typed CONFLICT
// reply refreshes the view from the reply's piggybacked digest and retries
// elsewhere with bounded backoff, falling back to the classic REQUEST
// flood after K failed commits. Like the rest of the per-node protocol
// state, a Store is not internally synchronized: the engine drives it
// under the node lock.
package sharedstate

import (
	"time"

	"github.com/smartgrid/aria/internal/directory"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/resource"
)

// Store is one node's eventually-consistent view of the cluster plus its
// own optimistic-commit bookkeeping.
type Store struct {
	cache *directory.Store
	bound int

	// inflight counts this node's own unresolved commits per provider.
	// They are reservations against the cached load hint: picking the
	// same provider for two concurrent commits when the view only shows
	// one free slot would manufacture a conflict the initiator could have
	// avoided locally.
	inflight map[overlay.NodeID]int
}

// New wraps the given view substrate (the node's gossip-fed directory
// store) with commit bookkeeping against the given provider queue bound.
func New(cache *directory.Store, bound int) *Store {
	return &Store{
		cache:    cache,
		bound:    bound,
		inflight: make(map[overlay.NodeID]int),
	}
}

// Cache exposes the underlying view substrate for feeding and maintenance
// (gossip learns, evictions, tombstones) — the same store the directory
// plane drives.
func (s *Store) Cache() *directory.Store { return s.cache }

// Bound is the provider queue bound commits are validated against.
func (s *Store) Bound() int { return s.bound }

// Pick returns the best cached provider for req believed to have a free
// slot: profile satisfies the requirements, and cached load plus this
// node's own in-flight commits stays below the bound. The view ranks by the
// directory's time-to-completion proxy (load-, perf-, and observed-cost-
// aware) and Pick takes the best usable entry in one filtered pass. Nodes
// for which excluded reports true (dead, suspect, already conflicted this
// round, the initiator itself) are skipped.
func (s *Store) Pick(req resource.Requirements, now time.Duration, excluded func(overlay.NodeID) bool) (directory.Digest, bool) {
	var best [1]directory.Digest
	got := s.cache.AppendBest(best[:0], req, 1, now, func(node overlay.NodeID, load int) bool {
		if excluded != nil && excluded(node) {
			return false
		}
		return load+s.inflight[node] < s.bound
	})
	if len(got) == 0 {
		return directory.Digest{}, false
	}
	return got[0], true
}

// CommitStarted reserves one believed slot at node while a commit is in
// flight.
func (s *Store) CommitStarted(node overlay.NodeID) {
	s.inflight[node]++
}

// CommitResolved releases the reservation taken by CommitStarted, however
// the commit ended (granted, conflicted, or timed out).
func (s *Store) CommitResolved(node overlay.NodeID) {
	if c := s.inflight[node]; c > 1 {
		s.inflight[node] = c - 1
	} else {
		delete(s.inflight, node)
	}
}

// Inflight reports this node's unresolved commit count against node.
func (s *Store) Inflight(node overlay.NodeID) int { return s.inflight[node] }

// ObserveGranted folds a successful commit into the view: the provider's
// queue grew by one, and waiting for gossip to say so would herd the next
// pick at the same node.
func (s *Store) ObserveGranted(node overlay.NodeID) {
	s.cache.BumpLoad(node, 1)
}

// ObserveBusy folds a busy/lost CONFLICT into the view: the provider's
// load hint is saturated to the bound so it is not re-picked until a
// fresher digest (typically the one piggybacked on the CONFLICT itself,
// learned by the caller before this correction) proves a slot free.
func (s *Store) ObserveBusy(node overlay.NodeID) {
	s.cache.BumpLoad(node, s.bound)
}

// ObserveStale drops a provider the view had structurally wrong (restart
// incarnation mismatch, capability mismatch): the entry is evicted without
// a tombstone, and the next honest digest re-admits the node as it really
// is.
func (s *Store) ObserveStale(node overlay.NodeID) {
	s.cache.Evict(node, directory.EvictStale)
}

// ObserveUnreachable drops a provider whose commit went unanswered; the
// membership plane decides whether it is actually dead.
func (s *Store) ObserveUnreachable(node overlay.NodeID) {
	s.cache.Evict(node, directory.EvictUnreachable)
}
