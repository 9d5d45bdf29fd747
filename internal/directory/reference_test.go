package directory

import (
	"sort"
	"time"

	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/resource"
)

// This file is the differential oracle for the directory store: the store
// as it stood before entries moved into an indexed slab with one live
// expiry record each, kept verbatim apart from renamed identifiers
// (Store → refStore, New → newRefStore, and so on). FuzzStoreDifferential
// drives it and the real Store through the same operation sequences; any
// divergence in a read, or in the set of entries one call evicts, is a bug
// in the real store.

// entry is one cached digest with the local time it was (effectively)
// learned: now minus the digest's advertised age, so staleness survives
// gossip hops.
type refEntry struct {
	profile     resource.Profile
	incarnation uint64
	learnedAt   time.Duration
	load        int

	// costEWMA tracks the node's observed ACCEPT costs (exponentially
	// weighted, refCostEWMAAlpha); costSamples counts observations. A node
	// that consistently bids high — slow hardware the perf index flatters,
	// or a queue the load hint understates — sinks in the candidate
	// ranking even while its digest looks attractive. The EWMA survives
	// digest refreshes (it is knowledge about the node, not about one
	// digest) and dies with the entry on eviction.
	costEWMA    float64
	costSamples int
}

// Store is a bounded, staleness-aware cache of remote node profiles. It is
// not internally synchronized: the protocol engine drives it under the node
// lock, exactly like the rest of the per-node state.
//
// Invalidation is incarnation-aware: a node invalidated as dead leaves a
// tombstone at its last known incarnation, and only a digest with a strictly
// greater incarnation (a restarted instance) is re-admitted. Suspicion and
// unreachability evict without a tombstone — the node may well be alive.
type refStore struct {
	capacity int
	ttl      time.Duration

	entries    map[overlay.NodeID]*refEntry
	tombstones map[overlay.NodeID]uint64

	// expiry is a lazy min-heap of (expiry instant, node) records, one
	// pushed per Learn. sweep pops due records and re-checks the live
	// entry — a refreshed entry simply outlives its stale heap records —
	// so expiry is O(log n) amortized per Learn instead of a full-map
	// scan per read, which dominated directed-discovery profiles at 10k
	// entries.
	expiry refExpiryHeap

	// sorted caches the node IDs ascending, maintained incrementally, so
	// Gossip and Snapshot stop re-sorting the whole cache per call.
	sorted []overlay.NodeID

	// gossipCursor rotates Gossip samples through the whole cache so
	// repeated probes spread different entries.
	gossipCursor int

	// OnEvict, when set, observes every entry removal with one of the
	// Evict* reasons. It must not call back into the store.
	OnEvict func(node overlay.NodeID, reason string)
}

// refExpiryRecord marks one Learn's expiry instant for a node.
type refExpiryRecord struct {
	at   time.Duration
	node overlay.NodeID
}

// refExpiryHeap is a binary min-heap ordered by (at, node).
type refExpiryHeap []refExpiryRecord

func (h refExpiryHeap) less(i, k int) bool {
	if h[i].at != h[k].at {
		return h[i].at < h[k].at
	}
	return h[i].node < h[k].node
}

func (h *refExpiryHeap) push(r refExpiryRecord) {
	a := *h
	a = append(a, r)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !a.less(i, p) {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
	*h = a
}

func (h *refExpiryHeap) pop() refExpiryRecord {
	a := *h
	r := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a = a[:last]
	i := 0
	for {
		c := 2*i + 1
		if c >= len(a) {
			break
		}
		if c+1 < len(a) && a.less(c+1, c) {
			c++
		}
		if !a.less(c, i) {
			break
		}
		a[i], a[c] = a[c], a[i]
		i = c
	}
	*h = a
	return r
}

// New returns an empty store holding at most capacity entries, each expiring
// ttl after it was learned (as measured at the original observer).
func newRefStore(capacity int, ttl time.Duration) *refStore {
	return &refStore{
		capacity:   capacity,
		ttl:        ttl,
		entries:    make(map[overlay.NodeID]*refEntry),
		tombstones: make(map[overlay.NodeID]uint64),
	}
}

// Len reports the number of cached entries (stale ones included until the
// next sweep).
func (s *refStore) Len() int { return len(s.entries) }

// Learn folds one digest into the cache, reporting whether it was admitted.
// Rejections: stale on arrival, tombstoned at or below the digest's
// incarnation, older than what is already cached, or staler than everything
// in a full cache.
func (s *refStore) Learn(d Digest, now time.Duration) bool {
	if d.Profile.Validate() != nil {
		return false
	}
	learnedAt := now - d.Age
	if learnedAt < 0 {
		learnedAt = 0
	}
	if s.ttl > 0 && now-learnedAt >= s.ttl {
		return false
	}
	if ts, dead := s.tombstones[d.Node]; dead && d.Incarnation <= ts {
		return false
	}
	if cur, ok := s.entries[d.Node]; ok {
		// Same node: a higher incarnation always wins (it is a newer
		// instance); within an incarnation, fresher knowledge wins.
		if d.Incarnation < cur.incarnation ||
			(d.Incarnation == cur.incarnation && learnedAt <= cur.learnedAt) {
			return false
		}
		cur.profile, cur.incarnation, cur.learnedAt, cur.load = d.Profile, d.Incarnation, learnedAt, d.Load
		s.pushExpiry(d.Node, learnedAt)
		return true
	}
	if len(s.entries) >= s.capacity {
		victim, ok := s.stalest()
		if !ok || s.entries[victim].learnedAt >= learnedAt {
			return false // the newcomer is the stalest of them all
		}
		s.remove(victim, EvictCapacity)
	}
	s.entries[d.Node] = &refEntry{profile: d.Profile, incarnation: d.Incarnation, learnedAt: learnedAt, load: d.Load}
	s.sorted = refInsertID(s.sorted, d.Node)
	s.pushExpiry(d.Node, learnedAt)
	return true
}

// pushExpiry records when an entry learned at learnedAt goes stale.
func (s *refStore) pushExpiry(node overlay.NodeID, learnedAt time.Duration) {
	if s.ttl > 0 {
		s.expiry.push(refExpiryRecord{at: learnedAt + s.ttl, node: node})
	}
}

func refInsertID(s []overlay.NodeID, v overlay.NodeID) []overlay.NodeID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func refRemoveID(s []overlay.NodeID, v overlay.NodeID) []overlay.NodeID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return append(s[:i], s[i+1:]...)
	}
	return s
}

// BumpLoad optimistically adjusts a cached entry's load hint by delta —
// an initiator that just assigned a job to the node knows its queue grew
// before any gossip can say so. No-op when the node is not cached; the next
// learned digest overwrites the adjustment with observed truth.
func (s *refStore) BumpLoad(node overlay.NodeID, delta int) {
	if e, ok := s.entries[node]; ok {
		e.load += delta
		if e.load < 0 {
			e.load = 0
		}
	}
}

// refCostEWMAAlpha is the weight of the newest ACCEPT-cost observation in the
// per-entry EWMA; ~3 observations dominate the estimate, so a node that
// turns slow is demoted within a few bids.
const refCostEWMAAlpha = 0.3

// refCostPenaltyMax clamps the relative cost factor applied in Candidates
// scoring to [1/refCostPenaltyMax, refCostPenaltyMax], so one wild bid cannot
// banish (or anoint) a node forever.
const refCostPenaltyMax = 2.0

// ObserveCost folds one observed ACCEPT cost from node into its cached
// cost EWMA. No-op when the node is not cached — a cost without a digest
// has nothing to attach to, and the next Learn starts the estimate fresh.
func (s *refStore) ObserveCost(node overlay.NodeID, cost float64) {
	if cost < 0 {
		return
	}
	e, ok := s.entries[node]
	if !ok {
		return
	}
	if e.costSamples == 0 {
		e.costEWMA = cost
	} else {
		e.costEWMA = refCostEWMAAlpha*cost + (1-refCostEWMAAlpha)*e.costEWMA
	}
	e.costSamples++
}

// stalest returns the entry with the oldest learnedAt (largest node ID
// breaking ties, so eviction order is deterministic).
func (s *refStore) stalest() (overlay.NodeID, bool) {
	var victim overlay.NodeID
	found := false
	for id, e := range s.entries {
		if !found || e.learnedAt < s.entries[victim].learnedAt ||
			(e.learnedAt == s.entries[victim].learnedAt && id > victim) {
			victim, found = id, true
		}
	}
	return victim, found
}

func (s *refStore) remove(node overlay.NodeID, reason string) {
	delete(s.entries, node)
	s.sorted = refRemoveID(s.sorted, node)
	if s.OnEvict != nil {
		s.OnEvict(node, reason)
	}
}

// Evict drops the entry for node (if cached) without a tombstone: the node
// may be alive, and fresh evidence re-admits it immediately.
func (s *refStore) Evict(node overlay.NodeID, reason string) {
	if _, ok := s.entries[node]; ok {
		s.remove(node, reason)
	}
}

// Invalidate drops the entry for node and tombstones its incarnation: only
// a strictly greater incarnation (a restarted instance) is ever re-admitted.
// Used for terminal dead verdicts.
func (s *refStore) Invalidate(node overlay.NodeID) {
	inc := s.tombstones[node]
	if cur, ok := s.entries[node]; ok && cur.incarnation > inc {
		inc = cur.incarnation
	}
	s.tombstones[node] = inc
	s.Evict(node, EvictDead)
}

// sweep lazily expires entries past the staleness TTL. The store has no
// timers of its own — determinism under the simulator comes from doing all
// expiry on the caller's clock at read time. Due heap records whose entry
// was refreshed or removed since they were pushed are discarded; a live
// stale entry is evicted. Expiry order is (expiry instant, node id), which
// is deterministic for a given cache history.
func (s *refStore) sweep(now time.Duration) {
	if s.ttl <= 0 {
		return
	}
	for len(s.expiry) > 0 && s.expiry[0].at <= now {
		r := s.expiry.pop()
		e, ok := s.entries[r.node]
		if !ok {
			continue
		}
		if now-e.learnedAt >= s.ttl {
			s.remove(r.node, EvictStale)
		}
		// Otherwise the entry was refreshed; its newer record is still
		// in the heap.
	}
}

// Candidates returns up to limit cached nodes whose profile satisfies req,
// best first by a time-to-completion proxy: (load+1)/perf ascending — each
// queued job counted as one unit of work, the probe itself as another, all
// divided by the node's speed. Pure load ranking would herd jobs onto slow
// idle nodes; pure perf ranking would pile queues onto the few fast ones.
// Entries with observed ACCEPT-cost history additionally carry a relative
// penalty: the proxy is scaled by the node's cost EWMA over the mean EWMA
// of the matching set (clamped to [1/2, 2]), so a node whose real bids are
// consistently worse than its digest suggests sinks in the ranking. Node
// ID breaks ties, so candidate order is deterministic for a given cache
// state.
func (s *refStore) Candidates(req resource.Requirements, limit int, now time.Duration) []Digest {
	s.sweep(now)
	if limit <= 0 {
		return nil
	}
	var out []Digest
	var ewmaSum float64
	var ewmaN int
	for id, e := range s.entries {
		if e.profile.Satisfies(req) {
			out = append(out, Digest{Node: id, Profile: e.profile, Incarnation: e.incarnation, Age: now - e.learnedAt, Load: e.load})
			if e.costSamples > 0 && e.costEWMA > 0 {
				ewmaSum += e.costEWMA
				ewmaN++
			}
		}
	}
	var ewmaMean float64
	if ewmaN > 0 {
		ewmaMean = ewmaSum / float64(ewmaN)
	}
	score := func(d Digest) float64 {
		base := float64(d.Load+1) / d.Profile.PerfIndex
		e := s.entries[d.Node]
		if e == nil || e.costSamples == 0 || e.costEWMA <= 0 || ewmaMean <= 0 {
			return base
		}
		factor := e.costEWMA / ewmaMean
		if factor > refCostPenaltyMax {
			factor = refCostPenaltyMax
		} else if factor < 1/refCostPenaltyMax {
			factor = 1 / refCostPenaltyMax
		}
		return base * factor
	}
	sort.Slice(out, func(i, k int) bool {
		si, sk := score(out[i]), score(out[k])
		if si != sk {
			return si < sk
		}
		return out[i].Node < out[k].Node
	})
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Gossip returns up to k cached digests for piggybacking on a PING or PONG,
// rotating through the cache across calls so successive probes spread
// different entries.
func (s *refStore) Gossip(k int, now time.Duration) []Digest {
	s.sweep(now)
	if k <= 0 || len(s.entries) == 0 {
		return nil
	}
	ids := s.sorted
	if k > len(ids) {
		k = len(ids)
	}
	out := make([]Digest, 0, k)
	for i := 0; i < k; i++ {
		id := ids[(s.gossipCursor+i)%len(ids)]
		e := s.entries[id]
		out = append(out, Digest{Node: id, Profile: e.profile, Incarnation: e.incarnation, Age: now - e.learnedAt, Load: e.load})
	}
	s.gossipCursor = (s.gossipCursor + k) % len(ids)
	return out
}

// Snapshot returns every cached digest in node-ID order, ages measured at
// now — the operator-debugging dump behind `ariactl -directory`.
func (s *refStore) Snapshot(now time.Duration) []Digest {
	s.sweep(now)
	out := make([]Digest, 0, len(s.entries))
	for _, id := range s.sorted {
		e := s.entries[id]
		out = append(out, Digest{Node: id, Profile: e.profile, Incarnation: e.incarnation, Age: now - e.learnedAt, Load: e.load})
	}
	return out
}
