package directory

import (
	"cmp"
	"slices"
	"time"

	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/resource"
)

// Eviction reasons reported through OnEvict.
const (
	EvictCapacity    = "capacity"    // displaced by a fresher entry at full capacity
	EvictStale       = "stale"       // aged past the staleness TTL
	EvictSuspect     = "suspect"     // membership suspicion (re-learnable)
	EvictDead        = "dead"        // terminal dead verdict (tombstoned)
	EvictUnreachable = "unreachable" // transport-level send failure (re-learnable)
	EvictBusy        = "busy"        // peer shed load with a BUSY reply (re-learnable)
)

// entry is one cached digest with the local time it was (effectively)
// learned: now minus the digest's advertised age, so staleness survives
// gossip hops.
type entry struct {
	node        overlay.NodeID
	profile     resource.Profile
	incarnation uint64
	learnedAt   time.Duration
	load        int

	// queuedAt is the instant of the entry's one live expiry record. It
	// never lies past the entry's true expiry (learnedAt + ttl): a
	// refresh to a later learnedAt leaves the record where it is, and
	// sweep re-arms it at the true expiry when it comes due.
	queuedAt time.Duration

	// costEWMA tracks the node's observed ACCEPT costs (exponentially
	// weighted, costEWMAAlpha); costSamples counts observations. A node
	// that consistently bids high — slow hardware the perf index flatters,
	// or a queue the load hint understates — sinks in the candidate
	// ranking even while its digest looks attractive. The EWMA survives
	// digest refreshes (it is knowledge about the node, not about one
	// digest) and dies with the entry on eviction.
	costEWMA    float64
	costSamples int
}

// digest renders the entry as a wire digest aged at now.
func (e *entry) digest(now time.Duration) Digest {
	return Digest{Node: e.node, Profile: e.profile, Incarnation: e.incarnation, Age: now - e.learnedAt, Load: e.load}
}

// Store is a bounded, staleness-aware cache of remote node profiles. It is
// not internally synchronized: the protocol engine drives it under the node
// lock, exactly like the rest of the per-node state.
//
// Invalidation is incarnation-aware: a node invalidated as dead leaves a
// tombstone at its last known incarnation, and only a digest with a strictly
// greater incarnation (a restarted instance) is re-admitted. Suspicion and
// unreachability evict without a tombstone — the node may well be alive.
type Store struct {
	capacity int
	ttl      time.Duration

	// entries is a slab of entry values; index maps a cached node to its
	// slot and free lists vacated slots for reuse. Nothing in the slab,
	// the index or the heap below is a pointer, so the collector has
	// nothing to scan in a full cache.
	entries    []entry
	index      map[overlay.NodeID]int32
	free       []int32
	tombstones map[overlay.NodeID]uint64

	// expiry is a min-heap of (expiry instant, node) records holding one
	// live record per entry: the one at the entry's queuedAt. Learn
	// pushes a record only for a new entry or when a refresh moves the
	// expiry earlier (a higher incarnation carrying older knowledge). The
	// records of removed entries, and a record such a refresh supersedes,
	// stay behind as dead records that sweep discards when they come due.
	expiry expiryHeap

	// sorted holds the live slots in ascending node order, maintained
	// incrementally, so Gossip, Snapshot and the ranked reads walk the
	// cache in a fixed order without sorting or map lookups.
	sorted []int32

	// top is the ranked reads' selection scratch, reused across calls.
	top []ranked

	// gossipCursor rotates Gossip samples through the whole cache so
	// repeated probes spread different entries.
	gossipCursor int

	// OnEvict, when set, observes every entry removal with one of the
	// Evict* reasons. It must not call back into the store.
	OnEvict func(node overlay.NodeID, reason string)
}

// expiryRecord marks when a node's entry is next due for an expiry check.
type expiryRecord struct {
	at   time.Duration
	node overlay.NodeID
}

// expiryHeap is a binary min-heap ordered by (at, node).
type expiryHeap []expiryRecord

func (h expiryHeap) less(i, k int) bool {
	if h[i].at != h[k].at {
		return h[i].at < h[k].at
	}
	return h[i].node < h[k].node
}

func (h *expiryHeap) push(r expiryRecord) {
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

func (h *expiryHeap) pop() expiryRecord {
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
func New(capacity int, ttl time.Duration) *Store {
	return &Store{
		capacity:   capacity,
		ttl:        ttl,
		index:      make(map[overlay.NodeID]int32),
		tombstones: make(map[overlay.NodeID]uint64),
	}
}

// Len reports the number of cached entries (stale ones included until the
// next sweep).
func (s *Store) Len() int { return len(s.index) }

// Learn folds one digest into the cache, reporting whether it was admitted.
// Rejections: stale on arrival, tombstoned at or below the digest's
// incarnation, older than what is already cached, or staler than everything
// in a full cache.
func (s *Store) Learn(d Digest, now time.Duration) bool {
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
	if slot, ok := s.index[d.Node]; ok {
		e := &s.entries[slot]
		// Same node: a higher incarnation always wins (it is a newer
		// instance); within an incarnation, fresher knowledge wins.
		if d.Incarnation < e.incarnation ||
			(d.Incarnation == e.incarnation && learnedAt <= e.learnedAt) {
			return false
		}
		e.profile, e.incarnation, e.learnedAt, e.load = d.Profile, d.Incarnation, learnedAt, d.Load
		if learnedAt+s.ttl < e.queuedAt {
			s.arm(e) // older knowledge from a newer instance: expiry moved earlier
		}
		return true
	}
	if len(s.index) >= s.capacity {
		victim, ok := s.stalest()
		if !ok || s.entries[victim].learnedAt >= learnedAt {
			return false // the newcomer is the stalest of them all
		}
		s.remove(victim, EvictCapacity)
	}
	e := entry{node: d.Node, profile: d.Profile, incarnation: d.Incarnation, learnedAt: learnedAt, load: d.Load}
	var slot int32
	if n := len(s.free); n > 0 {
		slot, s.free = s.free[n-1], s.free[:n-1]
		s.entries[slot] = e
	} else {
		slot = int32(len(s.entries))
		s.entries = append(s.entries, e)
	}
	s.index[d.Node] = slot
	i, _ := s.position(d.Node)
	s.sorted = slices.Insert(s.sorted, i, slot)
	s.arm(&s.entries[slot])
	return true
}

// arm queues the entry's expiry record at its true expiry instant.
func (s *Store) arm(e *entry) {
	if s.ttl > 0 {
		e.queuedAt = e.learnedAt + s.ttl
		s.expiry.push(expiryRecord{at: e.queuedAt, node: e.node})
	}
}

// position binary-searches sorted for node, reporting its index (or the
// index it would be inserted at) and whether it is present.
func (s *Store) position(node overlay.NodeID) (int, bool) {
	return slices.BinarySearchFunc(s.sorted, node, func(slot int32, node overlay.NodeID) int {
		return cmp.Compare(s.entries[slot].node, node)
	})
}

// BumpLoad optimistically adjusts a cached entry's load hint by delta —
// an initiator that just assigned a job to the node knows its queue grew
// before any gossip can say so. No-op when the node is not cached; the next
// learned digest overwrites the adjustment with observed truth.
func (s *Store) BumpLoad(node overlay.NodeID, delta int) {
	if slot, ok := s.index[node]; ok {
		e := &s.entries[slot]
		e.load += delta
		if e.load < 0 {
			e.load = 0
		}
	}
}

// costEWMAAlpha is the weight of the newest ACCEPT-cost observation in the
// per-entry EWMA; ~3 observations dominate the estimate, so a node that
// turns slow is demoted within a few bids.
const costEWMAAlpha = 0.3

// costPenaltyMax clamps the relative cost factor applied in Candidates
// scoring to [1/costPenaltyMax, costPenaltyMax], so one wild bid cannot
// banish (or anoint) a node forever.
const costPenaltyMax = 2.0

// ObserveCost folds one observed ACCEPT cost from node into its cached
// cost EWMA. No-op when the node is not cached — a cost without a digest
// has nothing to attach to, and the next Learn starts the estimate fresh.
func (s *Store) ObserveCost(node overlay.NodeID, cost float64) {
	if cost < 0 {
		return
	}
	slot, ok := s.index[node]
	if !ok {
		return
	}
	e := &s.entries[slot]
	if e.costSamples == 0 {
		e.costEWMA = cost
	} else {
		e.costEWMA = costEWMAAlpha*cost + (1-costEWMAAlpha)*e.costEWMA
	}
	e.costSamples++
}

// stalest returns the slot of the entry with the oldest learnedAt (largest
// node ID breaking ties, so eviction order is deterministic).
func (s *Store) stalest() (int32, bool) {
	if len(s.sorted) == 0 {
		return 0, false
	}
	victim := s.sorted[0]
	for _, slot := range s.sorted[1:] {
		// Ascending node order: <= hands a tie to the larger node.
		if s.entries[slot].learnedAt <= s.entries[victim].learnedAt {
			victim = slot
		}
	}
	return victim, true
}

func (s *Store) remove(slot int32, reason string) {
	node := s.entries[slot].node
	if i, ok := s.position(node); ok {
		s.sorted = slices.Delete(s.sorted, i, i+1)
	}
	delete(s.index, node)
	s.entries[slot] = entry{}
	s.free = append(s.free, slot)
	if s.OnEvict != nil {
		s.OnEvict(node, reason)
	}
}

// Evict drops the entry for node (if cached) without a tombstone: the node
// may be alive, and fresh evidence re-admits it immediately.
func (s *Store) Evict(node overlay.NodeID, reason string) {
	if slot, ok := s.index[node]; ok {
		s.remove(slot, reason)
	}
}

// Invalidate drops the entry for node and tombstones its incarnation: only
// a strictly greater incarnation (a restarted instance) is ever re-admitted.
// Used for terminal dead verdicts.
func (s *Store) Invalidate(node overlay.NodeID) {
	inc := s.tombstones[node]
	if slot, ok := s.index[node]; ok && s.entries[slot].incarnation > inc {
		inc = s.entries[slot].incarnation
	}
	s.tombstones[node] = inc
	s.Evict(node, EvictDead)
}

// sweep lazily expires entries past the staleness TTL. The store has no
// timers of its own — determinism under the simulator comes from doing all
// expiry on the caller's clock at read time. It pops every due record: a
// dead one (its entry is gone, or has queued another record since) is
// discarded, and a live one whose entry was refreshed since is re-armed at
// the entry's true expiry.
// An entry is evicted only when the record at its true expiry comes due,
// so one sweep evicts exactly the entries aged past the TTL, in (expiry
// instant, node) order.
func (s *Store) sweep(now time.Duration) {
	if s.ttl <= 0 {
		return
	}
	for len(s.expiry) > 0 && s.expiry[0].at <= now {
		r := s.expiry.pop()
		slot, ok := s.index[r.node]
		if !ok {
			continue
		}
		e := &s.entries[slot]
		if r.at != e.queuedAt {
			continue
		}
		if e.learnedAt+s.ttl > r.at {
			s.arm(e)
			continue
		}
		s.remove(slot, EvictStale)
	}
}

// ranked is one selected entry and its Candidates score.
type ranked struct {
	score float64
	slot  int32
}

// score is the entry's Candidates ranking key: a time-to-completion proxy,
// (load+1)/perf, scaled by the entry's cost EWMA over ewmaMean (clamped to
// [1/costPenaltyMax, costPenaltyMax]) when it has cost history.
func (e *entry) score(ewmaMean float64) float64 {
	base := float64(e.load+1) / e.profile.PerfIndex
	if e.costSamples == 0 || e.costEWMA <= 0 || ewmaMean <= 0 {
		return base
	}
	factor := e.costEWMA / ewmaMean
	if factor > costPenaltyMax {
		factor = costPenaltyMax
	} else if factor < 1/costPenaltyMax {
		factor = 1 / costPenaltyMax
	}
	return base * factor
}

// rank sweeps the cache, then selects into the top scratch the best k
// entries that match req and that keep (when non-nil) accepts, best first
// by (score, node). The cost EWMA mean is taken over every matching entry,
// kept or not, summed in node order. Selection is one bounded insertion
// pass, O(n·k) worst case and O(n) for the k = 1 picks.
func (s *Store) rank(req resource.Requirements, k int, now time.Duration, keep func(node overlay.NodeID, load int) bool) []ranked {
	s.sweep(now)
	s.top = s.top[:0]
	if k <= 0 {
		return s.top
	}
	var ewmaSum float64
	var ewmaN int
	for _, slot := range s.sorted {
		e := &s.entries[slot]
		if e.profile.Satisfies(req) && e.costSamples > 0 && e.costEWMA > 0 {
			ewmaSum += e.costEWMA
			ewmaN++
		}
	}
	var ewmaMean float64
	if ewmaN > 0 {
		ewmaMean = ewmaSum / float64(ewmaN)
	}
	for _, slot := range s.sorted {
		e := &s.entries[slot]
		if !e.profile.Satisfies(req) || (keep != nil && !keep(e.node, e.load)) {
			continue
		}
		c := ranked{score: e.score(ewmaMean), slot: slot}
		// Entries arrive in ascending node order, so a newcomer goes
		// behind every equal score: strict < is the (score, node) order.
		if len(s.top) == k && !(c.score < s.top[k-1].score) {
			continue
		}
		if len(s.top) < k {
			s.top = append(s.top, c)
		}
		i := len(s.top) - 1
		for ; i > 0 && c.score < s.top[i-1].score; i-- {
			s.top[i] = s.top[i-1]
		}
		s.top[i] = c
	}
	return s.top
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
func (s *Store) Candidates(req resource.Requirements, limit int, now time.Duration) []Digest {
	top := s.rank(req, limit, now, nil)
	if len(top) == 0 {
		return nil
	}
	return s.appendRanked(make([]Digest, 0, len(top)), top, now)
}

// AppendBest appends to dst the first k entries of the Candidates order
// among those keep accepts (nil keeps every entry), without materializing
// the rest. keep sees each matching entry's node and load hint and must not
// call back into the store; the cost penalty is still relative to the whole
// matching set.
func (s *Store) AppendBest(dst []Digest, req resource.Requirements, k int, now time.Duration, keep func(node overlay.NodeID, load int) bool) []Digest {
	return s.appendRanked(dst, s.rank(req, k, now, keep), now)
}

func (s *Store) appendRanked(dst []Digest, top []ranked, now time.Duration) []Digest {
	for _, r := range top {
		dst = append(dst, s.entries[r.slot].digest(now))
	}
	return dst
}

// Gossip returns up to k cached digests for piggybacking on a PING or PONG,
// rotating through the cache across calls so successive probes spread
// different entries.
func (s *Store) Gossip(k int, now time.Duration) []Digest {
	s.sweep(now)
	if k <= 0 || len(s.sorted) == 0 {
		return nil
	}
	return s.AppendGossip(make([]Digest, 0, min(k, len(s.sorted))), k, now)
}

// AppendGossip appends the samples Gossip would return to dst, so a
// caller that encodes them straight away can reuse one buffer.
func (s *Store) AppendGossip(dst []Digest, k int, now time.Duration) []Digest {
	s.sweep(now)
	if k <= 0 || len(s.sorted) == 0 {
		return dst
	}
	k = min(k, len(s.sorted))
	for i := 0; i < k; i++ {
		dst = append(dst, s.entries[s.sorted[(s.gossipCursor+i)%len(s.sorted)]].digest(now))
	}
	s.gossipCursor = (s.gossipCursor + k) % len(s.sorted)
	return dst
}

// Snapshot returns every cached digest in node-ID order, ages measured at
// now — the operator-debugging dump behind `ariactl -directory`.
func (s *Store) Snapshot(now time.Duration) []Digest {
	s.sweep(now)
	out := make([]Digest, 0, len(s.sorted))
	for _, slot := range s.sorted {
		out = append(out, s.entries[slot].digest(now))
	}
	return out
}
