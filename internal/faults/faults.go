// Package faults provides a deterministic fault-injection plane for the
// message transports: per-link message drop, duplication, extra delivery
// jitter, timed network partitions (two-way or asymmetric one-way), and the
// gray-failure modes real grids suffer — slow-peer throttling and stalled
// (frozen-receiver) windows.
//
// The paper evaluates ARiA on a reliable network; this package models the
// unreliable one real grids run on. Every decision is drawn from a seeded
// random source supplied by the caller (the scenario runner derives it from
// the run seed), so a faulty run is exactly as reproducible as a clean one.
package faults

import (
	"fmt"
	"sync"
	"time"

	"github.com/smartgrid/aria/internal/overlay"
)

// Rand is the subset of *math/rand.Rand the model draws from; accepting an
// interface keeps the package mockable and makes the no-global-randomness
// rule explicit.
type Rand interface {
	Float64() float64
	Int63n(n int64) int64
}

// Config parameterizes a LinkModel. The zero value injects no faults.
type Config struct {
	// DropProb is the probability that an individual transmission is
	// lost in flight. Applied per message copy, independently.
	DropProb float64

	// DupProb is the probability that a transmission is delivered twice
	// (e.g. a retransmitting middlebox). Duplicates take independent
	// extra delays, so copies may reorder.
	DupProb float64

	// MaxExtraDelay adds uniform [0, MaxExtraDelay) jitter on top of the
	// transport's base latency, independently per delivered copy.
	MaxExtraDelay time.Duration

	// Partitions lists timed windows during which a node subset is cut
	// off from the rest of the overlay (messages crossing the cut are
	// dropped in both directions; messages within a side are unaffected).
	Partitions []Partition

	// Slowdowns lists timed windows during which every transmission
	// touching one of the listed nodes (as sender or receiver) gains
	// ExtraDelay of latency on top of the transport's base latency — the
	// slow-peer gray failure: degraded, never disconnected.
	Slowdowns []Slowdown

	// Stalls lists timed windows during which the listed nodes stop
	// processing inbound traffic without refusing it: transmissions to a
	// stalled node are buffered and delivered when the window ends, all at
	// once — the SIGSTOP analogue. The stalled node's own sends and local
	// timers are unaffected (a half-frozen process, which is exactly what
	// makes the failure gray).
	Stalls []Stall
}

// Partition isolates the listed nodes from everyone else during [Start, End).
type Partition struct {
	Start    time.Duration
	End      time.Duration
	Isolated []overlay.NodeID

	// OneWay, when set, severs only transmissions *toward* the isolated
	// set: isolated nodes can still send out across the cut, but nothing
	// reaches them (the "deaf node" asymmetric partition). When false the
	// cut drops both directions.
	OneWay bool
}

// Slowdown degrades the listed nodes' links during [Start, End): every
// transmission they send or receive is delayed by ExtraDelay.
type Slowdown struct {
	Start      time.Duration
	End        time.Duration
	Nodes      []overlay.NodeID
	ExtraDelay time.Duration
}

// Stall freezes the listed nodes' receive path during [Start, End):
// transmissions toward them are held and delivered at End.
type Stall struct {
	Start time.Duration
	End   time.Duration
	Nodes []overlay.NodeID
}

// Validate reports the first structural problem.
func (c Config) Validate() error {
	switch {
	case c.DropProb < 0 || c.DropProb >= 1:
		return fmt.Errorf("drop probability %v outside [0, 1)", c.DropProb)
	case c.DupProb < 0 || c.DupProb >= 1:
		return fmt.Errorf("duplication probability %v outside [0, 1)", c.DupProb)
	case c.MaxExtraDelay < 0:
		return fmt.Errorf("max extra delay %v must be non-negative", c.MaxExtraDelay)
	}
	for i, p := range c.Partitions {
		switch {
		case p.Start < 0:
			return fmt.Errorf("partition %d: negative start %v", i, p.Start)
		case p.End <= p.Start:
			return fmt.Errorf("partition %d: window [%v, %v) is empty", i, p.Start, p.End)
		case len(p.Isolated) == 0:
			return fmt.Errorf("partition %d: no isolated nodes", i)
		}
	}
	for i, s := range c.Slowdowns {
		switch {
		case s.Start < 0:
			return fmt.Errorf("slowdown %d: negative start %v", i, s.Start)
		case s.End <= s.Start:
			return fmt.Errorf("slowdown %d: window [%v, %v) is empty", i, s.Start, s.End)
		case len(s.Nodes) == 0:
			return fmt.Errorf("slowdown %d: no nodes", i)
		case s.ExtraDelay <= 0:
			return fmt.Errorf("slowdown %d: extra delay %v must be positive", i, s.ExtraDelay)
		}
	}
	for i, s := range c.Stalls {
		switch {
		case s.Start < 0:
			return fmt.Errorf("stall %d: negative start %v", i, s.Start)
		case s.End <= s.Start:
			return fmt.Errorf("stall %d: window [%v, %v) is empty", i, s.Start, s.End)
		case len(s.Nodes) == 0:
			return fmt.Errorf("stall %d: no nodes", i)
		}
	}
	return nil
}

// Enabled reports whether the configuration injects any fault at all.
func (c Config) Enabled() bool {
	return c.DropProb > 0 || c.DupProb > 0 || c.MaxExtraDelay > 0 ||
		len(c.Partitions) > 0 || len(c.Slowdowns) > 0 || len(c.Stalls) > 0
}

// Stats counts what the fault plane did to a run's traffic.
type Stats struct {
	// Sent is the number of transmissions presented to the model.
	Sent int
	// Dropped counts transmissions lost to random per-link loss.
	Dropped int
	// PartitionDropped counts transmissions lost to an active partition.
	PartitionDropped int
	// Duplicated counts transmissions delivered twice.
	Duplicated int
	// Slowed counts transmissions delayed by an active slowdown window.
	Slowed int
	// Stalled counts transmissions held by an active stall window.
	Stalled int
}

// Lost is the total number of transmissions that never arrived.
func (s Stats) Lost() int { return s.Dropped + s.PartitionDropped }

// Outcome describes the fate of one transmission: the message is delivered
// once per entry of ExtraDelays (each after the transport's base latency
// plus that extra delay); an empty slice means the message was dropped.
type Outcome struct {
	ExtraDelays []time.Duration
}

// Delivered reports whether at least one copy arrives.
func (o Outcome) Delivered() bool { return len(o.ExtraDelays) > 0 }

// LinkModel decides the fate of every transmission on a cluster's links.
// It is safe for concurrent use (the in-process transport sends from many
// goroutines); under the single-threaded simulator the lock is uncontended
// and the draw order — hence the run — stays deterministic.
type LinkModel struct {
	cfg     Config
	keySeed uint64

	mu       sync.Mutex
	rng      Rand
	isolated []map[overlay.NodeID]bool // parallel to cfg.Partitions
	slowed   []map[overlay.NodeID]bool // parallel to cfg.Slowdowns
	stalled  []map[overlay.NodeID]bool // parallel to cfg.Stalls
	stats    Stats
}

// NewLinkModel builds a model over the given seeded random source.
func NewLinkModel(cfg Config, rng Rand) (*LinkModel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("fault config: %w", err)
	}
	if rng == nil {
		return nil, fmt.Errorf("fault model needs a seeded random source")
	}
	l := &LinkModel{cfg: cfg, rng: rng}
	for _, p := range cfg.Partitions {
		l.isolated = append(l.isolated, idSet(p.Isolated))
	}
	for _, s := range cfg.Slowdowns {
		l.slowed = append(l.slowed, idSet(s.Nodes))
	}
	for _, s := range cfg.Stalls {
		l.stalled = append(l.stalled, idSet(s.Nodes))
	}
	return l, nil
}

// idSet builds a membership set from a node list.
func idSet(ids []overlay.NodeID) map[overlay.NodeID]bool {
	set := make(map[overlay.NodeID]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return set
}

// Plan decides what happens to one transmission from → to at the given
// time, updating the counters.
func (l *LinkModel) Plan(now time.Duration, from, to overlay.NodeID) Outcome {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats.Sent++
	if l.severed(now, from, to) {
		l.stats.PartitionDropped++
		return Outcome{}
	}
	if l.cfg.DropProb > 0 && l.rng.Float64() < l.cfg.DropProb {
		l.stats.Dropped++
		return Outcome{}
	}
	copies := 1
	if l.cfg.DupProb > 0 && l.rng.Float64() < l.cfg.DupProb {
		copies = 2
		l.stats.Duplicated++
	}
	gray, slowed, stalled := l.grayExtra(now, from, to)
	if slowed {
		l.stats.Slowed++
	}
	if stalled {
		l.stats.Stalled++
	}
	out := Outcome{ExtraDelays: make([]time.Duration, copies)}
	for i := range out.ExtraDelays {
		out.ExtraDelays[i] = gray
		if l.cfg.MaxExtraDelay > 0 {
			out.ExtraDelays[i] += time.Duration(l.rng.Int63n(int64(l.cfg.MaxExtraDelay)))
		}
	}
	return out
}

// grayExtra computes the deterministic gray-failure delay on one
// transmission: slowdown windows touching either endpoint add their latency,
// and a stall window covering the receiver holds the message until the
// window ends. The method reads only immutable state, so keyed (lock-free)
// and sequential planners share it.
func (l *LinkModel) grayExtra(now time.Duration, from, to overlay.NodeID) (extra time.Duration, slowed, stalled bool) {
	for i, s := range l.cfg.Slowdowns {
		if now >= s.Start && now < s.End && (l.slowed[i][from] || l.slowed[i][to]) {
			extra += s.ExtraDelay
			slowed = true
		}
	}
	for i, s := range l.cfg.Stalls {
		if now >= s.Start && now < s.End && l.stalled[i][to] {
			extra += s.End - now
			stalled = true
		}
	}
	return extra, slowed, stalled
}

// SetKeySeed arms the keyed draw path (PlanKeyed) with the run seed it
// mixes into every per-transmission hash. Call once, before the run.
func (l *LinkModel) SetKeySeed(seed uint64) {
	l.keySeed = seed
}

// PlanKeyed is Plan for the simulator: instead of drawing from the shared
// sequential source — whose draw order depends on how every sender's
// traffic interleaves — each transmission's fate is a pure hash of (key
// seed, link, per-sender transmission index). A change to one node's
// traffic therefore never reshuffles the faults injected on another's.
// Stats counters remain mutex-guarded (they are not behavior-affecting).
func (l *LinkModel) PlanKeyed(now time.Duration, from, to overlay.NodeID, key uint64) Outcome {
	l.mu.Lock()
	l.stats.Sent++
	severed := l.severed(now, from, to)
	if severed {
		l.stats.PartitionDropped++
	}
	l.mu.Unlock()
	if severed {
		return Outcome{}
	}
	r := hashRand{state: mix64(l.keySeed ^ mix64(uint64(uint32(from))) ^ mix64(uint64(uint32(to))<<1) ^ key)}
	if l.cfg.DropProb > 0 && r.Float64() < l.cfg.DropProb {
		l.mu.Lock()
		l.stats.Dropped++
		l.mu.Unlock()
		return Outcome{}
	}
	copies := 1
	if l.cfg.DupProb > 0 && r.Float64() < l.cfg.DupProb {
		copies = 2
		l.mu.Lock()
		l.stats.Duplicated++
		l.mu.Unlock()
	}
	gray, slowed, stalled := l.grayExtra(now, from, to)
	if slowed || stalled {
		l.mu.Lock()
		if slowed {
			l.stats.Slowed++
		}
		if stalled {
			l.stats.Stalled++
		}
		l.mu.Unlock()
	}
	out := Outcome{ExtraDelays: make([]time.Duration, copies)}
	for i := range out.ExtraDelays {
		out.ExtraDelays[i] = gray
		if l.cfg.MaxExtraDelay > 0 {
			out.ExtraDelays[i] += time.Duration(r.Int63n(int64(l.cfg.MaxExtraDelay)))
		}
	}
	return out
}

// hashRand is a tiny SplitMix64 stream seeded per transmission; it backs
// the keyed fault draws with no shared state at all.
type hashRand struct{ state uint64 }

func (r *hashRand) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	return mix64(r.state)
}

// Float64 returns a uniform value in [0, 1).
func (r *hashRand) Float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// Int63n returns a uniform value in [0, n); the modulo bias is negligible
// for the sub-second ranges fault jitter uses.
func (r *hashRand) Int63n(n int64) int64 {
	return int64(r.next() % uint64(n))
}

// mix64 is the SplitMix64 finalizer (a bijective avalanche over uint64).
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// severed reports whether an active partition separates from and to. A
// two-way partition drops anything crossing the cut; a one-way partition
// drops only traffic entering the isolated set (the isolated nodes stay
// able to send out, making the failure asymmetric). Caller holds the lock.
func (l *LinkModel) severed(now time.Duration, from, to overlay.NodeID) bool {
	for i, p := range l.cfg.Partitions {
		if now < p.Start || now >= p.End {
			continue
		}
		if p.OneWay {
			if !l.isolated[i][from] && l.isolated[i][to] {
				return true
			}
			continue
		}
		if l.isolated[i][from] != l.isolated[i][to] {
			return true
		}
	}
	return false
}

// Stats snapshots the counters.
func (l *LinkModel) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}
