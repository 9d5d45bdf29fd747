package overlay

import (
	"fmt"
	"time"
)

// LatencyModel assigns one-way message delays between overlay nodes.
type LatencyModel interface {
	// Delay returns the one-way latency from one node to another. It must
	// be deterministic for a given pair and strictly positive.
	Delay(from, to NodeID) time.Duration
}

// PairwiseLatency is a deterministic latency model: every unordered node
// pair gets a fixed one-way delay drawn uniformly from [Min, Max] by
// hashing the pair with a salt (FNV-1a, so runs reproduce across processes).
// This models the paper's "realistic round-trip delays" without storing an
// n² matrix.
type PairwiseLatency struct {
	Min, Max time.Duration
	salt     uint64
}

var _ LatencyModel = (*PairwiseLatency)(nil)

// NewPairwiseLatency builds a model with delays in [min, max], deterministic
// for a given salt.
func NewPairwiseLatency(min, max time.Duration, salt uint64) (*PairwiseLatency, error) {
	if min <= 0 || max < min {
		return nil, fmt.Errorf("invalid latency range [%v, %v]", min, max)
	}
	return &PairwiseLatency{Min: min, Max: max, salt: salt}, nil
}

// DefaultLatency mirrors wide-area grid deployments: 5–100 ms one way
// (10–200 ms round trip).
func DefaultLatency(salt uint64) *PairwiseLatency {
	m, err := NewPairwiseLatency(5*time.Millisecond, 100*time.Millisecond, salt)
	if err != nil {
		// Unreachable: constants are valid.
		panic(err)
	}
	return m
}

// Delay implements LatencyModel. The delay is symmetric in the pair.
func (l *PairwiseLatency) Delay(from, to NodeID) time.Duration {
	a, b := from, to
	if a > b {
		a, b = b, a
	}
	span := uint64(l.Max - l.Min)
	if span == 0 {
		return l.Min
	}
	// FNV-1a over the little-endian bytes of (a, b, salt), folded in
	// directly rather than packed into a buffer for a hash/fnv hasher: this
	// runs once per simulated hop.
	h := uint64(fnvOffset64)
	for _, v := range [3]uint64{uint64(uint32(a)), uint64(uint32(b)), l.salt} {
		for i := 0; i < 64; i += 8 {
			h ^= (v >> i) & 0xff
			h *= fnvPrime64
		}
	}
	return l.Min + time.Duration(h%(span+1))
}

// The 64-bit FNV-1a parameters (as in hash/fnv).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// FixedLatency returns the same delay for every pair; useful in tests.
type FixedLatency time.Duration

var _ LatencyModel = FixedLatency(0)

// Delay implements LatencyModel.
func (f FixedLatency) Delay(_, _ NodeID) time.Duration {
	return time.Duration(f)
}

// SiteLatency models a grid of clusters: nodes are partitioned into sites
// by ID, pairs within a site see LAN-class delays and pairs across sites
// WAN-class delays (each drawn deterministically per pair, like
// PairwiseLatency). This reflects real grid deployments, where a virtual
// organization federates whole clusters.
type SiteLatency struct {
	sites int
	lan   *PairwiseLatency
	wan   *PairwiseLatency
}

var _ LatencyModel = (*SiteLatency)(nil)

// NewSiteLatency builds a model with the given number of sites; LAN delays
// span [0.2ms, 2ms] and WAN delays [10ms, 200ms].
func NewSiteLatency(sites int, salt uint64) (*SiteLatency, error) {
	if sites < 1 {
		return nil, fmt.Errorf("site count %d must be positive", sites)
	}
	lan, err := NewPairwiseLatency(200*time.Microsecond, 2*time.Millisecond, salt)
	if err != nil {
		return nil, err
	}
	wan, err := NewPairwiseLatency(10*time.Millisecond, 200*time.Millisecond, salt+1)
	if err != nil {
		return nil, err
	}
	return &SiteLatency{sites: sites, lan: lan, wan: wan}, nil
}

// Site reports which site a node belongs to.
func (s *SiteLatency) Site(id NodeID) int {
	site := int(id) % s.sites
	if site < 0 {
		site += s.sites
	}
	return site
}

// Delay implements LatencyModel.
func (s *SiteLatency) Delay(from, to NodeID) time.Duration {
	if s.Site(from) == s.Site(to) {
		return s.lan.Delay(from, to)
	}
	return s.wan.Delay(from, to)
}
