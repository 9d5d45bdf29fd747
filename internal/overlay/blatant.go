package overlay

import (
	"fmt"
	"math"
	"math/rand"
)

// BlatantConfig parameterizes the swarm topology manager.
type BlatantConfig struct {
	// TargetPathLength is the average path length bound the manager
	// works toward (9 hops in the paper's evaluation).
	TargetPathLength float64

	// JoinDegree is how many random existing nodes a newly joining node
	// links to.
	JoinDegree int

	// MinDegree is the degree below which a node's links are never
	// pruned.
	MinDegree int

	// MaxDegree is the degree above which prune ants consider removing
	// redundant links.
	MaxDegree int

	// AntsPerRound is how many discovery ants each optimization round
	// launches.
	AntsPerRound int

	// PathSamples bounds the BFS sources used to estimate the average
	// path length each round (0 = exact).
	PathSamples int
}

// DefaultBlatantConfig matches the paper's evaluation overlay envelope:
// bounded average path length of 9 with a mean degree around 4.
func DefaultBlatantConfig() BlatantConfig {
	return BlatantConfig{
		TargetPathLength: 9,
		JoinDegree:       2,
		MinDegree:        2,
		MaxDegree:        8,
		AntsPerRound:     64,
		PathSamples:      48,
	}
}

// Validate reports the first structural problem with the configuration.
func (c BlatantConfig) Validate() error {
	switch {
	case c.TargetPathLength <= 1:
		return fmt.Errorf("target path length %v must exceed 1", c.TargetPathLength)
	case c.JoinDegree < 1:
		return fmt.Errorf("join degree %d must be positive", c.JoinDegree)
	case c.MinDegree < 1:
		return fmt.Errorf("min degree %d must be positive", c.MinDegree)
	case c.MaxDegree < c.MinDegree:
		return fmt.Errorf("max degree %d below min degree %d", c.MaxDegree, c.MinDegree)
	case c.AntsPerRound < 1:
		return fmt.Errorf("ants per round %d must be positive", c.AntsPerRound)
	}
	return nil
}

// hopBound is the largest whole hop count within TargetPathLength: a pair
// is distant exactly when its hop distance exceeds it. An infinite or NaN
// target bounds nothing, so only disconnected pairs count as distant.
func (c BlatantConfig) hopBound() int {
	if !(c.TargetPathLength < math.MaxInt32) {
		return math.MaxInt
	}
	return int(c.TargetPathLength)
}

// Blatant maintains an overlay graph with bounded average path length and a
// minimal link count, in the spirit of the BLATANT-S algorithm the paper's
// evaluation uses.
//
// The original algorithm circulates several species of ant-like agents
// between nodes; this implementation keeps the same observable behaviour
// with two ant species evaluated centrally per round:
//
//   - discovery/link ants sample node pairs and add a shortcut link when the
//     pair's hop distance exceeds the target bound;
//   - prune ants remove a link between two high-degree nodes when an
//     alternative short path makes it redundant.
//
// The centralized evaluation is a simulation-efficiency substitution: ARiA
// only observes the overlay through neighbor lists, so only the resulting
// topology envelope (path length bound, degree) matters.
type Blatant struct {
	cfg   BlatantConfig
	graph *Graph
	rng   *rand.Rand
	next  NodeID
}

// NewBlatant wraps an empty graph in a manager. The random source is
// retained for all topology decisions.
func NewBlatant(cfg BlatantConfig, rng *rand.Rand) (*Blatant, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("blatant config: %w", err)
	}
	return &Blatant{cfg: cfg, graph: NewGraph(), rng: rng}, nil
}

// Graph exposes the managed overlay graph.
func (b *Blatant) Graph() *Graph {
	return b.graph
}

// Join adds a new node to the overlay, wiring it to JoinDegree random
// existing nodes (or all of them, when fewer exist), and returns its ID.
func (b *Blatant) Join() NodeID {
	id := b.next
	b.next++
	b.graph.AddNode(id)
	existing := b.graph.Nodes()
	// Collect candidates other than the new node itself.
	candidates := existing[:0:0]
	for _, n := range existing {
		if n != id {
			candidates = append(candidates, n)
		}
	}
	b.rng.Shuffle(len(candidates), func(i, k int) {
		candidates[i], candidates[k] = candidates[k], candidates[i]
	})
	links := b.cfg.JoinDegree
	if links > len(candidates) {
		links = len(candidates)
	}
	for i := 0; i < links; i++ {
		b.graph.AddLink(id, candidates[i])
	}
	return id
}

// joinFrom is Join with the candidate pool supplied by the caller: it
// samples JoinDegree attachment points with a partial Fisher–Yates over
// candidates (which it reorders in place) instead of enumerating and fully
// shuffling the graph's node set. O(JoinDegree) per join, which is what
// makes 100k-node builds tractable; the attachment distribution is the
// same as Join's, but the RNG draw sequence differs, so Build only routes
// through here above largeBuildThreshold to keep small-overlay streams —
// and every existing seeded scenario — unchanged.
func (b *Blatant) joinFrom(candidates []NodeID) NodeID {
	id := b.next
	b.next++
	b.graph.AddNode(id)
	links := b.cfg.JoinDegree
	if links > len(candidates) {
		links = len(candidates)
	}
	for i := 0; i < links; i++ {
		k := i + b.rng.Intn(len(candidates)-i)
		candidates[i], candidates[k] = candidates[k], candidates[i]
		b.graph.AddLink(id, candidates[i])
	}
	return id
}

// Round launches one batch of ants: discovery ants that may add shortcut
// links, then prune ants that may remove redundant ones. It returns the
// number of links added and removed.
func (b *Blatant) Round() (added, removed int) {
	nodes := b.graph.Nodes()
	if len(nodes) < 2 {
		return 0, 0
	}
	bound := b.cfg.hopBound()
	for i := 0; i < b.cfg.AntsPerRound; i++ {
		u := nodes[b.rng.Intn(len(nodes))]
		v := nodes[b.rng.Intn(len(nodes))]
		if u == v {
			continue
		}
		d := b.graph.distanceWithin(u, v, bound)
		switch {
		case d < 0:
			// Distant or disconnected pair: add a shortcut.
			if b.graph.AddLink(u, v) {
				added++
			}
		case d == 1:
			// Prune ant: drop the link if both endpoints are
			// over-connected and the link is redundant.
			if b.pruneIfRedundant(u, v) {
				removed++
			}
		}
	}
	return added, removed
}

// pruneIfRedundant removes link (u,v) when both endpoints exceed MaxDegree
// and remain close without it.
func (b *Blatant) pruneIfRedundant(u, v NodeID) bool {
	if b.graph.Degree(u) <= b.cfg.MaxDegree || b.graph.Degree(v) <= b.cfg.MaxDegree {
		return false
	}
	b.graph.RemoveLink(u, v)
	if b.graph.distanceWithin(u, v, b.cfg.hopBound()) < 0 {
		// Not redundant after all: restore.
		b.graph.AddLink(u, v)
		return false
	}
	return true
}

// Stabilize runs optimization rounds until the sampled average path length
// is within the target bound and the graph is connected, or maxRounds is
// exhausted. It returns the number of rounds executed and the final stats.
func (b *Blatant) Stabilize(maxRounds int) (int, PathStats) {
	var stats PathStats
	for round := 1; round <= maxRounds; round++ {
		b.Round()
		stats = b.graph.SamplePathStats(b.rng, b.cfg.PathSamples)
		if stats.Unreachable == 0 && stats.AveragePathLength <= b.cfg.TargetPathLength {
			return round, stats
		}
	}
	return maxRounds, stats
}

// largeBuildThreshold is the overlay size above which Build switches from
// per-join node-set shuffles (O(n² log n) total, fine at catalog scale) to
// the incremental candidate pool (O(n·JoinDegree)). Every checked-in
// scenario and seeded test sits below it, so their topology RNG streams
// are byte-for-byte unchanged.
const largeBuildThreshold = 4096

// Build constructs an n-node overlay: nodes join one at a time, then the
// manager stabilizes the topology. It is the standard way scenarios obtain
// their overlay.
func Build(n int, cfg BlatantConfig, rng *rand.Rand) (*Blatant, error) {
	if n < 1 {
		return nil, fmt.Errorf("overlay size %d must be positive", n)
	}
	b, err := NewBlatant(cfg, rng)
	if err != nil {
		return nil, err
	}
	if n > largeBuildThreshold {
		ids := make([]NodeID, 0, n)
		for i := 0; i < n; i++ {
			ids = append(ids, b.joinFrom(ids))
		}
	} else {
		for i := 0; i < n; i++ {
			b.Join()
		}
	}
	const maxRounds = 200
	if rounds, stats := b.Stabilize(maxRounds); rounds == maxRounds && stats.Unreachable > 0 {
		return nil, fmt.Errorf("overlay failed to stabilize after %d rounds (stats %+v)", maxRounds, stats)
	}
	return b, nil
}
