package overlay

import (
	"math"
	"math/rand"
	"slices"
)

// stamp reserves k fresh generation values for one search and returns the
// first; no node's mark equals any of them until the search sets it. It
// also grows mark to cover every node added since the last search.
func (g *Graph) stamp(k uint32) uint32 {
	if n := len(g.adj); len(g.mark) < n {
		g.mark = append(g.mark, make([]uint32, n-len(g.mark))...)
	}
	if g.gen > math.MaxUint32-k {
		clear(g.mark)
		g.gen = 0
	}
	first := g.gen + 1
	g.gen += k
	return first
}

// sweep runs a breadth-first search from src over the graph's scratch and
// calls level(d, frontier) for every depth d ≥ 0 with the nodes first
// reached at that depth (src alone at depth 0). frontier aliases the
// scratch and is valid only during the call.
func (g *Graph) sweep(src NodeID, level func(d int, frontier []NodeID)) {
	if !g.HasNode(src) {
		return
	}
	seen := g.stamp(1)
	g.mark[src] = seen
	queue := append(g.queue[:0], src)
	for d, start := 0, 0; start < len(queue); d++ {
		end := len(queue)
		level(d, queue[start:end])
		for _, u := range queue[start:end] {
			for _, v := range g.adj[u] {
				if g.mark[v] != seen {
					g.mark[v] = seen
					queue = append(queue, v)
				}
			}
		}
		start = end
	}
	g.queue = queue
}

// Distances runs a breadth-first search from src and returns the hop count
// to every reachable node (including src at 0).
func (g *Graph) Distances(src NodeID) map[NodeID]int {
	dist := make(map[NodeID]int, g.nodes)
	g.sweep(src, func(d int, frontier []NodeID) {
		for _, v := range frontier {
			dist[v] = d
		}
	})
	return dist
}

// Distance reports the hop count between a and b, or -1 when unreachable.
func (g *Graph) Distance(a, b NodeID) int {
	return g.distanceWithin(a, b, math.MaxInt)
}

// distanceWithin reports the hop count between a and b when it is at most
// maxHops, and -1 when it is larger or b is unreachable. The answer is
// exact: a bidirectional breadth-first search grows whole levels of the
// smaller of the two balls, and the first link from one ball into the
// other closes a shortest path. While the balls of radius ra and rb are
// disjoint and unlinked, every path is longer than ra+rb, so the search
// stops once ra+rb reaches maxHops.
func (g *Graph) distanceWithin(a, b NodeID, maxHops int) int {
	if !g.HasNode(a) || !g.HasNode(b) {
		return -1
	}
	if a == b {
		return 0
	}
	markA := g.stamp(2)
	markB := markA + 1
	g.mark[a], g.mark[b] = markA, markB
	qa, qb := append(g.queue[:0], a), append(g.back[:0], b)
	fa, fb := 0, 0 // start of each ball's outer level in qa, qb
	d := -1
search:
	for r := 0; r < maxHops; r++ { // r = ra + rb
		own, other, q, f := markA, markB, &qa, &fa
		if len(qb)-fb < len(qa)-fa {
			own, other, q, f = markB, markA, &qb, &fb
		}
		end := len(*q)
		for _, u := range (*q)[*f:end] {
			for _, v := range g.adj[u] {
				switch g.mark[v] {
				case other:
					d = r + 1
					break search
				case own: // already in this ball
				default:
					g.mark[v] = own
					*q = append(*q, v)
				}
			}
		}
		if *f = end; end == len(*q) {
			break // this ball is a whole component without the other end
		}
	}
	g.queue, g.back = qa, qb
	return d
}

// Connected reports whether every node is reachable from every other.
func (g *Graph) Connected() bool {
	if g.nodes <= 1 {
		return true
	}
	first := NodeID(slices.Index(g.present, true))
	reached := 0
	g.sweep(first, func(_ int, frontier []NodeID) { reached += len(frontier) })
	return reached == g.nodes
}

// PathStats summarizes the hop-distance structure of the graph.
type PathStats struct {
	// AveragePathLength is the mean hop count over sampled reachable
	// ordered pairs.
	AveragePathLength float64

	// Diameter is the maximum hop count seen among sampled sources.
	Diameter int

	// Unreachable counts sampled pairs with no path.
	Unreachable int

	// Sources is the number of BFS sources used.
	Sources int
}

// SamplePathStats estimates path statistics using BFS from up to samples
// random sources (all nodes when samples <= 0 or exceeds the node count).
func (g *Graph) SamplePathStats(rng *rand.Rand, samples int) PathStats {
	nodes := g.Nodes()
	var stats PathStats
	if len(nodes) < 2 {
		return stats
	}
	sources := nodes
	if samples > 0 && samples < len(nodes) {
		shuffled := make([]NodeID, len(nodes))
		copy(shuffled, nodes)
		rng.Shuffle(len(shuffled), func(i, k int) { shuffled[i], shuffled[k] = shuffled[k], shuffled[i] })
		sources = shuffled[:samples]
	}
	var totalHops, pairs int
	for _, src := range sources {
		reached := 0
		g.sweep(src, func(d int, frontier []NodeID) {
			reached += len(frontier)
			if d == 0 {
				return
			}
			totalHops += d * len(frontier)
			pairs += len(frontier)
			stats.Diameter = max(stats.Diameter, d)
		})
		stats.Unreachable += len(nodes) - reached
	}
	stats.Sources = len(sources)
	if pairs > 0 {
		stats.AveragePathLength = float64(totalHops) / float64(pairs)
	}
	return stats
}
