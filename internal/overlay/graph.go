// Package overlay provides the peer-to-peer substrate ARiA runs on: an
// undirected logical-link graph, a swarm-inspired topology manager in the
// spirit of BLATANT-S (Brocco & Hirsbrunner, GridPeer 2009) that keeps the
// average path length bounded with few links, and a deterministic
// round-trip latency model.
//
// The paper's evaluation overlay has 500 nodes, a target average path
// length of 9 hops, and an attained mean degree of about 4; the manager in
// this package reproduces that envelope.
//
// Node IDs must be non-negative: a Graph stores adjacency in slices indexed
// by ID, so its memory is O(largest ID), and every deployment numbers its
// nodes 0…n-1.
package overlay

import (
	"fmt"
	"math/rand"
	"sort"
)

// NodeID identifies a grid node within the overlay. IDs are assigned by the
// deployment (sequential in simulations, registry-assigned in live grids).
type NodeID int32

// String renders the ID for logs.
func (n NodeID) String() string {
	return fmt.Sprintf("n%d", int32(n))
}

// Graph is an undirected graph of overlay links.
//
// Storage is dense: adjacency lives in slices indexed by NodeID, so IDs
// must be non-negative (AddNode panics on a negative one) and memory grows
// with the largest ID ever added, not with the node count.
//
// Neighbor sets are kept sorted so that all iteration — and therefore every
// simulation built on top — is deterministic. Graph is not safe for
// concurrent use; Distance, Distances, Connected and SamplePathStats reuse
// search scratch owned by the graph, so even those reads must not overlap.
type Graph struct {
	adj     [][]NodeID
	present []bool
	nodes   int
	links   int

	// Breadth-first search scratch: mark[v] holds the generation stamp of
	// the last search that reached v, so a search starts in O(1) without
	// clearing anything. queue and back hold the frontiers.
	mark  []uint32
	gen   uint32
	queue []NodeID
	back  []NodeID
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{}
}

// AddNode inserts an isolated node; it is a no-op if the node exists. It
// panics on a negative ID.
func (g *Graph) AddNode(id NodeID) {
	if id < 0 {
		panic(fmt.Sprintf("overlay: negative node ID %d", int32(id)))
	}
	if n := int(id) + 1; n > len(g.adj) {
		g.adj = append(g.adj, make([][]NodeID, n-len(g.adj))...)
		g.present = append(g.present, make([]bool, n-len(g.present))...)
	}
	if !g.present[id] {
		g.present[id] = true
		g.nodes++
	}
}

// HasNode reports whether id is in the graph.
func (g *Graph) HasNode(id NodeID) bool {
	return id >= 0 && int(id) < len(g.present) && g.present[id]
}

// RemoveNode deletes a node and all its links. It reports whether the node
// was present.
func (g *Graph) RemoveNode(id NodeID) bool {
	if !g.HasNode(id) {
		return false
	}
	for _, nb := range g.adj[id] {
		g.adj[nb] = removeSorted(g.adj[nb], id)
	}
	g.links -= len(g.adj[id])
	g.adj[id] = nil
	g.present[id] = false
	g.nodes--
	return true
}

// AddLink connects a and b, reporting whether a new link was created.
// Self-links and links to absent nodes are rejected.
func (g *Graph) AddLink(a, b NodeID) bool {
	if a == b || !g.HasNode(a) || !g.HasNode(b) || g.HasLink(a, b) {
		return false
	}
	g.adj[a] = insertSorted(g.adj[a], b)
	g.adj[b] = insertSorted(g.adj[b], a)
	g.links++
	return true
}

// AddLinkCapped connects a and b only when neither endpoint would exceed
// maxDegree links (0 = unbounded), reporting whether a link was created.
// Overlay repair uses it to reconnect without breaking the topology
// generators' degree envelope.
func (g *Graph) AddLinkCapped(a, b NodeID, maxDegree int) bool {
	if maxDegree > 0 && (g.Degree(a) >= maxDegree || g.Degree(b) >= maxDegree) {
		return false
	}
	return g.AddLink(a, b)
}

// RemoveLink disconnects a and b, reporting whether a link was removed.
func (g *Graph) RemoveLink(a, b NodeID) bool {
	if !g.HasLink(a, b) {
		return false
	}
	g.adj[a] = removeSorted(g.adj[a], b)
	g.adj[b] = removeSorted(g.adj[b], a)
	g.links--
	return true
}

// HasLink reports whether a and b are directly connected.
func (g *Graph) HasLink(a, b NodeID) bool {
	nbs := g.neighbors(a)
	i := sort.Search(len(nbs), func(i int) bool { return nbs[i] >= b })
	return i < len(nbs) && nbs[i] == b
}

// neighbors returns the graph's own neighbor list of id (nil for an absent
// node); callers must not modify it.
func (g *Graph) neighbors(id NodeID) []NodeID {
	if id < 0 || int(id) >= len(g.adj) {
		return nil
	}
	return g.adj[id]
}

// Neighbors returns a copy of a node's neighbor list, in ascending ID order.
func (g *Graph) Neighbors(id NodeID) []NodeID {
	return g.AppendNeighbors(nil, id)
}

// AppendNeighbors appends a node's neighbors to dst, in ascending ID order,
// and returns the extended slice. Passing a reused dst[:0] makes the read
// allocation-free; dst never aliases the graph's own storage.
func (g *Graph) AppendNeighbors(dst []NodeID, id NodeID) []NodeID {
	return append(dst, g.neighbors(id)...)
}

// Degree reports the number of links at a node.
func (g *Graph) Degree(id NodeID) int {
	return len(g.neighbors(id))
}

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int {
	return g.nodes
}

// NumLinks reports the number of undirected links.
func (g *Graph) NumLinks() int {
	return g.links
}

// Nodes returns all node IDs in ascending order.
func (g *Graph) Nodes() []NodeID {
	out := make([]NodeID, 0, g.nodes)
	for id, ok := range g.present {
		if ok {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// MeanDegree reports the average node degree (2·links/nodes).
func (g *Graph) MeanDegree() float64 {
	if g.nodes == 0 {
		return 0
	}
	return 2 * float64(g.links) / float64(g.nodes)
}

// RandomNeighbors draws up to k distinct neighbors of id uniformly at
// random, excluding the IDs in skip.
func (g *Graph) RandomNeighbors(rng *rand.Rand, id NodeID, k int, skip map[NodeID]bool) []NodeID {
	nbs := g.neighbors(id)
	if len(nbs) == 0 || k <= 0 {
		return nil
	}
	candidates := make([]NodeID, 0, len(nbs))
	for _, nb := range nbs {
		if !skip[nb] {
			candidates = append(candidates, nb)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	rng.Shuffle(len(candidates), func(i, k int) {
		candidates[i], candidates[k] = candidates[k], candidates[i]
	})
	if k > len(candidates) {
		k = len(candidates)
	}
	return candidates[:k]
}

// RandomNode draws a uniformly random node, or -1 when the graph is empty.
func (g *Graph) RandomNode(rng *rand.Rand) NodeID {
	nodes := g.Nodes()
	if len(nodes) == 0 {
		return -1
	}
	return nodes[rng.Intn(len(nodes))]
}

func insertSorted(s []NodeID, v NodeID) []NodeID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeSorted(s []NodeID, v NodeID) []NodeID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return append(s[:i], s[i+1:]...)
	}
	return s
}
