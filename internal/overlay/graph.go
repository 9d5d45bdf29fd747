// Package overlay provides the peer-to-peer substrate ARiA runs on: an
// undirected logical-link graph, a swarm-inspired topology manager in the
// spirit of BLATANT-S (Brocco & Hirsbrunner, GridPeer 2009) that keeps the
// average path length bounded with few links, and a deterministic
// round-trip latency model.
//
// The paper's evaluation overlay has 500 nodes, a target average path
// length of 9 hops, and an attained mean degree of about 4; the manager in
// this package reproduces that envelope.
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
// Neighbor sets are kept sorted so that all iteration — and therefore every
// simulation built on top — is deterministic. Graph is not safe for
// concurrent use.
type Graph struct {
	adj   map[NodeID][]NodeID
	links int
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{adj: make(map[NodeID][]NodeID)}
}

// AddNode inserts an isolated node; it is a no-op if the node exists.
func (g *Graph) AddNode(id NodeID) {
	if _, ok := g.adj[id]; !ok {
		g.adj[id] = nil
	}
}

// HasNode reports whether id is in the graph.
func (g *Graph) HasNode(id NodeID) bool {
	_, ok := g.adj[id]
	return ok
}

// RemoveNode deletes a node and all its links. It reports whether the node
// was present.
func (g *Graph) RemoveNode(id NodeID) bool {
	neighbors, ok := g.adj[id]
	if !ok {
		return false
	}
	for _, nb := range append([]NodeID(nil), neighbors...) {
		g.RemoveLink(id, nb)
	}
	delete(g.adj, id)
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
	nbs, ok := g.adj[a]
	if !ok {
		return false
	}
	i := sort.Search(len(nbs), func(i int) bool { return nbs[i] >= b })
	return i < len(nbs) && nbs[i] == b
}

// Neighbors returns a copy of a node's neighbor list, in ascending ID order.
func (g *Graph) Neighbors(id NodeID) []NodeID {
	return g.AppendNeighbors(nil, id)
}

// AppendNeighbors appends a node's neighbors to dst, in ascending ID order,
// and returns the extended slice. Passing a reused dst[:0] makes the read
// allocation-free; dst never aliases the graph's own storage.
func (g *Graph) AppendNeighbors(dst []NodeID, id NodeID) []NodeID {
	return append(dst, g.adj[id]...)
}

// Degree reports the number of links at a node.
func (g *Graph) Degree(id NodeID) int {
	return len(g.adj[id])
}

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int {
	return len(g.adj)
}

// NumLinks reports the number of undirected links.
func (g *Graph) NumLinks() int {
	return g.links
}

// Nodes returns all node IDs in ascending order.
func (g *Graph) Nodes() []NodeID {
	out := make([]NodeID, 0, len(g.adj))
	for id := range g.adj {
		out = append(out, id)
	}
	sort.Slice(out, func(i, k int) bool { return out[i] < out[k] })
	return out
}

// MeanDegree reports the average node degree (2·links/nodes).
func (g *Graph) MeanDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return 2 * float64(g.links) / float64(len(g.adj))
}

// RandomNeighbors draws up to k distinct neighbors of id uniformly at
// random, excluding the IDs in skip.
func (g *Graph) RandomNeighbors(rng *rand.Rand, id NodeID, k int, skip map[NodeID]bool) []NodeID {
	nbs := g.adj[id]
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
