package overlay

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// edgeDigest hashes a graph's sorted edge list: every link (u, v) with
// u < v, in ascending (u, v) order, as two little-endian uint32s.
func edgeDigest(g *Graph) string {
	h := sha256.New()
	var buf [8]byte
	for _, u := range g.Nodes() {
		for _, v := range g.Neighbors(u) {
			if u < v {
				binary.LittleEndian.PutUint32(buf[:4], uint32(u))
				binary.LittleEndian.PutUint32(buf[4:], uint32(v))
				h.Write(buf[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestBuildTopologyPinned pins the exact overlay Build produces: its link
// count and edge-list digest at seed 1. Sizes 4096 and 4097 sit either side
// of largeBuildThreshold, so both join paths are covered; the tight-target
// rows make the ants add shortcuts and prune links. The values were taken
// from the map-based graph with full-graph BFS that the dense graph and
// its bounded ant query replaced, so a change here means a changed
// topology, and with it every seeded scenario.
func TestBuildTopologyPinned(t *testing.T) {
	cases := []struct {
		n         int
		target    float64 // 0 = DefaultBlatantConfig
		maxDegree int
		links     int
		digest    string
	}{
		{n: 100, links: 197, digest: "6bb5e4fdb2583857"},
		{n: 500, links: 997, digest: "7f73893723f01553"},
		{n: 4096, links: 8189, digest: "43f25bbdc8036706"},
		{n: 4097, links: 8191, digest: "570204e334f70a82"},
		{n: 10000, links: 19997, digest: "416bb14b7b429b1c"},
		{n: 300, target: 3.5, maxDegree: 4, links: 797, digest: "ed8f0c0adfb12fb6"},
		{n: 500, target: 4, maxDegree: 5, links: 1219, digest: "effa1eb42d1f402c"},
		{n: 300, target: 4.5, maxDegree: 3, links: 619, digest: "b88574c5dbbdcabf"},
	}
	for _, c := range cases {
		cfg := DefaultBlatantConfig()
		if c.target > 0 {
			cfg.TargetPathLength, cfg.MaxDegree = c.target, c.maxDegree
		}
		b, err := Build(c.n, cfg, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("n=%d target=%v: %v", c.n, c.target, err)
		}
		g := b.Graph()
		if links, digest := g.NumLinks(), edgeDigest(g); links != c.links || digest != c.digest {
			t.Errorf("n=%d target=%v: %d links digest %s, want %d links digest %s",
				c.n, c.target, links, digest, c.links, c.digest)
		}
	}
}

// mapGraph is the map-keyed graph with full-graph BFS that Graph replaced,
// kept as the reference FuzzGraphDifferential compares against.
type mapGraph struct {
	adj   map[NodeID][]NodeID
	links int
}

func newMapGraph() *mapGraph { return &mapGraph{adj: make(map[NodeID][]NodeID)} }

func (g *mapGraph) AddNode(id NodeID) {
	if _, ok := g.adj[id]; !ok {
		g.adj[id] = nil
	}
}

func (g *mapGraph) HasNode(id NodeID) bool {
	_, ok := g.adj[id]
	return ok
}

func (g *mapGraph) RemoveNode(id NodeID) bool {
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

func (g *mapGraph) AddLink(a, b NodeID) bool {
	if a == b || !g.HasNode(a) || !g.HasNode(b) || g.HasLink(a, b) {
		return false
	}
	g.adj[a] = insertSorted(g.adj[a], b)
	g.adj[b] = insertSorted(g.adj[b], a)
	g.links++
	return true
}

func (g *mapGraph) RemoveLink(a, b NodeID) bool {
	if !g.HasLink(a, b) {
		return false
	}
	g.adj[a] = removeSorted(g.adj[a], b)
	g.adj[b] = removeSorted(g.adj[b], a)
	g.links--
	return true
}

func (g *mapGraph) HasLink(a, b NodeID) bool {
	nbs := g.adj[a]
	i := sort.Search(len(nbs), func(i int) bool { return nbs[i] >= b })
	return i < len(nbs) && nbs[i] == b
}

func (g *mapGraph) Nodes() []NodeID {
	out := make([]NodeID, 0, len(g.adj))
	for id := range g.adj {
		out = append(out, id)
	}
	sort.Slice(out, func(i, k int) bool { return out[i] < out[k] })
	return out
}

func (g *mapGraph) Distances(src NodeID) map[NodeID]int {
	dist := make(map[NodeID]int, len(g.adj))
	if !g.HasNode(src) {
		return dist
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if _, seen := dist[v]; !seen {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

func (g *mapGraph) Connected() bool {
	nodes := g.Nodes()
	if len(nodes) <= 1 {
		return true
	}
	return len(g.Distances(nodes[0])) == len(nodes)
}

func (g *mapGraph) SamplePathStats(rng *rand.Rand, samples int) PathStats {
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
		dist := g.Distances(src)
		for _, d := range dist {
			if d == 0 {
				continue
			}
			totalHops += d
			pairs++
			if d > stats.Diameter {
				stats.Diameter = d
			}
		}
		stats.Unreachable += len(nodes) - len(dist)
	}
	stats.Sources = len(sources)
	if pairs > 0 {
		stats.AveragePathLength = float64(totalHops) / float64(pairs)
	}
	return stats
}

// fuzzIDs are the node IDs the differential fuzzer draws from: a dense
// run, sparse IDs far past it, and -1, which no graph may hold.
var fuzzIDs = []NodeID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 77, 130, -1}

// FuzzGraphDifferential applies a random sequence of node and link
// additions and removals to Graph and to the map-based reference, and
// after every operation requires the same answers from both: mutation
// results, Nodes, node and link counts, Degree, Distance, the bounded ant
// query at every bound, Distances, Connected and SamplePathStats.
func FuzzGraphDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 0, 1, 0, 12, 2, 1, 12, 3, 0, 1})
	f.Add([]byte{0, 12, 0, 13, 2, 12, 13, 1, 12, 0, 12, 0, 14, 2, 14, 13})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 2, 0, 1, 2, 1, 2, 2, 2, 3, 2, 3, 0, 1, 2, 4, 0, 1})
	// A 14-node path, then chords and cuts: long paths reach both search
	// directions and every bound.
	var path []byte
	for i := byte(0); i < 14; i++ {
		path = append(path, 0, i, 0)
	}
	for i := byte(0); i < 13; i++ {
		path = append(path, 2, i, i+1)
	}
	f.Add(append(path, 2, 0, 7, 4, 3, 4, 1, 12, 0, 2, 13, 5, 4, 0, 7, 3, 2, 9))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 300 {
			ops = ops[:300]
		}
		g, ref := NewGraph(), newMapGraph()
		id := func(b byte) NodeID { return fuzzIDs[int(b)%len(fuzzIDs)] }
		for i := 0; i+2 < len(ops); i += 3 {
			a, b := id(ops[i+1]), id(ops[i+2])
			var got, want bool
			switch ops[i] % 5 {
			case 0:
				if a < 0 {
					continue
				}
				g.AddNode(a)
				ref.AddNode(a)
				got, want = true, true
			case 1:
				got, want = g.RemoveNode(a), ref.RemoveNode(a)
			case 2, 3:
				got, want = g.AddLink(a, b), ref.AddLink(a, b)
			case 4:
				got, want = g.RemoveLink(a, b), ref.RemoveLink(a, b)
			}
			if got != want {
				t.Fatalf("op %d (%d %d %d): got %v, reference %v", i/3, ops[i]%5, a, b, got, want)
			}
			compareGraphs(t, g, ref, int64(ops[i+1]))
		}
	})
}

func compareGraphs(t *testing.T, g *Graph, ref *mapGraph, seed int64) {
	t.Helper()
	if got, want := g.Nodes(), ref.Nodes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Nodes() = %v, reference %v", got, want)
	}
	if g.NumNodes() != len(ref.adj) || g.NumLinks() != ref.links {
		t.Fatalf("%d nodes %d links, reference %d nodes %d links", g.NumNodes(), g.NumLinks(), len(ref.adj), ref.links)
	}
	if got, want := g.Connected(), ref.Connected(); got != want {
		t.Fatalf("Connected() = %v, reference %v", got, want)
	}
	for _, a := range fuzzIDs {
		if g.HasNode(a) != ref.HasNode(a) || g.Degree(a) != len(ref.adj[a]) {
			t.Fatalf("node %d: present %v degree %d, reference %v %d", a, g.HasNode(a), g.Degree(a), ref.HasNode(a), len(ref.adj[a]))
		}
		dist := ref.Distances(a)
		if got := g.Distances(a); !reflect.DeepEqual(got, dist) {
			t.Fatalf("Distances(%d) = %v, reference %v", a, got, dist)
		}
		for _, b := range fuzzIDs {
			want, ok := dist[b]
			if !ok {
				want = -1
			}
			if got := g.Distance(a, b); got != want {
				t.Fatalf("Distance(%d, %d) = %d, reference %d", a, b, got, want)
			}
			for bound := 0; bound <= 5; bound++ {
				wantWithin := want
				if want > bound {
					wantWithin = -1
				}
				if got := g.distanceWithin(a, b, bound); got != wantWithin {
					t.Fatalf("distanceWithin(%d, %d, %d) = %d, reference distance %d", a, b, bound, got, want)
				}
			}
		}
	}
	for _, samples := range []int{0, 3} {
		got := g.SamplePathStats(rand.New(rand.NewSource(seed)), samples)
		want := ref.SamplePathStats(rand.New(rand.NewSource(seed)), samples)
		if got != want {
			t.Fatalf("SamplePathStats(%d) = %+v, reference %+v", samples, got, want)
		}
	}
}

// TestGraphSearchAllocationFree pins the scratch the graph owns: once a
// search has sized it, Distance and the bounded ant query allocate nothing,
// and SamplePathStats allocates as often on a 10k-node overlay as on a
// 1k-node one.
func TestGraphSearchAllocationFree(t *testing.T) {
	build := func(n int) *Graph {
		b, err := Build(n, DefaultBlatantConfig(), rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		return b.Graph()
	}
	g := build(10_000)
	pairs := rand.New(rand.NewSource(2))
	g.Distance(0, 9_999) // warm-up: sizes the scratch
	if n := testing.AllocsPerRun(100, func() {
		g.Distance(NodeID(pairs.Intn(10_000)), NodeID(pairs.Intn(10_000)))
	}); n != 0 {
		t.Errorf("Distance: %v allocs per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		g.distanceWithin(NodeID(pairs.Intn(10_000)), NodeID(pairs.Intn(10_000)), 9)
	}); n != 0 {
		t.Errorf("bounded ant query: %v allocs per call, want 0", n)
	}
	stats := func(g *Graph) float64 {
		g.SamplePathStats(rand.New(rand.NewSource(3)), 16)
		return testing.AllocsPerRun(10, func() { g.SamplePathStats(rand.New(rand.NewSource(3)), 16) })
	}
	if small, large := stats(build(1_000)), stats(g); large != small {
		t.Errorf("SamplePathStats: %v allocs per call at 10k nodes against %v at 1k; want no growth with n", large, small)
	}
}

// TestSearchStampWraps: when the generation counter runs out, the marks
// are cleared rather than let an old mark pass for a fresh one.
func TestSearchStampWraps(t *testing.T) {
	g := NewGraph()
	for i := NodeID(0); i < 6; i++ {
		g.AddNode(i)
		if i > 0 {
			g.AddLink(i-1, i) // path 0-1-2-3-4-5
		}
	}
	for _, gen := range []uint32{math.MaxUint32 - 2, math.MaxUint32 - 1, math.MaxUint32} {
		g.Distance(0, 5)
		g.gen = gen
		for i := range g.mark {
			g.mark[i] = uint32(i%2 + 1) // the first stamps issued after a wrap
		}
		for search := 0; search < 2; search++ {
			if d := g.Distance(0, 5); d != 5 {
				t.Fatalf("gen %d, search %d: Distance(0, 5) = %d, want 5", gen, search, d)
			}
		}
	}
}

// TestAddNodeRejectsNegativeID: dense storage cannot hold a negative ID,
// and saying so beats an index-out-of-range deep inside a search.
func TestAddNodeRejectsNegativeID(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("AddNode(-1) did not panic")
		}
	}()
	NewGraph().AddNode(-1)
}

func BenchmarkBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(10_000, DefaultBlatantConfig(), rand.New(rand.NewSource(1))); err != nil {
			b.Fatal(err)
		}
	}
}
