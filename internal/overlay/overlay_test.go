package overlay

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestGraphBasics(t *testing.T) {
	g := NewGraph()
	g.AddNode(1)
	g.AddNode(2)
	g.AddNode(3)
	if !g.AddLink(1, 2) {
		t.Fatal("AddLink(1,2) failed")
	}
	if g.AddLink(1, 2) {
		t.Fatal("duplicate AddLink succeeded")
	}
	if g.AddLink(2, 1) {
		t.Fatal("reversed duplicate AddLink succeeded")
	}
	if g.AddLink(1, 1) {
		t.Fatal("self link succeeded")
	}
	if g.AddLink(1, 99) {
		t.Fatal("link to absent node succeeded")
	}
	if !g.HasLink(2, 1) {
		t.Fatal("link not symmetric")
	}
	if g.NumLinks() != 1 || g.NumNodes() != 3 {
		t.Fatalf("links=%d nodes=%d, want 1/3", g.NumLinks(), g.NumNodes())
	}
	if g.Degree(1) != 1 || g.Degree(3) != 0 {
		t.Fatal("degree wrong")
	}
	if !g.RemoveLink(1, 2) || g.RemoveLink(1, 2) {
		t.Fatal("RemoveLink semantics wrong")
	}
	if g.NumLinks() != 0 {
		t.Fatal("link count wrong after removal")
	}
}

func TestGraphRemoveNode(t *testing.T) {
	g := NewGraph()
	for i := NodeID(1); i <= 4; i++ {
		g.AddNode(i)
	}
	g.AddLink(1, 2)
	g.AddLink(1, 3)
	g.AddLink(2, 3)
	if !g.RemoveNode(1) {
		t.Fatal("RemoveNode failed")
	}
	if g.RemoveNode(1) {
		t.Fatal("double RemoveNode succeeded")
	}
	if g.NumLinks() != 1 {
		t.Fatalf("links = %d after removal, want 1", g.NumLinks())
	}
	if g.HasLink(1, 2) || g.Degree(2) != 1 {
		t.Fatal("stale adjacency after RemoveNode")
	}
}

func TestNeighborsSortedAndCopied(t *testing.T) {
	g := NewGraph()
	for i := NodeID(1); i <= 5; i++ {
		g.AddNode(i)
	}
	g.AddLink(3, 5)
	g.AddLink(3, 1)
	g.AddLink(3, 4)
	nbs := g.Neighbors(3)
	want := []NodeID{1, 4, 5}
	for i, w := range want {
		if nbs[i] != w {
			t.Fatalf("Neighbors(3) = %v, want %v", nbs, want)
		}
	}
	nbs[0] = 99
	if g.Neighbors(3)[0] != 1 {
		t.Fatal("Neighbors returned internal slice")
	}
}

func TestAppendNeighbors(t *testing.T) {
	g := NewGraph()
	for i := NodeID(1); i <= 5; i++ {
		g.AddNode(i)
	}
	g.AddLink(3, 5)
	g.AddLink(3, 1)
	g.AddLink(3, 4)
	for _, tc := range []struct {
		name string
		dst  []NodeID
		id   NodeID
		want []NodeID
	}{
		{"nil dst", nil, 3, []NodeID{1, 4, 5}},
		{"reused dst", make([]NodeID, 0, 8), 3, []NodeID{1, 4, 5}},
		{"keeps prefix", []NodeID{9}, 3, []NodeID{9, 1, 4, 5}},
		{"leaf", nil, 5, []NodeID{3}},
		{"isolated", []NodeID{}, 2, []NodeID{}},
		{"absent node", []NodeID{7}, 42, []NodeID{7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := g.AppendNeighbors(tc.dst, tc.id)
			if len(got) != len(tc.want) {
				t.Fatalf("AppendNeighbors = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("AppendNeighbors = %v, want %v", got, tc.want)
				}
				got[i] = 99 // the caller owns the result
			}
			if g.Neighbors(3)[0] != 1 {
				t.Fatal("AppendNeighbors aliased the graph's adjacency")
			}
		})
	}
	dst := make([]NodeID, 0, 8)
	if n := testing.AllocsPerRun(100, func() { dst = g.AppendNeighbors(dst[:0], 3) }); n != 0 {
		t.Fatalf("AppendNeighbors into a reused slice: %v allocs, want 0", n)
	}
}

func TestDistances(t *testing.T) {
	g := NewGraph()
	for i := NodeID(0); i < 5; i++ {
		g.AddNode(i)
	}
	// Path 0-1-2-3, node 4 isolated.
	g.AddLink(0, 1)
	g.AddLink(1, 2)
	g.AddLink(2, 3)
	if d := g.Distance(0, 3); d != 3 {
		t.Fatalf("Distance(0,3) = %d, want 3", d)
	}
	if d := g.Distance(0, 0); d != 0 {
		t.Fatalf("Distance(0,0) = %d, want 0", d)
	}
	if d := g.Distance(0, 4); d != -1 {
		t.Fatalf("Distance(0,4) = %d, want -1", d)
	}
	if g.Connected() {
		t.Fatal("graph with isolated node reported connected")
	}
	g.AddLink(3, 4)
	if !g.Connected() {
		t.Fatal("path graph reported disconnected")
	}
}

func TestSamplePathStatsOnRing(t *testing.T) {
	g := NewGraph()
	const n = 20
	for i := NodeID(0); i < n; i++ {
		g.AddNode(i)
	}
	for i := NodeID(0); i < n; i++ {
		g.AddLink(i, (i+1)%n)
	}
	stats := g.SamplePathStats(rand.New(rand.NewSource(1)), 0)
	// Ring of 20: diameter 10, APL = sum(1..10 with 10 once)/19 = 100/19.
	if stats.Diameter != 10 {
		t.Fatalf("diameter = %d, want 10", stats.Diameter)
	}
	wantAPL := 100.0 / 19.0
	if stats.AveragePathLength < wantAPL-0.01 || stats.AveragePathLength > wantAPL+0.01 {
		t.Fatalf("APL = %v, want %v", stats.AveragePathLength, wantAPL)
	}
	if stats.Unreachable != 0 {
		t.Fatalf("unreachable = %d, want 0", stats.Unreachable)
	}
}

func TestRandomNeighbors(t *testing.T) {
	g := NewGraph()
	for i := NodeID(0); i < 10; i++ {
		g.AddNode(i)
	}
	for i := NodeID(1); i < 10; i++ {
		g.AddLink(0, i)
	}
	rng := rand.New(rand.NewSource(2))
	got := g.RandomNeighbors(rng, 0, 4, map[NodeID]bool{1: true, 2: true})
	if len(got) != 4 {
		t.Fatalf("got %d neighbors, want 4", len(got))
	}
	seen := make(map[NodeID]bool)
	for _, id := range got {
		if id == 1 || id == 2 {
			t.Fatalf("skip set ignored: got %v", got)
		}
		if seen[id] {
			t.Fatalf("duplicate neighbor %v", id)
		}
		seen[id] = true
	}
	g.AddNode(77) // isolated
	if g.RandomNeighbors(rng, 77, 4, nil) != nil {
		t.Fatal("isolated node returned neighbors")
	}
	if g.RandomNeighbors(rng, 0, 0, nil) != nil {
		t.Fatal("k=0 returned neighbors")
	}
}

func TestBlatantConfigValidate(t *testing.T) {
	if err := DefaultBlatantConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*BlatantConfig)
	}{
		{"tiny target", func(c *BlatantConfig) { c.TargetPathLength = 1 }},
		{"zero join", func(c *BlatantConfig) { c.JoinDegree = 0 }},
		{"zero min degree", func(c *BlatantConfig) { c.MinDegree = 0 }},
		{"max below min", func(c *BlatantConfig) { c.MaxDegree = 1; c.MinDegree = 3 }},
		{"zero ants", func(c *BlatantConfig) { c.AntsPerRound = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultBlatantConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("Validate accepted bad config")
			}
		})
	}
}

func TestBuildMeetsPaperEnvelope(t *testing.T) {
	b, err := Build(500, DefaultBlatantConfig(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	g := b.Graph()
	if g.NumNodes() != 500 {
		t.Fatalf("nodes = %d, want 500", g.NumNodes())
	}
	if !g.Connected() {
		t.Fatal("built overlay not connected")
	}
	stats := g.SamplePathStats(rand.New(rand.NewSource(8)), 0)
	if stats.AveragePathLength > 9 {
		t.Fatalf("APL = %v, want <= 9", stats.AveragePathLength)
	}
	deg := g.MeanDegree()
	if deg < 2 || deg > 10 {
		t.Fatalf("mean degree = %v, want within [2, 10] (paper attains ~4)", deg)
	}
}

func TestBuildSingleNode(t *testing.T) {
	b, err := Build(1, DefaultBlatantConfig(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if b.Graph().NumNodes() != 1 {
		t.Fatal("single node build wrong")
	}
	if _, err := Build(0, DefaultBlatantConfig(), rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("Build(0) should fail")
	}
}

func TestJoinKeepsConnectivity(t *testing.T) {
	b, err := Build(50, DefaultBlatantConfig(), rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		id := b.Join()
		if b.Graph().Degree(id) == 0 {
			t.Fatalf("joined node %v has no links", id)
		}
	}
	if !b.Graph().Connected() {
		t.Fatal("overlay disconnected after joins")
	}
	if b.Graph().NumNodes() != 75 {
		t.Fatalf("nodes = %d, want 75", b.Graph().NumNodes())
	}
}

func TestStabilizeImprovesRing(t *testing.T) {
	cfg := DefaultBlatantConfig()
	cfg.TargetPathLength = 5
	b, err := NewBlatant(cfg, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	g := b.Graph()
	const n = 100
	for i := 0; i < n; i++ {
		g.AddNode(NodeID(i))
	}
	for i := 0; i < n; i++ {
		g.AddLink(NodeID(i), NodeID((i+1)%n))
	}
	before := g.SamplePathStats(rand.New(rand.NewSource(12)), 0).AveragePathLength
	_, stats := b.Stabilize(100)
	if stats.AveragePathLength > 5 {
		t.Fatalf("APL after stabilize = %v, want <= 5 (before %v)", stats.AveragePathLength, before)
	}
}

func TestBlatantDeterminism(t *testing.T) {
	build := func() ([]NodeID, int) {
		b, err := Build(80, DefaultBlatantConfig(), rand.New(rand.NewSource(21)))
		if err != nil {
			t.Fatal(err)
		}
		return b.Graph().Neighbors(40), b.Graph().NumLinks()
	}
	n1, l1 := build()
	n2, l2 := build()
	if l1 != l2 || len(n1) != len(n2) {
		t.Fatalf("builds diverged: %d/%v vs %d/%v", l1, n1, l2, n2)
	}
	for i := range n1 {
		if n1[i] != n2[i] {
			t.Fatalf("neighbor sets diverged: %v vs %v", n1, n2)
		}
	}
}

func TestPairwiseLatencyProperties(t *testing.T) {
	m, err := NewPairwiseLatency(5*time.Millisecond, 100*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	for a := NodeID(0); a < 30; a++ {
		for b := NodeID(0); b < 30; b++ {
			d := m.Delay(a, b)
			if d < 5*time.Millisecond || d > 100*time.Millisecond {
				t.Fatalf("Delay(%v,%v) = %v outside range", a, b, d)
			}
			if d != m.Delay(b, a) {
				t.Fatalf("latency not symmetric for (%v,%v)", a, b)
			}
			if d != m.Delay(a, b) {
				t.Fatal("latency not deterministic")
			}
		}
	}
}

// TestPairwiseLatencyMatchesHashFNV pins the inlined hash bit for bit to
// FNV-1a from hash/fnv over the pair and salt, so every simulated delay —
// and with it every figure — stays what it was.
func TestPairwiseLatencyMatchesHashFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		lo := time.Duration(1 + rng.Int63n(int64(time.Second)))
		hi := lo + time.Duration(rng.Int63n(int64(time.Second)))
		if i%10 == 0 {
			hi = lo // a zero span takes the early return
		}
		m, err := NewPairwiseLatency(lo, hi, rng.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		a, b := NodeID(rng.Int31()-rng.Int31()), NodeID(rng.Int31()-rng.Int31())
		if got, want := m.Delay(a, b), referenceDelay(m, a, b); got != want {
			t.Fatalf("Delay(%v, %v) with salt %#x in [%v, %v] = %v, hash/fnv gives %v", a, b, m.salt, lo, hi, got, want)
		}
	}
}

// referenceDelay is PairwiseLatency.Delay written against hash/fnv.
func referenceDelay(l *PairwiseLatency, from, to NodeID) time.Duration {
	a, b := from, to
	if a > b {
		a, b = b, a
	}
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:8], uint64(uint32(a)))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(uint32(b)))
	binary.LittleEndian.PutUint64(buf[16:24], l.salt)
	h := fnv.New64a()
	_, _ = h.Write(buf[:])
	span := uint64(l.Max - l.Min)
	if span == 0 {
		return l.Min
	}
	return l.Min + time.Duration(h.Sum64()%(span+1))
}

func TestPairwiseLatencySaltChangesDelays(t *testing.T) {
	m1 := DefaultLatency(1)
	m2 := DefaultLatency(2)
	same := 0
	for a := NodeID(0); a < 50; a++ {
		if m1.Delay(a, a+1) == m2.Delay(a, a+1) {
			same++
		}
	}
	if same == 50 {
		t.Fatal("different salts produced identical latency maps")
	}
}

func TestNewPairwiseLatencyRejects(t *testing.T) {
	if _, err := NewPairwiseLatency(0, time.Second, 1); err == nil {
		t.Fatal("accepted zero min")
	}
	if _, err := NewPairwiseLatency(time.Second, time.Millisecond, 1); err == nil {
		t.Fatal("accepted max < min")
	}
}

func TestFixedLatency(t *testing.T) {
	if FixedLatency(time.Second).Delay(1, 2) != time.Second {
		t.Fatal("fixed latency wrong")
	}
}

// Property: AddLink/RemoveLink keep the link count and symmetry invariants
// under any random operation sequence.
func TestPropertyGraphInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		g := NewGraph()
		const n = 12
		for i := NodeID(0); i < n; i++ {
			g.AddNode(i)
		}
		for _, op := range ops {
			a := NodeID(op % n)
			b := NodeID((op / n) % n)
			if op%3 == 0 {
				g.RemoveLink(a, b)
			} else {
				g.AddLink(a, b)
			}
		}
		// Recount links from adjacency and check symmetry.
		total := 0
		for _, u := range g.Nodes() {
			for _, v := range g.Neighbors(u) {
				if !g.HasLink(v, u) {
					return false
				}
				total++
			}
		}
		return total == 2*g.NumLinks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteDOT(t *testing.T) {
	g := NewGraph()
	g.AddNode(1)
	g.AddNode(2)
	g.AddNode(3)
	g.AddLink(1, 2)
	g.AddLink(2, 3)
	var buf strings.Builder
	if err := g.WriteDOT(&buf, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`graph "overlay" {`, "1 -- 2;", "2 -- 3;", "}"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "2 -- 1") {
		t.Fatal("DOT emitted a link twice")
	}
	// Determinism.
	var buf2 strings.Builder
	if err := g.WriteDOT(&buf2, ""); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != out {
		t.Fatal("DOT output not deterministic")
	}
}

func TestSiteLatency(t *testing.T) {
	m, err := NewSiteLatency(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSiteLatency(0, 1); err == nil {
		t.Fatal("accepted zero sites")
	}
	// Nodes 0 and 4 share site 0; node 1 is in site 1.
	if m.Site(0) != 0 || m.Site(4) != 0 || m.Site(1) != 1 {
		t.Fatalf("site mapping wrong: %d %d %d", m.Site(0), m.Site(4), m.Site(1))
	}
	lan := m.Delay(0, 4)
	wan := m.Delay(0, 1)
	if lan >= 2*time.Millisecond+time.Microsecond {
		t.Fatalf("intra-site delay %v not LAN-class", lan)
	}
	if wan < 10*time.Millisecond {
		t.Fatalf("inter-site delay %v not WAN-class", wan)
	}
	if m.Delay(0, 4) != lan || m.Delay(4, 0) != lan {
		t.Fatal("site latency not deterministic/symmetric")
	}
}
