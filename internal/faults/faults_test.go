package faults

import (
	"math/rand"
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/overlay"
)

func TestConfigValidate(t *testing.T) {
	good := Config{
		DropProb: 0.05, DupProb: 0.01, MaxExtraDelay: time.Second,
		Partitions: []Partition{{Start: time.Hour, End: 2 * time.Hour, Isolated: []overlay.NodeID{1}}},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative drop", func(c *Config) { c.DropProb = -0.1 }},
		{"certain drop", func(c *Config) { c.DropProb = 1 }},
		{"negative dup", func(c *Config) { c.DupProb = -0.1 }},
		{"negative delay", func(c *Config) { c.MaxExtraDelay = -time.Second }},
		{"empty window", func(c *Config) { c.Partitions[0].End = c.Partitions[0].Start }},
		{"no isolated nodes", func(c *Config) { c.Partitions[0].Isolated = nil }},
		{"negative start", func(c *Config) { c.Partitions[0].Start = -time.Second }},
		{"slowdown empty window", func(c *Config) {
			c.Slowdowns = []Slowdown{{Start: time.Hour, End: time.Hour, Nodes: []overlay.NodeID{1}, ExtraDelay: time.Second}}
		}},
		{"slowdown no nodes", func(c *Config) {
			c.Slowdowns = []Slowdown{{End: time.Hour, ExtraDelay: time.Second}}
		}},
		{"slowdown zero delay", func(c *Config) {
			c.Slowdowns = []Slowdown{{End: time.Hour, Nodes: []overlay.NodeID{1}}}
		}},
		{"stall empty window", func(c *Config) {
			c.Stalls = []Stall{{Start: time.Hour, End: time.Hour, Nodes: []overlay.NodeID{1}}}
		}},
		{"stall no nodes", func(c *Config) {
			c.Stalls = []Stall{{End: time.Hour}}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			bad := good
			bad.Partitions = append([]Partition(nil), good.Partitions...)
			tt.mutate(&bad)
			if err := bad.Validate(); err == nil {
				t.Fatal("Validate accepted broken config")
			}
		})
	}
}

func TestEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero config reports enabled")
	}
	for _, c := range []Config{
		{DropProb: 0.1},
		{DupProb: 0.1},
		{MaxExtraDelay: time.Second},
		{Partitions: []Partition{{End: time.Second, Isolated: []overlay.NodeID{1}}}},
		{Slowdowns: []Slowdown{{End: time.Second, Nodes: []overlay.NodeID{1}, ExtraDelay: time.Second}}},
		{Stalls: []Stall{{End: time.Second, Nodes: []overlay.NodeID{1}}}},
	} {
		if !c.Enabled() {
			t.Fatalf("config %+v reports disabled", c)
		}
	}
}

func TestNewLinkModelRejects(t *testing.T) {
	if _, err := NewLinkModel(Config{DropProb: 2}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("accepted invalid config")
	}
	if _, err := NewLinkModel(Config{}, nil); err == nil {
		t.Fatal("accepted nil random source")
	}
}

func TestDropRate(t *testing.T) {
	lm, err := NewLinkModel(Config{DropProb: 0.2}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	delivered := 0
	for i := 0; i < n; i++ {
		if lm.Plan(0, 1, 2).Delivered() {
			delivered++
		}
	}
	s := lm.Stats()
	if s.Sent != n || s.Dropped != n-delivered {
		t.Fatalf("stats %+v inconsistent with %d deliveries", s, delivered)
	}
	rate := float64(s.Dropped) / float64(n)
	if rate < 0.18 || rate > 0.22 {
		t.Fatalf("drop rate %.3f far from configured 0.2", rate)
	}
}

func TestDuplicationAndJitter(t *testing.T) {
	lm, err := NewLinkModel(Config{DupProb: 0.5, MaxExtraDelay: time.Second}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	dups := 0
	for i := 0; i < 5000; i++ {
		out := lm.Plan(0, 1, 2)
		switch len(out.ExtraDelays) {
		case 1:
		case 2:
			dups++
		default:
			t.Fatalf("unexpected copy count %d", len(out.ExtraDelays))
		}
		for _, d := range out.ExtraDelays {
			if d < 0 || d >= time.Second {
				t.Fatalf("extra delay %v outside [0, 1s)", d)
			}
		}
	}
	if s := lm.Stats(); s.Duplicated != dups {
		t.Fatalf("stats count %d duplicates, observed %d", s.Duplicated, dups)
	}
	if rate := float64(dups) / 5000; rate < 0.45 || rate > 0.55 {
		t.Fatalf("duplication rate %.3f far from configured 0.5", rate)
	}
}

func TestPartitionSeversOnlyTheCut(t *testing.T) {
	lm, err := NewLinkModel(Config{
		Partitions: []Partition{{
			Start: time.Hour, End: 2 * time.Hour,
			Isolated: []overlay.NodeID{1, 2},
		}},
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	type probe struct {
		at       time.Duration
		from, to overlay.NodeID
		deliver  bool
	}
	probes := []probe{
		{30 * time.Minute, 1, 5, true},  // before the window
		{time.Hour, 1, 5, false},        // window start: cut
		{90 * time.Minute, 5, 2, false}, // cut, reverse direction
		{90 * time.Minute, 1, 2, true},  // both isolated: same side
		{90 * time.Minute, 5, 6, true},  // both outside
		{2 * time.Hour, 1, 5, true},     // window end is exclusive
		{3 * time.Hour, 2, 9, true},     // after the window
	}
	for _, p := range probes {
		if got := lm.Plan(p.at, p.from, p.to).Delivered(); got != p.deliver {
			t.Errorf("at %v %v→%v: delivered=%v, want %v", p.at, p.from, p.to, got, p.deliver)
		}
	}
	if s := lm.Stats(); s.PartitionDropped != 2 || s.Dropped != 0 {
		t.Fatalf("stats %+v, want 2 partition drops and no random drops", s)
	}
}

func TestOneWayPartitionIsAsymmetric(t *testing.T) {
	lm, err := NewLinkModel(Config{
		Partitions: []Partition{{
			Start: time.Hour, End: 2 * time.Hour,
			Isolated: []overlay.NodeID{1, 2},
			OneWay:   true,
		}},
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	type probe struct {
		at       time.Duration
		from, to overlay.NodeID
		deliver  bool
	}
	probes := []probe{
		{30 * time.Minute, 5, 1, true},  // before the window
		{time.Hour, 5, 1, false},        // into the deaf set: dropped
		{90 * time.Minute, 6, 2, false}, // into the deaf set: dropped
		{90 * time.Minute, 1, 5, true},  // out of the deaf set: flows
		{90 * time.Minute, 2, 6, true},  // out of the deaf set: flows
		{90 * time.Minute, 1, 2, true},  // within the deaf set: flows
		{90 * time.Minute, 5, 6, true},  // both outside
		{2 * time.Hour, 5, 1, true},     // window end is exclusive
	}
	for _, p := range probes {
		if got := lm.Plan(p.at, p.from, p.to).Delivered(); got != p.deliver {
			t.Errorf("at %v %v→%v: delivered=%v, want %v", p.at, p.from, p.to, got, p.deliver)
		}
	}
	if s := lm.Stats(); s.PartitionDropped != 2 || s.Dropped != 0 {
		t.Fatalf("stats %+v, want 2 partition drops and no random drops", s)
	}
}

func TestSlowdownDelaysEitherEndpoint(t *testing.T) {
	const extra = 250 * time.Millisecond
	lm, err := NewLinkModel(Config{
		Slowdowns: []Slowdown{{
			Start: time.Hour, End: 2 * time.Hour,
			Nodes: []overlay.NodeID{3}, ExtraDelay: extra,
		}},
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	type probe struct {
		at       time.Duration
		from, to overlay.NodeID
		extra    time.Duration
	}
	probes := []probe{
		{30 * time.Minute, 3, 5, 0},          // before the window
		{time.Hour, 3, 5, extra},             // slow node sending
		{90 * time.Minute, 5, 3, extra},      // slow node receiving
		{90 * time.Minute, 5, 6, 0},          // neither endpoint slow
		{2 * time.Hour, 3, 5, 0},             // window end is exclusive
		{2*time.Hour + time.Minute, 5, 3, 0}, // after the window
	}
	for _, p := range probes {
		out := lm.Plan(p.at, p.from, p.to)
		if len(out.ExtraDelays) != 1 || out.ExtraDelays[0] != p.extra {
			t.Errorf("at %v %v→%v: delays %v, want [%v]", p.at, p.from, p.to, out.ExtraDelays, p.extra)
		}
	}
	if s := lm.Stats(); s.Slowed != 2 {
		t.Fatalf("stats %+v, want 2 slowed transmissions", s)
	}
}

func TestStallHoldsInboundUntilWindowEnd(t *testing.T) {
	lm, err := NewLinkModel(Config{
		Stalls: []Stall{{
			Start: time.Hour, End: 2 * time.Hour,
			Nodes: []overlay.NodeID{4},
		}},
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	type probe struct {
		at       time.Duration
		from, to overlay.NodeID
		extra    time.Duration
	}
	probes := []probe{
		{30 * time.Minute, 5, 4, 0},                // before the window
		{time.Hour, 5, 4, time.Hour},               // held until window end
		{90 * time.Minute, 5, 4, 30 * time.Minute}, // later send held less
		{100 * time.Minute, 4, 5, 0},               // stalled node's own sends flow
		{90 * time.Minute, 5, 6, 0},                // unrelated link
		{2 * time.Hour, 5, 4, 0},                   // window end is exclusive
	}
	for _, p := range probes {
		out := lm.Plan(p.at, p.from, p.to)
		if len(out.ExtraDelays) != 1 || out.ExtraDelays[0] != p.extra {
			t.Errorf("at %v %v→%v: delays %v, want [%v]", p.at, p.from, p.to, out.ExtraDelays, p.extra)
		}
	}
	if s := lm.Stats(); s.Stalled != 2 {
		t.Fatalf("stats %+v, want 2 stalled transmissions", s)
	}
}

func TestKeyedPlanMatchesGrayWindows(t *testing.T) {
	cfg := Config{
		Partitions: []Partition{{
			Start: time.Hour, End: 2 * time.Hour,
			Isolated: []overlay.NodeID{1}, OneWay: true,
		}},
		Slowdowns: []Slowdown{{
			Start: time.Hour, End: 2 * time.Hour,
			Nodes: []overlay.NodeID{2}, ExtraDelay: 100 * time.Millisecond,
		}},
		Stalls: []Stall{{
			Start: time.Hour, End: 2 * time.Hour,
			Nodes: []overlay.NodeID{3},
		}},
	}
	lm, err := NewLinkModel(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	at := 90 * time.Minute
	if lm.PlanKeyed(at, 5, 1, 1).Delivered() {
		t.Error("keyed plan delivered into one-way-isolated node")
	}
	if !lm.PlanKeyed(at, 1, 5, 2).Delivered() {
		t.Error("keyed plan dropped transmission out of one-way-isolated node")
	}
	if out := lm.PlanKeyed(at, 5, 2, 3); len(out.ExtraDelays) != 1 || out.ExtraDelays[0] != 100*time.Millisecond {
		t.Errorf("keyed slowdown delays %v, want [100ms]", out.ExtraDelays)
	}
	if out := lm.PlanKeyed(at, 5, 3, 4); len(out.ExtraDelays) != 1 || out.ExtraDelays[0] != 30*time.Minute {
		t.Errorf("keyed stall delays %v, want [30m]", out.ExtraDelays)
	}
	if s := lm.Stats(); s.Slowed != 1 || s.Stalled != 1 || s.PartitionDropped != 1 {
		t.Fatalf("keyed stats %+v", s)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	plan := func() []int {
		lm, err := NewLinkModel(
			Config{DropProb: 0.3, DupProb: 0.2, MaxExtraDelay: 500 * time.Millisecond},
			rand.New(rand.NewSource(42)),
		)
		if err != nil {
			t.Fatal(err)
		}
		var trace []int
		for i := 0; i < 1000; i++ {
			out := lm.Plan(time.Duration(i)*time.Second, overlay.NodeID(i%7), overlay.NodeID(i%5))
			trace = append(trace, len(out.ExtraDelays))
			for _, d := range out.ExtraDelays {
				trace = append(trace, int(d))
			}
		}
		return trace
	}
	a, b := plan(), plan()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestZeroConfigIsTransparent(t *testing.T) {
	lm, err := NewLinkModel(Config{}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		out := lm.Plan(0, 1, 2)
		if len(out.ExtraDelays) != 1 || out.ExtraDelays[0] != 0 {
			t.Fatalf("zero config altered delivery: %+v", out)
		}
	}
	if s := lm.Stats(); s.Lost() != 0 || s.Duplicated != 0 || s.Sent != 100 {
		t.Fatalf("zero config stats %+v", s)
	}
}
