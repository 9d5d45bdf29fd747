package sim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
	"time"
)

// syntheticLog drives a pseudo-random cross-lane cascade on a fresh engine
// and returns its serialized execution log.
func syntheticLog(seed int64) []byte {
	const lanes = 32
	e := NewEngine(seed)
	e.EnableEventLog()

	var step func(l Lane, depth int)
	step = func(l Lane, depth int) {
		if depth == 0 {
			return
		}
		r := e.LaneRand(l)
		for i := 0; i < 2; i++ {
			dst := Lane(r.Intn(lanes))
			delay := time.Millisecond + time.Duration(r.Intn(5000))*time.Microsecond
			e.ScheduleFrom(l, dst, delay, func() { step(dst, depth-1) })
		}
		// Same-lane follow-up, shorter than any cross-lane delay.
		e.ScheduleFrom(l, l, 100*time.Microsecond, func() {})
	}
	for l := Lane(0); l < lanes; l++ {
		l := l
		e.ScheduleFrom(GlobalLane, l, time.Duration(l+1)*300*time.Microsecond, func() { step(l, 7) })
	}
	// A global observer ticking through the run: global events must
	// interleave identically too.
	var tick func()
	tick = func() {
		if e.Now() < 200*time.Millisecond {
			e.Schedule(10*time.Millisecond, tick)
		}
	}
	e.Schedule(0, tick)
	e.RunAll(0)
	return e.EventLogBytes()
}

// TestShardedDeterminismMatrix is the kernel-level determinism property: the
// execution log of a cross-lane cascade is a pure function of the seed. The
// pinned digests are the cascade's log under the kernel's event order
// (deadline, lane, sequence; global before lane; arrivals after a lane's own
// events). A change that means to reorder events re-pins them.
func TestShardedDeterminismMatrix(t *testing.T) {
	pinned := map[int64]string{
		42: "b203d403d7f5f5a7e96abb9e2619cabc38f33990bca0bd72e8fe3ab2d3be4cb5",
		43: "45a92597566291c4ac4e63ffa8cac03d896685887117966cc820c5be85c3d5da",
	}
	for seed, want := range pinned {
		log := syntheticLog(seed)
		if got := fmt.Sprintf("%x", sha256.Sum256(log)); got != want {
			t.Errorf("seed %d: event log digest %s, pinned %s", seed, got, want)
		}
		if again := syntheticLog(seed); !bytes.Equal(log, again) {
			t.Errorf("seed %d: replay diverged (%d vs %d bytes)", seed, len(again), len(log))
		}
	}
}

// TestShardedCrossLaneTiming verifies a cross-lane delivery fires exactly at
// its scheduled instant.
func TestShardedCrossLaneTiming(t *testing.T) {
	e := NewEngine(1)
	var deliveredAt time.Duration
	e.ScheduleFrom(GlobalLane, 0, 2*time.Millisecond, func() {
		e.ScheduleFrom(0, 1, 5*time.Millisecond, func() {
			deliveredAt = e.Now()
		})
	})
	e.RunAll(0)
	if want := 7 * time.Millisecond; deliveredAt != want {
		t.Fatalf("cross-lane delivery at %v, want %v", deliveredAt, want)
	}
}

// TestShardedGlobalBeforeLane: a global event at instant T runs strictly
// before any lane event at T, and a lane's own events run before arrivals
// from other lanes at the same instant.
func TestShardedGlobalBeforeLane(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.ScheduleFrom(GlobalLane, 3, 5*time.Millisecond, func() { order = append(order, "lane") })
	e.ScheduleAt(5*time.Millisecond, func() { order = append(order, "global") })
	e.ScheduleFrom(GlobalLane, 2, time.Millisecond, func() {
		e.ScheduleFrom(2, 4, 9*time.Millisecond, func() { order = append(order, "arrival") })
	})
	e.ScheduleFrom(GlobalLane, 4, 2*time.Millisecond, func() {
		e.ScheduleFrom(4, 4, 8*time.Millisecond, func() { order = append(order, "own") })
	})
	e.RunAll(0)
	want := []string{"global", "lane", "own", "arrival"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestShardedTimerPoolReuse hammers the pooled-timer path: enough sequential
// cross-lane waves to force heavy recycling, checking every delivery fires
// exactly once.
func TestShardedTimerPoolReuse(t *testing.T) {
	e := NewEngine(7)
	const lanes, waves = 8, 200
	fired := 0
	var wave func(n int)
	wave = func(n int) {
		if n == 0 {
			return
		}
		for l := Lane(0); l < lanes; l++ {
			e.ScheduleFrom(l, (l+1)%lanes, 2*time.Millisecond, func() { fired++ })
		}
		e.ScheduleFrom(0, 0, 2*time.Millisecond, func() { wave(n - 1) })
	}
	e.ScheduleFrom(GlobalLane, 0, time.Millisecond, func() { wave(waves) })
	e.RunAll(0)
	if want := lanes * waves; fired != want {
		t.Fatalf("fired %d pooled deliveries, want %d", fired, want)
	}
	if len(e.free) > 2*lanes {
		t.Fatalf("%d pooled timers allocated for at most %d in flight", len(e.free), 2*lanes)
	}
}

// TestShardedRunUntil: Run on a lane event leaves the clock exactly at
// until, with later events intact.
func TestShardedRunUntil(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.ScheduleFrom(GlobalLane, 1, 10*time.Millisecond, func() { fired = true })
	e.Run(5 * time.Millisecond)
	if fired {
		t.Fatal("event beyond until fired early")
	}
	if e.Now() != 5*time.Millisecond {
		t.Fatalf("clock at %v after Run, want 5ms", e.Now())
	}
	e.Run(20 * time.Millisecond)
	if !fired {
		t.Fatal("event never fired")
	}
	if e.Pending() != 0 {
		t.Fatalf("pending %d, want 0", e.Pending())
	}
}

// TestLaneRandIndependence: lane streams are pure functions of (seed, lane)
// — identical across engines, distinct across lanes and seeds.
func TestLaneRandIndependence(t *testing.T) {
	a, b, c := NewEngine(9), NewEngine(9), NewEngine(10)
	for l := Lane(0); l < 8; l++ {
		x, y, z := a.LaneRand(l).Uint64(), b.LaneRand(l).Uint64(), c.LaneRand(l).Uint64()
		if x != y {
			t.Fatalf("lane %d stream differs across engines with one seed", l)
		}
		if x == z {
			t.Fatalf("lane %d stream identical across seeds", l)
		}
	}
	if a.LaneRand(0).Uint64() == a.LaneRand(1).Uint64() {
		t.Fatal("adjacent lanes drew identical values")
	}
}

// --- benchmarks -----------------------------------------------------------

// BenchmarkTimerPushPop measures the timer heap on a schedule-then-drain
// pattern of same-lane timers.
func BenchmarkTimerPushPop(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 1024; k++ {
			e.ScheduleFrom(0, 0, time.Duration(k%37)*time.Millisecond, fn)
		}
		e.RunAll(0)
	}
}

// BenchmarkCrossLaneDelivery measures the pooled arrival path: every event
// hops to the next lane.
func BenchmarkCrossLaneDelivery(b *testing.B) {
	e := NewEngine(1)
	const lanes = 64
	remaining := b.N
	var hop func(l Lane)
	hop = func(l Lane) {
		if remaining <= 0 {
			return
		}
		remaining--
		e.ScheduleFrom(l, (l+1)%lanes, 2*time.Millisecond, func() { hop((l + 1) % lanes) })
	}
	b.ResetTimer()
	for l := Lane(0); l < lanes; l++ {
		l := l
		e.ScheduleFrom(GlobalLane, l, time.Millisecond, func() { hop(l) })
	}
	e.RunAll(0)
}
