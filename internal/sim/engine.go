// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel drives every simulated scenario in this repository: it owns a
// virtual clock, a cancellable timer queue, and seeded random sources. The
// order in which events fire is a pure function of the seed, which makes runs
// bit-for-bit reproducible.
package sim

import (
	"encoding/binary"
	"math"
	"math/rand"
	"time"
)

// Lane identifies the execution context an event belongs to: one lane per
// simulated node (lane id = node id), plus GlobalLane for scenario
// machinery. Event order is defined over lanes — (deadline, lane, sequence)
// — and every lane draws from its own random stream, so what one node does
// never shifts the sequence numbers or random draws of another.
type Lane int32

// GlobalLane is the coordinator lane: scenario machinery (submission plans,
// churn injection, tickers, samplers) that may touch many nodes at once. A
// global event runs before any lane event due at the same instant.
const GlobalLane Lane = -1

// Engine is a single-threaded discrete-event simulation executor.
//
// All callbacks run on the goroutine that calls Run or RunAll; user code
// scheduled on the engine must not block. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	seed   int64
	now    time.Duration
	events uint64
	heap   timerHeap
	rng    *rand.Rand

	// cur is the lane of the executing event; GlobalLane between events
	// and while a global event runs.
	cur   Lane
	gseq  uint64
	lanes []laneState

	// free recycles pooled deliveries after they fire.
	free []*Timer

	logOn     bool
	globalLog []logEntry
}

// laneState is one lane's ordering and randomness context.
type laneState struct {
	seq  uint64 // same-lane and coordinator pushes
	xseq uint64 // arrivals emitted by other lanes' events
	rng  *rand.Rand
	log  []logEntry
}

type logEntry struct {
	at  time.Duration
	seq uint64
}

// seqXFlag tags an arrival's sequence number: within one lane at one
// instant, events the lane scheduled itself (or the coordinator pushed) fire
// before arrivals from other lanes. Arrivals draw from their own per-lane
// counter (xseq), so the number of arrivals a lane has received never shifts
// the sequence numbers of its own timers.
const seqXFlag uint64 = 1 << 63

// NewEngine returns an engine whose clock starts at zero. The coordinator
// random source (Rand) is seeded with seed; lane sources are derived from
// (seed, lane).
func NewEngine(seed int64) *Engine {
	return &Engine{seed: seed, cur: GlobalLane, rng: rand.New(rand.NewSource(seed))}
}

// EnableEventLog makes the engine retain a per-lane (time, sequence) record
// of every executed event, serialized by EventLogBytes. For determinism
// tests; costs 16 bytes per event. Call before the first event fires.
func (e *Engine) EnableEventLog() { e.logOn = true }

// Now reports the current virtual time: the deadline of the executing event,
// or the time the last Run stopped at.
func (e *Engine) Now() time.Duration { return e.now }

// Rand is the coordinator random source, for global scenario machinery
// only. Lane callbacks must use LaneRand.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// LaneRand is the lane's private random stream, created on first use from
// (seed, lane).
func (e *Engine) LaneRand(l Lane) *rand.Rand {
	ls := e.lane(l)
	if ls.rng == nil {
		ls.rng = rand.New(&laneSource{state: uint64(laneSeed(e.seed, l))})
	}
	return ls.rng
}

// Events reports the total number of callbacks executed so far.
func (e *Engine) Events() uint64 { return e.events }

// Pending reports the number of scheduled, not-yet-fired timers, including
// cancelled timers that have not yet been drained from the queue.
func (e *Engine) Pending() int { return len(e.heap) }

// Schedule arranges for fn to run on the global lane after delay. A
// negative delay is treated as zero. The returned timer may be used to
// cancel the callback.
func (e *Engine) Schedule(delay time.Duration, fn func()) *Timer {
	return e.ScheduleAt(e.now+max(delay, 0), fn)
}

// ScheduleAt arranges for fn to run on the global lane at absolute virtual
// time at. Times in the past are clamped to the current instant.
func (e *Engine) ScheduleAt(at time.Duration, fn func()) *Timer {
	t := &Timer{at: max(at, e.now), lane: GlobalLane, seq: e.gseq, fn: fn}
	e.gseq++
	e.heap.push(t)
	return t
}

// ScheduleFrom arranges for fn to run on lane dst after delay, the call
// originating from lane src (GlobalLane for coordinator context).
//
// A lane's own timer (src == dst) is cancellable. A push onto another lane
// cannot be cancelled: its timer is pooled — recycled once it fires — and
// ScheduleFrom returns nil for it. Pushed from a lane event it is an
// arrival and takes the destination's arrival sequence; pushed from outside
// any lane event (setup, global events) it takes the lane's own sequence.
func (e *Engine) ScheduleFrom(src, dst Lane, delay time.Duration, fn func()) *Timer {
	at := e.now + max(delay, 0)
	if dst == GlobalLane {
		return e.ScheduleAt(at, fn)
	}
	ls := e.lane(dst)
	if src == dst {
		t := &Timer{at: at, lane: dst, seq: ls.seq, fn: fn}
		ls.seq++
		e.heap.push(t)
		return t
	}
	t := e.alloc()
	*t = Timer{at: at, lane: dst, fn: fn, pooled: true}
	if src == GlobalLane || e.cur == GlobalLane {
		t.seq = ls.seq
		ls.seq++
	} else {
		t.seq = ls.xseq | seqXFlag
		ls.xseq++
	}
	e.heap.push(t)
	return nil
}

// Run executes events until the queue is exhausted or the next event lies
// beyond until, then leaves the clock at until. It returns the number of
// events executed.
func (e *Engine) Run(until time.Duration) int {
	n := e.run(until, 0)
	e.now = max(e.now, until)
	return n
}

// RunAll executes events until the queue empties or maxEvents callbacks have
// run (0 means no limit). It returns the number of events executed.
func (e *Engine) RunAll(maxEvents int) int {
	return e.run(math.MaxInt64, maxEvents)
}

func (e *Engine) run(until time.Duration, maxEvents int) int {
	n := 0
	for maxEvents <= 0 || n < maxEvents {
		t := e.heap.peekLive()
		if t == nil || t.at > until {
			break
		}
		e.heap.pop()
		e.now, e.cur = t.at, t.lane
		t.fired = true
		if e.logOn {
			le := logEntry{t.at, t.seq}
			if t.lane == GlobalLane {
				e.globalLog = append(e.globalLog, le)
			} else {
				ls := &e.lanes[t.lane]
				ls.log = append(ls.log, le)
			}
		}
		e.events++
		t.fn()
		n++
		if t.pooled {
			t.fn = nil
			e.free = append(e.free, t)
		}
	}
	e.cur = GlobalLane
	return n
}

// lane returns the state for l, growing the lane table on first use. The
// pointer is valid until the next call.
func (e *Engine) lane(l Lane) *laneState {
	i := int(l)
	if i >= len(e.lanes) {
		grown := make([]laneState, i+1+i/2)
		copy(grown, e.lanes)
		e.lanes = grown
	}
	return &e.lanes[i]
}

// alloc returns a recycled pooled timer, or a fresh one.
func (e *Engine) alloc() *Timer {
	if n := len(e.free); n > 0 {
		t := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return t
	}
	return new(Timer)
}

// EventLogBytes serializes the execution log (EnableEventLog): for the
// global lane and then every lane in ascending order, the lane id, entry
// count, and each (time, sequence) pair, little-endian. Two runs are
// behaviorally identical iff their logs are byte-identical.
func (e *Engine) EventLogBytes() []byte {
	var out []byte
	emit := func(lane Lane, log []logEntry) {
		if len(log) == 0 {
			return
		}
		out = binary.LittleEndian.AppendUint64(out, uint64(int64(lane)))
		out = binary.LittleEndian.AppendUint64(out, uint64(len(log)))
		for _, le := range log {
			out = binary.LittleEndian.AppendUint64(out, uint64(le.at))
			out = binary.LittleEndian.AppendUint64(out, le.seq)
		}
	}
	emit(GlobalLane, e.globalLog)
	for i := range e.lanes {
		emit(Lane(i), e.lanes[i].log)
	}
	return out
}

// Timer is a handle to a scheduled callback.
type Timer struct {
	at        time.Duration
	seq       uint64
	lane      Lane
	fn        func()
	cancelled bool
	fired     bool

	// pooled marks an arrival no caller holds a reference to (ScheduleFrom
	// returned nil for it): it can never be cancelled and is recycled after
	// firing.
	pooled bool
}

// When reports the virtual time the timer is due to fire.
func (t *Timer) When() time.Duration {
	return t.at
}

// Cancel prevents the callback from running. It reports whether the
// cancellation took effect (false when the timer already fired or was
// already cancelled).
func (t *Timer) Cancel() bool {
	if t.fired || t.cancelled {
		return false
	}
	t.cancelled = true
	return true
}

// Fired reports whether the callback has already run.
func (t *Timer) Fired() bool {
	return t.fired
}

// laneSource is the per-lane rand.Source64: a SplitMix64 counter stream.
// Eight bytes of state per lane, versus the ~5KB (and attendant cache
// misses) of the default lagged-Fibonacci source — with 10k lanes the
// difference shows up in whole-run profiles.
type laneSource struct{ state uint64 }

func (s *laneSource) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return splitmix64(s.state)
}

func (s *laneSource) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *laneSource) Seed(seed int64) { s.state = uint64(seed) }

// splitmix64 is the SplitMix64 mixer: a bijective avalanche over uint64,
// used to derive independent per-lane seeds from a run seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// laneSeed derives the RNG seed for one lane of a run.
func laneSeed(seed int64, lane Lane) int64 {
	return int64(splitmix64(uint64(seed)^splitmix64(uint64(int64(lane)))) & 0x7fffffffffffffff)
}

// timerHeap is a 4-ary min-heap of timers ordered by (deadline, lane,
// sequence); GlobalLane sorts first at equal deadlines. The ordering key is
// stored inline in each slot so sift compares touch only the contiguous heap
// array, never the timers themselves (the pointer chase was the dominant
// heap cost at 10k nodes). Cancelled timers are dropped lazily at peek.
type timerHeap []heapItem

type heapItem struct {
	at   time.Duration
	seq  uint64
	lane Lane
	t    *Timer
}

func itemLess(x, y *heapItem) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	if x.lane != y.lane {
		return x.lane < y.lane
	}
	return x.seq < y.seq
}

func (h *timerHeap) push(t *Timer) {
	*h = append(*h, heapItem{at: t.at, seq: t.seq, lane: t.lane, t: t})
	a := *h
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !itemLess(&a[i], &a[p]) {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
}

func (h *timerHeap) pop() *Timer {
	a := *h
	t := a[0].t
	last := len(a) - 1
	a[0] = a[last]
	a[last] = heapItem{}
	a = a[:last]
	*h = a
	i := 0
	for {
		first := 4*i + 1
		if first >= len(a) {
			break
		}
		least := first
		for c := first + 1; c < min(first+4, len(a)); c++ {
			if itemLess(&a[c], &a[least]) {
				least = c
			}
		}
		if !itemLess(&a[least], &a[i]) {
			break
		}
		a[i], a[least] = a[least], a[i]
		i = least
	}
	return t
}

// peekLive returns the earliest live timer, discarding cancelled ones.
func (h *timerHeap) peekLive() *Timer {
	for len(*h) > 0 {
		if t := (*h)[0].t; !t.cancelled {
			return t
		}
		h.pop()
	}
	return nil
}
