package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/scenario"
	"github.com/smartgrid/aria/internal/trace"
	"github.com/smartgrid/aria/internal/transport"
)

// simShape fixes the size of a simulated workload. The constants below are
// the benchmark; nothing is scaled from the host.
//
// The input is a synthetic SWF trace of jobs generated from the seed
// (submissions over the first simulated hour, run times of 10 to 60 minutes)
// and replayed through the deployment. The grid itself — overlay, node
// profiles, churn victims — stays on the catalog seed, so the seed changes
// the input and not the system.
type simShape struct {
	scenario string
	nodes    int // overlay size; 0 with scaled set
	jobs     int // trace length
	horizon  time.Duration

	// scaled, when set, selects the planes shape: the scenario at
	// Config.Scaled(scaled) (nodes and churn kills), with the journal, the
	// trace plane and crash-restart churn on, and the trace checker run over
	// every replay.
	scaled float64
}

var (
	// 100 jobs keep a replay under a second, so a run holds some twenty of
	// them for the fastest to be picked from; 0.9 M events, two thirds of
	// them flood messages.
	simFlood = simShape{scenario: "iMixed", nodes: 10000, jobs: 100, horizon: 3 * time.Hour}

	// 100 nodes, 10 crash-restarts between 0:30 and 0:50. Six hours cover
	// the last submission plus the longest queue; a longer horizon only
	// adds idle PING/PONG rounds.
	simPlanes = simShape{scenario: "iSharedStateChurn", scaled: 0.2, jobs: 200, horizon: 6 * time.Hour}
)

// shrink returns the shape at a fraction of its size, for the smoke tests.
func (s simShape) shrink(f float64) simShape {
	if f >= 1 {
		return s
	}
	s.scaled *= f
	s.nodes = int(float64(s.nodes) * f)
	s.jobs = max(8, int(float64(s.jobs)*f))
	return s
}

func (s simShape) planes() bool { return s.scaled > 0 }

// config resolves the shape to a scenario configuration.
func (s simShape) config() (scenario.Config, error) {
	cfg, err := scenario.ByName(s.scenario)
	if err != nil {
		return cfg, err
	}
	if s.planes() {
		cfg.Journal, cfg.Trace = true, true
		ch := *cfg.Churn
		ch.Restart = 5 * time.Second
		cfg.Churn = &ch
		cfg = cfg.Scaled(s.scaled)
	} else {
		cfg.Nodes = s.nodes
	}
	cfg.Horizon = s.horizon
	return cfg, nil
}

// simIter is what one set-up + replay produced.
type simIter struct {
	setup, wall, check, cpu time.Duration

	attempted, completed int
	events               uint64
	mallocs              uint64
	heapPerNode          float64

	m metrics // count metrics of this replay, equal on every replay of one seed
}

// iterate sets the deployment up, replays it and checks the outcome. The
// harness spans are the timings it takes around the product calls it makes.
func (s simShape) iterate(seed int64, traced bool) (simIter, error) {
	var it simIter
	cfg, err := s.config()
	if err != nil {
		return it, err
	}
	var heapBefore uint64
	if traced {
		heapBefore = liveHeap()
	}

	t0 := time.Now()
	d, err := scenario.Prepare(cfg, 0)
	if err != nil {
		return it, err
	}
	if it.attempted, err = scenario.ReplaySWF(d, scenario.SyntheticTrace(s.jobs, seed)); err != nil {
		return it, err
	}
	it.setup = time.Since(t0)
	if traced {
		it.heapPerNode = float64(liveHeap()-heapBefore) / float64(cfg.Nodes)
	}

	m0 := mallocs()
	c0, t1 := cpuTime(), time.Now()
	res := d.Finish()
	it.wall, it.cpu = time.Since(t1), cpuTime()-c0
	it.mallocs = mallocs() - m0
	it.events = d.Engine.Events()
	it.completed = res.Completed

	// Output checks. Churn legitimately re-runs crashed executions, so
	// duplicate starts are only an error on the clean flood workload; the
	// planes workload is held to the trace invariants instead.
	if s.planes() {
		t2 := time.Now()
		rep := trace.Check(d.Trace.Events(), cfg.TraceOpts())
		it.check = time.Since(t2)
		if !rep.OK() {
			return it, fmt.Errorf("trace checker: %d violations, first: %s", len(rep.Violations), rep.Violations[0])
		}
	} else if res.DuplicateStarts != 0 || res.Failed != 0 {
		return it, fmt.Errorf("replay: %d duplicate starts, %d failed jobs", res.DuplicateStarts, res.Failed)
	}
	if !s.planes() && res.Completed != it.attempted {
		return it, fmt.Errorf("replay: %d of %d jobs completed", res.Completed, it.attempted)
	}
	if res.Completed > res.Submitted || res.Submitted > it.attempted {
		return it, fmt.Errorf("replay: attempted %d, submitted %d, completed %d", it.attempted, res.Submitted, res.Completed)
	}

	var msgs, floods int64
	for typ, tr := range res.Traffic {
		msgs += tr.Count
		if typ == core.MsgRequest || typ == core.MsgInform {
			floods += tr.Count
		}
	}
	perJob := func(v float64) float64 {
		if res.Completed == 0 {
			return 0
		}
		return v / float64(res.Completed)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	ss := res.SharedState
	it.m = metrics{
		"sim.events":                  float64(it.events),
		"core.msgs_per_job":           perJob(float64(msgs)),
		"core.request_msgs_per_job":   res.MsgsPerJob[core.MsgRequest],
		"core.inform_msgs_per_job":    res.MsgsPerJob[core.MsgInform],
		"core.reschedules_per_job":    perJob(float64(res.Reschedules)),
		"core.flood_dup_share":        ratio(float64(res.Spans[core.SpanDuplicate]), float64(floods)),
		"core.duplicate_starts":       float64(res.DuplicateStarts),
		"sharedstate.commits_per_job": ratio(float64(ss.Commits), float64(res.Submitted)),
		"sharedstate.grant_share":     ratio(float64(ss.Granted), float64(ss.Commits)),
		"sharedstate.fallback_share":  ratio(float64(ss.Fallbacks), float64(res.Submitted)),
		"wal.replay_records":          float64(res.Recovery.ReplayRecords),
	}
	return it, nil
}

// runSim measures a simulated workload for about budget: whole replays of
// the same input, at least three. With traced set the
// replays alternate between an untraced reference and one under the CPU
// profiler, so that drift over the run cancels out of the overhead estimate.
func runSim(s simShape, seed int64, budget time.Duration, traced bool) (*runResult, error) {
	minIters := 3
	if traced {
		minIters = 4
	}
	var (
		iters []simIter
		prof  cpuProfiler
		start = time.Now()
	)
	for {
		runtime.GC() // each replay starts from a collected heap
		var it simIter
		on := traced && len(iters)%2 == 1
		step := func() (err error) { it, err = s.iterate(seed, on); return err }
		var err error
		if on {
			err = prof.while(step)
		} else {
			err = step()
		}
		if err != nil {
			return nil, err
		}
		iters = append(iters, it)
		elapsed := time.Since(start)
		if len(iters) >= minIters && elapsed+elapsed/time.Duration(len(iters)) > budget {
			break
		}
	}

	res := &runResult{metrics: metrics{}}
	// Index 0 holds the untraced replays, index 1 the traced ones.
	var setups, cpus, lats []float64
	var rates, evRates, mallocsPerEv [2][]float64
	for i, it := range iters {
		res.attempted += it.attempted
		res.failed += it.attempted - it.completed
		for k, v := range it.m {
			if v != iters[0].m[k] {
				return nil, fmt.Errorf("replay %d of seed %d: %s = %v, first replay had %v (not deterministic)", i, seed, k, v, iters[0].m[k])
			}
		}
		if it.completed == 0 {
			return nil, fmt.Errorf("replay %d completed nothing", i)
		}
		on := 0
		if traced {
			on = i % 2
		}
		setups = append(setups, it.setup.Seconds())
		cpus = append(cpus, ms(it.cpu)/float64(it.completed))
		lats = append(lats, ms(it.setup+it.wall+it.check))
		rates[on] = append(rates[on], float64(it.completed)/it.wall.Seconds())
		evRates[on] = append(evRates[on], float64(it.events)/it.wall.Seconds())
		mallocsPerEv[on] = append(mallocsPerEv[on], float64(it.mallocs)/float64(it.events))
	}
	res.notef("%d replays of %d jobs, %d events each, median %.3f s from set-up to checked result",
		len(iters), iters[0].attempted, iters[0].events, median(lats)/1000)
	res.notef("replay jobs/s: untraced %.1f traced %.1f", rates[0], rates[1])

	if !traced {
		// Every replay does bit-identical work, so the spread between them
		// is the host's and not the code's (on the reference host ±15 % from
		// one replay to the next and slow spells of minutes), and it only
		// ever slows a replay down. Every timing therefore comes from the
		// repetitions the host disturbed least: the fastest set-up, the
		// fastest replay, and the latency percentiles over the fastest
		// quarter of the iterations.
		slices.Sort(lats)
		undisturbed := lats[:(len(lats)+3)/4]
		res.metrics = metrics{
			"setup_s":        slices.Min(setups),
			"jobs_per_s":     slices.Max(rates[0]),
			"cpu_ms_per_job": slices.Min(cpus),
			"latency_p50_ms": percentile(undisturbed, 50),
			"latency_p90_ms": percentile(undisturbed, 90),
			"peak_rss_mb":    peakRSSMB(),
		}
		return res, nil
	}

	last := iters[(len(iters)-2)|1] // the last traced replay: the highest odd index
	res.metrics.merge(last.m)
	res.metrics.merge(cpuShares(prof.samples))
	res.metrics["sim.events_per_s"] = median(evRates[1])
	res.metrics["mem.mallocs_per_event"] = median(mallocsPerEv[1])
	res.metrics["mem.heap_bytes_per_node"] = last.heapPerNode
	res.metrics["trace.check_s"] = last.check.Seconds()
	res.metrics["load.tracing_overhead_share"] = 1 - median(rates[1])/median(rates[0])
	res.metrics["transport.wire_rejects"] = float64(wireRejects())
	cfg, err := s.config()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if _, err := overlay.Build(cfg.Nodes, cfg.Overlay, rand.New(rand.NewSource(seed))); err != nil {
		return nil, err
	}
	res.metrics["overlay.build_s"] = time.Since(t0).Seconds()
	return res, nil
}

// wireRejects totals the frames the wire codec refused, process-wide.
func wireRejects() uint64 {
	var n uint64
	for _, c := range transport.WireRejects() {
		n += c
	}
	return n
}
