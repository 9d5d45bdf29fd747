package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"github.com/smartgrid/aria/internal/job"
)

// phaseLoad is what the generator measured over one stretch of load.
type phaseLoad struct {
	start, end time.Duration // tracker-clock bounds
	cpu        time.Duration
	mallocs    uint64

	// marks cut a closed-loop stretch into windows of about a second: the
	// tracker clock and the process CPU time at each cut, start and end
	// included.
	marks []loadMark
}

type loadMark struct{ at, cpu time.Duration }

// phaseLoads is a phase measured in one or several stretches.
type phaseLoads []phaseLoad

func (ps phaseLoads) seconds() (s float64) {
	for _, p := range ps {
		s += (p.end - p.start).Seconds()
	}
	return s
}

func (ps phaseLoads) cpu() (d time.Duration) {
	for _, p := range ps {
		d += p.cpu
	}
	return d
}

func (ps phaseLoads) mallocs() (n uint64) {
	for _, p := range ps {
		n += p.mallocs
	}
	return n
}

// cpuUtil is the share of the host's CPUs the process kept busy.
func (ps phaseLoads) cpuUtil() float64 {
	return ps.cpu().Seconds() / (ps.seconds() * float64(runtime.NumCPU()))
}

// windows returns, for every window of every stretch, the jobs completed per
// second and the CPU milliseconds per completed job, plus the completions in
// all of them. done holds the completion times of the phase's jobs in
// ascending order; a job that finishes in the drain after a stretch is not
// throughput.
func (ps phaseLoads) windows(done []time.Duration) (rates, cpuMs []float64, completed int) {
	for _, p := range ps {
		for i := 1; i < len(p.marks); i++ {
			from, to := p.marks[i-1], p.marks[i]
			lo, _ := slices.BinarySearch(done, from.at)
			hi, _ := slices.BinarySearch(done, to.at)
			n := hi - lo
			completed += n
			rates = append(rates, float64(n)/(to.at-from.at).Seconds())
			if n > 0 {
				cpuMs = append(cpuMs, ms(to.cpu-from.cpu)/float64(n))
			}
		}
	}
	return rates, cpuMs, completed
}

// completionsB lists when each phase-B job completed, in ascending order.
func (t *tracker) completionsB() []time.Duration {
	var done []time.Duration
	t.each(func(_ job.UUID, r *jobRec) {
		if r.phase == phaseB && r.completions > 0 {
			done = append(done, r.completed)
		}
	})
	slices.Sort(done)
	return done
}

// openLoop submits rate jobs per second for dur, round-robin over the nodes,
// on a fixed schedule that does not slow down when the grid does. Every job
// is registered with its due time, so a stall counts against the jobs queued
// behind it. late is how far behind its schedule the generator sent each job,
// in ms.
func (g *grid) openLoop(dur time.Duration) (p phaseLoad, late []float64, err error) {
	n := int(g.shape.rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / g.shape.rate)
	p.start = g.tracker.now()
	late = make([]float64, 0, n)
	c0 := cpuTime()
	for i := 0; i < n; i++ {
		due := p.start + time.Duration(i)*interval
		now := g.tracker.now()
		for now < due {
			time.Sleep(due - now)
			now = g.tracker.now()
		}
		late = append(late, ms(now-due))
		if err := g.submit(i%g.shape.nodes, phaseA, due); err != nil {
			return p, late, err
		}
	}
	if rest := p.start + dur - g.tracker.now(); rest > 0 {
		time.Sleep(rest)
	}
	p.end, p.cpu = g.tracker.now(), cpuTime()-c0
	return p, late, nil
}

// closedLoop keeps inflight jobs in the grid for dur: the next job goes in
// when one completes, so a slower grid is offered less.
func (g *grid) closedLoop(dur time.Duration) (phaseLoad, error) {
	t := g.tracker
	for len(t.tokens) > 0 {
		<-t.tokens
	}
	for i := 0; i < g.shape.inflight; i++ {
		t.tokens <- struct{}{}
	}
	m0, c0 := mallocs(), cpuTime()
	p := phaseLoad{start: t.now()}
	p.marks = append(p.marks, loadMark{p.start, c0})
	stop := time.NewTimer(dur)
	defer stop.Stop()
	window := time.NewTicker(loadWindow)
	defer window.Stop()
	for i := 0; ; {
		select {
		case <-t.tokens:
			if err := g.submit(i%g.shape.nodes, phaseB, 0); err != nil {
				return p, err
			}
			i++
		case <-window.C:
			// A cut closer than half a window to the end would leave a
			// sliver whose rate is mostly rounding.
			if now := t.now(); p.start+dur-now > loadWindow/2 {
				p.marks = append(p.marks, loadMark{now, cpuTime()})
			}
		case <-stop.C:
			p.end = t.now()
			p.marks = append(p.marks, loadMark{p.end, cpuTime()})
			p.cpu, p.mallocs = cpuTime()-c0, mallocs()-m0
			return p, nil
		}
	}
}

// loadWindow is the length of the windows the closed-loop throughput is a
// median over.
const loadWindow = time.Second

// startMeasuredGrid sets the grid up setupRepeats times, tearing all but the
// last one down again, and returns the last grid with every set-up time.
func startMeasuredGrid(s liveShape, seed int64, workDir string, baseGoroutines int) (*grid, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		var (
			g   *grid
			err error
			t0  time.Time
		)
		// If another process takes a reserved port in the instant it is
		// free, reserve again, in a fresh directory. Only the set-up that
		// worked is timed.
		for try := 0; try < 3; try++ {
			dir := filepath.Join(workDir, fmt.Sprintf("grid-%d-%d", i, try))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, nil, err
			}
			t0 = time.Now()
			if g, err = startGrid(s, seed, dir); !errors.Is(err, syscall.EADDRINUSE) {
				break
			}
		}
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == setupRepeats-1 {
			return g, setups, nil
		}
		if err := g.closeAndWait(baseGoroutines); err != nil {
			return nil, nil, fmt.Errorf("tear-down %d: %w", i, err)
		}
	}
}

// closeAndWait closes the grid and checks that the goroutines it started
// are gone.
func (g *grid) closeAndWait(baseGoroutines int) error {
	err := g.close()
	if left := waitGoroutines(baseGoroutines); left > 0 {
		err = errors.Join(err, fmt.Errorf("%d goroutines still running after close", left))
	}
	return err
}

// runLive measures a live workload: set-up (several times; the last grid is
// the one measured), phase A open loop and phase B closed loop, half the
// budget each; throughput and CPU per job are medians over phase B's
// one-second windows. With traced set, phase A runs under the CPU profiler with
// per-phase timestamps on, and phase B alternates untraced and traced
// stretches, so that drift over the phase cancels out of the overhead
// estimate.
func runLive(s liveShape, seed int64, budget time.Duration, traced bool, workDir string) (res *runResult, err error) {
	res = &runResult{metrics: metrics{}}
	baseGoroutines := runtime.NumGoroutine()
	g, setups, err := startMeasuredGrid(s, seed, workDir, baseGoroutines)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			err = errors.Join(err, g.closeAndWait(baseGoroutines))
		}
	}()

	t := g.tracker
	var (
		prof    cpuProfiler
		a       phaseLoad
		late    []float64
		b, bRef phaseLoads
	)
	profiled := func(on bool, fn func() error) error {
		t.detailed.Store(on)
		if on {
			return prof.while(fn)
		}
		return fn()
	}
	err = profiled(traced, func() (err error) { a, late, err = g.openLoop(budget / 2); return err })
	if err != nil {
		return nil, err
	}
	t.waitSettled(s.drain)

	stretches := 1
	if traced {
		stretches = 4
	}
	for i := 0; i < stretches; i++ {
		on := traced && i%2 == 1
		var p phaseLoad
		err := profiled(on, func() (err error) { p, err = g.closedLoop(budget / 2 / time.Duration(stretches)); return err })
		if err != nil {
			return nil, err
		}
		t.waitSettled(s.drain)
		if on || !traced {
			b = append(b, p)
		} else {
			bRef = append(bRef, p)
		}
	}
	walBytes := g.walBytes.Load()
	closed = true
	if err := g.closeAndWait(baseGoroutines); err != nil {
		return nil, err
	}

	// Output checks: every submitted UUID completes exactly once, nothing
	// fails, no frame is refused, the journal never errors. A job that
	// missed the drain deadline is a failed operation, not a wrong output.
	var latencies, discovery, queue, exec []float64
	var byWindow [][]float64 // phase-A latencies by the second the job was due in
	var dup, unknown, gaveUp int
	t.each(func(uuid job.UUID, r *jobRec) {
		switch {
		case r.registrations == 0:
			unknown++
		case r.registrations > 1 || r.completions > 1:
			dup++
		}
		if r.phase == phaseWarm || r.registrations == 0 {
			return
		}
		res.attempted++
		if r.completions != 1 || r.failures > 0 {
			res.failed++
			if r.failures > 0 {
				gaveUp++
			}
			return
		}
		if r.phase != phaseA {
			return
		}
		latencies = append(latencies, ms(r.latency()))
		w := int((r.due - a.start) / loadWindow)
		for len(byWindow) <= w {
			byWindow = append(byWindow, nil)
		}
		byWindow[w] = append(byWindow[w], ms(r.latency()))
		if r.submitted > 0 && r.assigned >= r.submitted && r.started >= r.assigned {
			discovery = append(discovery, ms(r.assigned-r.submitted))
			queue = append(queue, ms(r.started-r.assigned))
			exec = append(exec, ms(r.completed-r.started))
		}
	})
	if dup > 0 || unknown > 0 {
		return nil, fmt.Errorf("%d jobs submitted or completed more than once, %d events for jobs never submitted", dup, unknown)
	}
	if n := wireRejects(); n != 0 {
		return nil, fmt.Errorf("%d frames rejected by the wire codec", n)
	}
	if e := t.walErr.Load(); e != nil {
		return nil, fmt.Errorf("journal: %w", *e)
	}
	done := t.completionsB()
	rates, cpuMs, doneB := b.windows(done)
	refRates, _, _ := bRef.windows(done)
	if len(latencies) == 0 || doneB == 0 {
		return nil, fmt.Errorf("nothing completed: phase A %d, phase B %d", len(latencies), doneB)
	}

	aLoads := phaseLoads{a}
	res.notef("phase A open loop %.0f jobs/s: %d samples, CPU utilisation %.2f, generator lateness p50 %.3f ms p99 %.3f ms",
		s.rate, len(latencies), aLoads.cpuUtil(), percentile(late, 50), percentile(late, 99))
	res.notef("phase B closed loop %d in flight: %d completions in %.2f s, CPU utilisation %.2f",
		s.inflight, doneB, b.seconds(), b.cpuUtil())
	if res.failed > 0 {
		res.notef("%d of %d jobs failed: %d abandoned by their initiator (JobFailed), %d not complete at the drain deadline",
			res.failed, res.attempted, gaveUp, res.failed-gaveUp)
	}
	if !s.commit {
		res.notef("latency has a configured floor: AcceptTimeout = %v", floodAcceptTimeout)
	}

	if !traced {
		// Percentiles are taken per one-second window of due times and the
		// median window reported: a hiccup of the host lands in one or two
		// windows, a slower grid in all of them. A window shorter than half
		// a second (the tail of the phase) is left out. The tail metric is
		// p90: on the reference host p99 of the same runs is bimodal (2.4 or
		// 5 ms on live-commit, whether or not a GC cycle fell in the window)
		// and no bound the driver allows would hold it; the traced run still
		// reports it as load.latency_p99_ms.
		var p50s, p90s []float64
		for _, w := range byWindow {
			if float64(len(w)) >= s.rate*loadWindow.Seconds()/2 {
				p50s = append(p50s, percentile(w, 50))
				p90s = append(p90s, percentile(w, 90))
			}
		}
		if len(p50s) == 0 { // a phase shorter than a window
			p50s, p90s = []float64{percentile(latencies, 50)}, []float64{percentile(latencies, 90)}
		}
		res.notef("latency over all %d samples: p50 %.3f ms, p90 %.3f ms, p99 %.3f ms",
			len(latencies), percentile(latencies, 50), percentile(latencies, 90), percentile(latencies, 99))
		res.metrics = metrics{
			"setup_s":        median(setups),
			"jobs_per_s":     median(rates),
			"cpu_ms_per_job": median(cpuMs),
			"latency_p50_ms": median(p50s),
			"latency_p90_ms": median(p90s),
			"peak_rss_mb":    peakRSSMB(),
		}
		return res, nil
	}

	res.metrics.merge(cpuShares(prof.samples))
	res.metrics.merge(metrics{
		"phase.discovery_p50_ms":      percentile(discovery, 50),
		"phase.discovery_p99_ms":      percentile(discovery, 99),
		"phase.queue_p50_ms":          percentile(queue, 50),
		"phase.exec_p50_ms":           percentile(exec, 50),
		"load.latency_samples":        float64(len(latencies)),
		"load.latency_p99_ms":         percentile(latencies, 99),
		"load.late_p99_ms":            percentile(late, 99),
		"load.late_max_ms":            percentile(late, 100),
		"load.phase_a_cpu_util":       aLoads.cpuUtil(),
		"load.phase_b_cpu_util":       b.cpuUtil(),
		"load.tracing_overhead_share": 1 - median(rates)/median(refRates),
		"mem.mallocs_per_job":         float64(b.mallocs()) / float64(doneB),
		"wal.bytes_per_job":           float64(walBytes) / float64(t.finished.Load()),
	})
	if c := t.commits.Load(); c > 0 {
		res.metrics["sharedstate.commits_per_job"] = float64(c) / float64(t.registered.Load())
		res.metrics["sharedstate.grant_share"] = float64(t.granted.Load()) / float64(c)
		res.metrics["sharedstate.fallback_share"] = float64(t.fallbacks.Load()) / float64(t.registered.Load())
	}
	return res, nil
}
