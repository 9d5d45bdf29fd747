package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/job"
)

// benchmarkFile mirrors BENCHMARK.json, the driver's copy of the
// declarations in metrics.go.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the program measures for %d", f.RunSeconds, runSeconds)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", f.Paths)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d declared", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), declared %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, at most 200", w.Name, len(w.Why))
		}
	}
	metricNameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, got []benchmarkMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d declared", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, declared %+v", kind, i, g, d)
			}
			if !metricNameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s %s: name or unit %q outside the driver's alphabet", kind, d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, d.Name, d.Better)
			}
			if seen[d.Name] {
				t.Errorf("%s %s: name used twice", kind, d.Name)
			}
			seen[d.Name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s %s: bound %v in BENCHMARK.json, declared %v, must be in (0, 0.25]", kind, d.Name, g.Bound, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.Name)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, true)
	check("per_layer", f.PerLayer, perLayer, false)
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" {
		t.Errorf("the driver requires setup_s in seconds, lower better; got %+v", d)
	}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload at about 1/50 of its
// size, untraced and traced. runWorkload itself refuses a run whose metric
// names differ from the declared set.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			// 1.2 s: a traced phase B stretch (an eighth of the run) must
			// outlast live-flood's 50 ms collect window.
			res, err := runWorkload(w.Name, 1, 1.2, traced, 0.02, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if res.attempted < 1 || res.failed != 0 {
				t.Errorf("%s traced=%v: attempted=%d failed=%d", w.Name, traced, res.attempted, res.failed)
			}
			defs := declared(traced)
			if len(res.metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, %d declared", w.Name, traced, len(res.metrics), len(defs))
			}
			for _, d := range defs {
				v := res.metrics[d.Name]
				if math.IsNaN(v) || math.IsInf(v, 0) || (!traced && v <= 0) {
					t.Errorf("%s traced=%v: %s = %v", w.Name, traced, d.Name, v)
				}
			}
		}
	}
}

func TestBucketerPutsEverySampleInOneBucket(t *testing.T) {
	const mod = "github.com/smartgrid/aria/internal/"
	cases := []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"runtime.mallocgc", "encoding/json.Marshal", mod + "transport.WriteMessage", mod + "transport.(*tcpEnv).transmit"}, "transport"},
		{[]string{"runtime.memmove", mod + "core.(*Node).handleRequest", mod + "core.(*Node).HandleMessage", mod + "transport.(*TCPNode).serveConn"}, "core"},
		{[]string{mod + "sched.(*Queue).ettc", mod + "core.(*Node).selfOffer", mod + "sim.(*Engine).Run", "main.runSim"}, "sched"},
		{[]string{mod + "sharedstate.(*Store).Pick", mod + "core.(*Node).startCommit"}, "directory"},
		{[]string{"syscall.Syscall", "os.(*File).Write", mod + "wal.(*FileStore).AppendJournal", mod + "core.(*Node).jlog"}, "wal"},
		{[]string{mod + "metrics.(*Recorder).TraceSpan", mod + "eventlog.Tee.TraceSpan", mod + "core.(*Node).emitSpan"}, "observers"},
		{[]string{mod + "job.NewUUID", mod + "ctl.(*Server).newUUID", mod + "ctl.(*Server).Handle", "main.(*grid).submit"}, "other_pkgs"},
		{[]string{mod + "overlay.Build", mod + "scenario.Prepare", "main.simShape.iterate"}, "overlay"},
		{[]string{"sort.Float64s", "main.percentile", "main.runLive"}, "harness"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"internal/runtime/syscall.EpollWait", "runtime.netpoll", "runtime.findRunnable", "runtime.schedule"}, "syscall"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm"}, "runtime_other"},
		{nil, "runtime_other"},
	}
	var samples []stackSample
	for i, c := range cases {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("stack %v: bucket %s, want %s", c.stack, got, c.want)
		}
		samples = append(samples, stackSample{stack: c.stack, value: int64(i + 1)})
	}
	m := cpuShares(samples)
	var sum float64
	for _, b := range exclusiveBuckets {
		sum += m["cpu."+b+"_share"]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("exclusive shares sum to %v, want 1", sum)
	}
	if len(m) != len(exclusiveBuckets)+3 {
		t.Errorf("%d cpu metrics, want %d buckets and 3 cross-cuts", len(m), len(exclusiveBuckets))
	}
	// Cross-cuts overlap the buckets: the first sample allocates inside
	// JSON inside transport and counts for all three.
	total := float64(len(cases) * (len(cases) + 1) / 2)
	if got, want := m["cpu.alloc_any_share"], 1/total; got != want {
		t.Errorf("alloc_any_share = %v, want %v", got, want)
	}
	if got, want := m["cpu.json_any_share"], 1/total; got != want {
		t.Errorf("json_any_share = %v, want %v", got, want)
	}
	if got, want := m["cpu.syscall_any_share"], (5+11)/total; got != want {
		t.Errorf("syscall_any_share = %v, want %v", got, want)
	}
	if empty := cpuShares(nil); empty["cpu.core_share"] != 0 {
		t.Errorf("empty profile: %v", empty)
	}
}

func TestProfileDecodesRealStacks(t *testing.T) {
	var p cpuProfiler
	err := p.while(func() error {
		deadline := time.Now().Add(300 * time.Millisecond)
		x := 0.0
		for time.Now().Before(deadline) {
			for i := 0; i < 1000; i++ {
				x += math.Sqrt(float64(i))
			}
		}
		_ = x
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 {
		t.Skip("the profiler took no sample in 300 ms of spinning")
	}
	var harness int64
	for _, s := range p.samples {
		if len(s.stack) == 0 || s.value <= 0 {
			t.Fatalf("decoded an empty sample: %+v", s)
		}
		if bucketOf(s.stack) == "harness" {
			harness += s.value
		}
	}
	if harness == 0 {
		t.Errorf("no sample of a spinning test landed in the harness bucket; first stack %v", p.samples[0].stack)
	}
}

func TestLatencyRunsFromDueTime(t *testing.T) {
	tr := newTracker(1)
	uuid := job.UUID("0123456789abcdef0123456789abcdef")
	due := tr.now()
	// The generator stalls: the job is sent 20 ms after it was due.
	time.Sleep(20 * time.Millisecond)
	tr.register(uuid, phaseA, due)
	tr.JobCompleted(0, 0, &job.Job{Profile: job.Profile{UUID: uuid}})
	tr.each(func(_ job.UUID, r *jobRec) {
		if r.completions != 1 || r.latency() < 20*time.Millisecond {
			t.Errorf("latency %v after a 20 ms generator stall (completions %d): the clock must start at the due time", r.latency(), r.completions)
		}
	})
	if tr.finished.Load() != 1 || tr.registered.Load() != 1 {
		t.Errorf("finished %d, registered %d, want 1 and 1", tr.finished.Load(), tr.registered.Load())
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for p, want := range map[float64]float64{25: 1, 50: 2, 75: 3, 99: 4, 100: 4} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("empty input must give 0")
	}
}
