// Command bench is the repository's performance ledger: four named
// workloads, the end-to-end metrics a user of the simulator or of the live
// grid sees, and the per-layer numbers (isolated drives plus a traced run)
// that explain them. BENCHMARK.json at the repository root declares the same
// workloads and metrics for the driver; README.md says why each exists.
//
//	go run -C bench .                                   # every workload, untraced then traced
//	go run -C bench . -workload live-commit -trace 0    # one run, as the driver makes it
//	go run -C bench . -verify                           # the suite twice: counts equal, metrics within bounds
//	go run -C bench . -list
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"time"
)

// runSeconds is how long one run measures; BENCHMARK.json carries the same
// number for the driver.
const runSeconds = 30

// runResult is what one run of one workload produced. A run whose outputs are
// wrong produces an error instead.
type runResult struct {
	attempted, failed int
	metrics           metrics
	notes             []string
}

func (r *runResult) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// jsonResult is the driver contract's result line.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload   = flag.String("workload", "", "run only this workload (see -list)")
		seed       = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds    = flag.Float64("seconds", runSeconds, "how long one run measures")
		traceArg   = flag.Int("trace", -1, "0: one untraced run, end-to-end metrics; 1: one traced run, per-layer metrics; -1: both, each in a fresh child process")
		list       = flag.Bool("list", false, "list workloads and metrics, then exit")
		onlyDrives = flag.Bool("drives", false, "run only the isolated per-layer drives")
		verify     = flag.Bool("verify", false, "run the suite twice on the same seed and compare: sim counts equal, end-to-end metrics within their bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *list {
		printList()
		return 0
	}
	if *workload != "" && findWorkload(*workload) == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (see -list)\n", *workload)
		return 2
	}
	if *seconds <= 0 || *traceArg < -1 || *traceArg > 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and -trace one of -1, 0, 1")
		return 2
	}

	err := func() error {
		switch {
		case *onlyDrives:
			return withWorkDir(func(dir string) error {
				fmt.Println(fingerprint(dir))
				m, err := drives{scale: 1}.run(dir)
				if err != nil {
					return err
				}
				printMetrics(m, perLayer)
				return nil
			})
		case *workload != "" && *traceArg >= 0:
			return withWorkDir(func(dir string) error {
				return runAndReport(*workload, *seed, *seconds, *traceArg == 1, dir)
			})
		default:
			names := []string{*workload}
			if *workload == "" {
				names = names[:0]
				for _, w := range workloads {
					names = append(names, w.Name)
				}
			}
			traces := []bool{false, true}
			if *traceArg >= 0 {
				traces = []bool{*traceArg == 1}
			}
			if *verify {
				return verifySuite(names, *seed, *seconds)
			}
			_, err := runSuite(names, traces, *seed, *seconds, true)
			return err
		}
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: FAIL:", err)
		return 1
	}
	return 0
}

// withWorkDir gives fn a fresh scratch directory below the current one (the
// benchmark writes nowhere else) and removes it on every way out, a signal
// included.
func withWorkDir(fn func(dir string) error) error {
	if err := os.MkdirAll(".bench_work", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_work", "run-")
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-sig; ok {
			_ = os.RemoveAll(dir)
			os.Exit(130)
		}
	}()
	defer func() {
		signal.Stop(sig)
		close(sig)
		_ = os.RemoveAll(dir)
		_ = os.Remove(".bench_work") // only succeeds when no other run is using it
	}()
	return fn(dir)
}

// runWorkload runs one workload once, in this process.
func runWorkload(name string, seed int64, seconds float64, traced bool, scale float64, dir string) (*runResult, error) {
	w := findWorkload(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	res, err := w.run(scale, seed, time.Duration(seconds*float64(time.Second)), traced, dir)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if traced {
		d, err := drives{scale: scale}.run(dir)
		if err != nil {
			return nil, fmt.Errorf("drives: %w", err)
		}
		res.metrics.merge(d)
		res.metrics.fillZero(perLayer)
	}
	if err := res.metrics.checkAgainst(declared(traced)); err != nil {
		return nil, err
	}
	for name, v := range res.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v)
		}
	}
	return res, nil
}

// runAndReport is the driver's entry: one run, every metric by name with its
// unit, and the JSON result as the last line of standard output.
func runAndReport(name string, seed int64, seconds float64, traced bool, dir string) error {
	fmt.Println(fingerprint(dir))
	fmt.Printf("workload %s seed %d seconds %g traced %v\n", name, seed, seconds, traced)
	res, err := runWorkload(name, seed, seconds, traced, 1, dir)
	if err != nil {
		return err
	}
	for _, n := range res.notes {
		fmt.Println("  " + n)
	}
	defs := declared(traced)
	printMetrics(res.metrics, defs)
	fmt.Printf("  attempted %d, failed %d (share %.5f)\n", res.attempted, res.failed, float64(res.failed)/float64(res.attempted))
	out := jsonResult{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		out.Metrics[d.Name] = jsonMetric{Value: res.metrics[d.Name], Unit: d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printMetrics(m metrics, defs []metricDef) {
	for _, d := range defs {
		if v, ok := m[d.Name]; ok {
			fmt.Printf("  %-34s %16.6g %s\n", d.Name, v, d.Unit)
		}
	}
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-12s %s\n", w.Name, w.Why)
	}
	fmt.Println("end-to-end metrics (untraced run; bound = share of the parent's median it may worsen by):")
	for _, d := range endToEnd {
		fmt.Printf("  %-34s %-7s %-6s better, bound %.2f\n", d.Name, d.Unit, d.Better, d.Bound)
	}
	fmt.Println("per-layer metrics (traced run and isolated drives):")
	for _, d := range perLayer {
		fmt.Printf("  %-34s %-7s %-6s better\n", d.Name, d.Unit, d.Better)
	}
}

// suiteKey names one child run of the suite.
type suiteKey struct {
	workload string
	traced   bool
}

// runSuite runs each workload in a fresh child process (so peak RSS, GC
// state and process-wide counters belong to that run alone), untraced first,
// and returns the parsed results.
func runSuite(names []string, traces []bool, seed int64, seconds float64, echo bool) (map[suiteKey]jsonResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := map[suiteKey]jsonResult{}
	var failed []string
	for _, name := range names {
		for _, traced := range traces {
			traceFlag := "0"
			if traced {
				traceFlag = "1"
			}
			cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", traceFlag)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			runErr := cmd.Run()
			text := strings.TrimRight(stdout.String(), "\n")
			last := text[strings.LastIndexByte(text, '\n')+1:]
			if echo {
				fmt.Println(strings.TrimSuffix(text, last))
			}
			var res jsonResult
			if runErr == nil {
				runErr = json.Unmarshal([]byte(last), &res)
			}
			if runErr == nil && !res.Correct {
				runErr = errors.New("outputs incorrect")
			}
			if runErr != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (traced %v): %v\n", name, traced, runErr)
				failed = append(failed, name)
				continue
			}
			out[suiteKey{name, traced}] = res
		}
	}
	if len(failed) > 0 {
		return out, fmt.Errorf("failed runs: %s", strings.Join(failed, ", "))
	}
	return out, nil
}

// simCounts are the traced-run metrics that count what a replay did. The
// same code on the same seed must reproduce them exactly.
var simCounts = []string{
	"sim.events", "core.msgs_per_job", "core.request_msgs_per_job", "core.inform_msgs_per_job",
	"core.reschedules_per_job", "core.flood_dup_share", "core.duplicate_starts",
	"sharedstate.commits_per_job", "sharedstate.grant_share", "sharedstate.fallback_share",
	"wal.replay_records",
}

// verifySuite is the repeatability check: two passes over the suite on the
// same code and seed. Count metrics of the simulated workloads must be
// equal, every end-to-end metric must agree within its bound.
func verifySuite(names []string, seed int64, seconds float64) error {
	var passes [2]map[suiteKey]jsonResult
	for i := range passes {
		fmt.Printf("verify: pass %d of %d\n", i+1, len(passes))
		var err error
		if passes[i], err = runSuite(names, []bool{false, true}, seed, seconds, false); err != nil {
			return err
		}
	}
	var bad []string
	fmt.Printf("%-12s %-28s %14s %14s %8s %6s\n", "workload", "metric", "pass 1", "pass 2", "spread", "bound")
	for _, name := range names {
		for _, d := range endToEnd {
			a := passes[0][suiteKey{name, false}].Metrics[d.Name].Value
			b := passes[1][suiteKey{name, false}].Metrics[d.Name].Value
			spread := math.Abs(a-b) / math.Min(a, b)
			verdict := ""
			if !(spread <= d.Bound) {
				verdict = "  OUTSIDE BOUND"
				bad = append(bad, name+"/"+d.Name)
			}
			fmt.Printf("%-12s %-28s %14.6g %14.6g %7.2f%% %5.0f%%%s\n", name, d.Name, a, b, 100*spread, 100*d.Bound, verdict)
		}
		if !strings.HasPrefix(name, "sim-") {
			continue
		}
		for _, c := range simCounts {
			a := passes[0][suiteKey{name, true}].Metrics[c].Value
			b := passes[1][suiteKey{name, true}].Metrics[c].Value
			verdict := "equal"
			if a != b {
				verdict = "DIFFERENT"
				bad = append(bad, name+"/"+c)
			}
			fmt.Printf("%-12s %-28s %14.6g %14.6g %8s\n", name, c, a, b, verdict)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("not repeatable: %s", strings.Join(bad, ", "))
	}
	fmt.Println("verify: ok")
	return nil
}
