// Command ariasim runs one evaluation scenario from the paper's Table II
// catalog (or a scaled-down version of it) and prints the measured metrics.
//
// Usage:
//
//	ariasim -list
//	ariasim -scenario iMixed -runs 3
//	ariasim -scenario Mixed -scale 0.1 -tsv
//	ariasim -scenario Mixed -baseline centralized
//	ariasim -scenario iMixed -scale 0.1 -trace
//	ariasim -scenario iMixed -scale 0.1 -directed-candidates 3
//	ariasim -scenario iMixed -scale 0.1 -sweep inform-interval=1m,5m,30m
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strings"
	"time"

	"github.com/smartgrid/aria/internal/baseline"
	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/metrics"
	"github.com/smartgrid/aria/internal/scenario"
	"github.com/smartgrid/aria/internal/stats"
	"github.com/smartgrid/aria/internal/swf"
	"github.com/smartgrid/aria/internal/trace"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ariasim:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("ariasim", flag.ContinueOnError)
	var (
		list      = fs.Bool("list", false, "list the scenario catalog and exit")
		name      = fs.String("scenario", "iMixed", "scenario name from Table II")
		runs      = fs.Int("runs", 1, "number of repetitions to aggregate")
		scale     = fs.Float64("scale", 1.0, "scale factor for nodes/jobs (1.0 = paper scale)")
		seed      = fs.Int64("seed", 0, "override the base random seed (0 = catalog default)")
		tsv       = fs.Bool("tsv", false, "emit per-run results as TSV instead of text")
		baseKind  = fs.String("baseline", "", "run a baseline meta-scheduler instead of ARiA: centralized or random")
		showSerie = fs.Bool("series", false, "also print the completed/idle time series")
		swfPath   = fs.String("swf", "", "replay a Standard Workload Format trace instead of the synthetic workload")
		swfJobs   = fs.Int("swf-jobs", 0, "truncate the trace to N jobs (0 = all)")
		swfScale  = fs.Float64("swf-timescale", 1.0, "compress (<1) or stretch (>1) trace submission times")
		dotPath   = fs.String("dot", "", "write the scenario's overlay as Graphviz DOT to this file and exit")
		traced    = fs.Bool("trace", false, "arm the causal trace plane and audit protocol invariants after each run")
		sweep     = fs.String("sweep", "", "run once per value of one protocol flag, name=v1,v2,… (e.g. threshold=1m,15m), and print a row per value")
	)
	// Every protocol flag in core's table; only those given on the command
	// line override the scenario.
	proto := core.BindFlags(fs, core.DefaultConfig())
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		return printCatalog(w)
	}

	cfg, err := scenario.ByName(*name)
	if err != nil {
		return err
	}
	if *scale != 1.0 {
		if *scale <= 0 || *scale > 1 {
			return fmt.Errorf("scale %v outside (0, 1]", *scale)
		}
		cfg = cfg.Scaled(*scale)
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	proto.Apply(&cfg.Protocol)

	if *dotPath != "" {
		d, err := scenario.Prepare(cfg, 0)
		if err != nil {
			return err
		}
		f, err := os.Create(*dotPath)
		if err != nil {
			return err
		}
		if err := d.Cluster.Graph().WriteDOT(f, cfg.Name); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d-node overlay to %s\n", d.Cluster.Graph().NumNodes(), *dotPath)
		return nil
	}

	if *sweep != "" {
		if *baseKind != "" || *swfPath != "" {
			return fmt.Errorf("-sweep excludes -baseline and -swf")
		}
		return runSweep(w, fs, cfg, *sweep, *runs, *traced)
	}

	if *swfPath != "" {
		if *baseKind != "" {
			return fmt.Errorf("-swf and -baseline are mutually exclusive")
		}
		if *traced {
			return fmt.Errorf("-swf and -trace are mutually exclusive")
		}
		results, err := replayTrace(cfg, *swfPath, *swfJobs, *swfScale, *runs)
		if err != nil {
			return err
		}
		if *tsv {
			return printTSV(w, results)
		}
		for i, res := range results {
			printResult(w, i, res, *showSerie)
		}
		if len(results) > 1 {
			printAggregate(w, metrics.NewAggregate(results))
		}
		return nil
	}

	if *traced {
		if *baseKind != "" {
			return fmt.Errorf("-trace and -baseline are mutually exclusive")
		}
		return runTraced(w, cfg, *runs, *tsv, *showSerie)
	}

	var results []*metrics.Result
	switch *baseKind {
	case "":
		_, results, err = scenario.RunN(cfg, *runs)
	case "centralized":
		_, results, err = baseline.RunN(baseline.Centralized, cfg, *runs)
	case "random":
		_, results, err = baseline.RunN(baseline.Random, cfg, *runs)
	default:
		return fmt.Errorf("unknown baseline %q (want centralized or random)", *baseKind)
	}
	if err != nil {
		return err
	}

	if *tsv {
		return printTSV(w, results)
	}
	for i, res := range results {
		printResult(w, i, res, *showSerie)
	}
	if len(results) > 1 {
		printAggregate(w, metrics.NewAggregate(results))
	}
	return nil
}

// runTraced executes the scenario with the trace plane armed, printing each
// run's metrics followed by its invariant-check report (span counts per kind
// and any violations).
func runTraced(w io.Writer, cfg scenario.Config, runs int, tsv, series bool) error {
	results, reps, err := traceRuns(cfg, runs)
	if err != nil {
		return err
	}
	return printTraced(w, results, reps, tsv, series)
}

// printTraced prints traced runs as TSV or as text with each run's report,
// and in either format fails when an audit found violations.
func printTraced(w io.Writer, results []*metrics.Result, reps []trace.Report, tsv, series bool) error {
	if tsv {
		if err := printTSV(w, results); err != nil {
			return err
		}
		return violationsErr(reps)
	}
	for run, res := range results {
		printResult(w, run, res, series)
		fmt.Fprintf(w, "  %s\n", strings.ReplaceAll(reps[run].String(), "\n", "\n  "))
	}
	if len(results) > 1 {
		printAggregate(w, metrics.NewAggregate(results))
	}
	return violationsErr(reps)
}

// traceRuns runs the scenario runs times with the trace plane armed.
func traceRuns(cfg scenario.Config, runs int) ([]*metrics.Result, []trace.Report, error) {
	results := make([]*metrics.Result, runs)
	reps := make([]trace.Report, runs)
	for run := range runs {
		var err error
		if results[run], reps[run], err = scenario.RunTraced(cfg, run); err != nil {
			return nil, nil, err
		}
	}
	return results, reps, nil
}

func violations(reps []trace.Report) int {
	n := 0
	for _, rep := range reps {
		n += len(rep.Violations)
	}
	return n
}

// violationsErr fails a traced command whose audits found violations.
func violationsErr(reps []trace.Report) error {
	if n := violations(reps); n > 0 {
		return fmt.Errorf("%d protocol invariant violation(s) across %d run(s)", n, len(reps))
	}
	return nil
}

// runSweep runs the scenario at each value of one protocol flag, given as
// name=v1,v2,…, and prints one row of completion, waiting and traffic per
// value: the paper's Fig. 8 sensitivity analysis, for any knob. A value
// that switches a plane on arms it as the flag would. Swept values share
// the base scenario's name and so its seeds.
func runSweep(w io.Writer, fs *flag.FlagSet, base scenario.Config, spec string, runs int, traced bool) error {
	name, list, _ := strings.Cut(spec, "=")
	if list == "" {
		return fmt.Errorf("-sweep %q: want name=v1,v2,…", spec)
	}
	values := strings.Split(list, ",")
	cfgs := make([]scenario.Config, len(values))
	for i, raw := range values {
		values[i] = strings.TrimSpace(raw)
		cfgs[i] = base
		err := cfgs[i].Protocol.Set(name, values[i])
		if err == nil {
			err = cfgs[i].Validate()
		}
		if err != nil {
			return fmt.Errorf("-sweep %s=%s: %w", name, values[i], err)
		}
	}

	fmt.Fprintf(w, "sweep of %s (%s) on %s, %d nodes, %d jobs, %d run(s) per value\n\n",
		name, fs.Lookup(name).Usage, base.Name, base.Nodes, base.Submission.Count, runs)
	fmt.Fprintf(w, "%-12s %-10s %-12s %-12s %-12s %-10s %-10s",
		name, "completed", "waiting", "completion", "reschedules", "KB/node", "bps/node")
	if traced {
		fmt.Fprintf(w, " %-10s", "violations")
	}
	fmt.Fprintln(w)

	var audits []trace.Report
	for i, cfg := range cfgs {
		var (
			agg  *metrics.Aggregate
			reps []trace.Report
			err  error
		)
		if traced {
			// Each value is audited against its own protocol bounds (a
			// swept TTL is checked as the configured TTL), so a sweep
			// cannot trip false flood-budget violations.
			var results []*metrics.Result
			results, reps, err = traceRuns(cfg, runs)
			agg = metrics.NewAggregate(results)
		} else {
			agg, _, err = scenario.RunN(cfg, runs)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %-10.1f %-12s %-12s %-12.1f %-10.1f %-10.1f",
			values[i], agg.Completed.Mean, meanDur(agg.AvgWaitingSec), meanDur(agg.AvgCompletionSec),
			agg.Reschedules.Mean, agg.BytesPerNode.Mean/(1<<10), agg.BandwidthBPS.Mean)
		if traced {
			fmt.Fprintf(w, " %-10d", violations(reps))
		}
		fmt.Fprintln(w)
		audits = append(audits, reps...)
	}
	return violationsErr(audits)
}

func meanDur(s stats.Summary) string {
	return stats.SecondsToDuration(s.Mean).Round(time.Second).String()
}

// replayTrace runs the scenario's grid against a recorded SWF workload
// instead of the synthetic job stream (paper future work §VI). Jobs enter
// through the scenario's own submission model, so under churn or admission
// control a job that finds no live, willing portal is counted lost or shed.
func replayTrace(cfg scenario.Config, path string, maxJobs int, timeScale float64, runs int) ([]*metrics.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	swfTrace, err := swf.Parse(f)
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	var results []*metrics.Result
	for run := 0; run < runs; run++ {
		d, err := scenario.Prepare(cfg, run)
		if err != nil {
			return nil, err
		}
		jobs, err := swf.Convert(swfTrace, rand.New(rand.NewSource(d.Seed+11)), swf.ConvertOptions{
			MaxJobs:        maxJobs,
			TimeScale:      timeScale,
			SkipIncomplete: true,
			Hosts:          d.Profiles,
		})
		if err != nil {
			return nil, err
		}
		for _, p := range jobs {
			d.Engine.ScheduleAt(p.SubmittedAt, func() { scenario.ARiASubmit(d, p.SubmittedAt, p) })
		}
		// Let the trace tail drain.
		if end := jobs[len(jobs)-1].SubmittedAt + 24*time.Hour; d.Config.Horizon < end {
			d.Config.Horizon = end
		}
		res := d.Finish()
		res.Scenario = cfg.Name + "+swf"
		results = append(results, res)
	}
	return results, nil
}

func printCatalog(w io.Writer) error {
	fmt.Fprintf(w, "%-14s %-6s %s\n", "NAME", "RESCH", "DESCRIPTION")
	for _, c := range scenario.Catalog() {
		resched := "no"
		if c.Rescheduling() {
			resched = "yes"
		}
		fmt.Fprintf(w, "%-14s %-6s %s\n", c.Name, resched, c.Description)
	}
	return nil
}

func printResult(w io.Writer, run int, res *metrics.Result, series bool) {
	fmt.Fprintf(w, "scenario %s run %d (seed %d, %d nodes, horizon %v)\n",
		res.Scenario, run, res.Seed, res.Nodes, res.Horizon)
	fmt.Fprintf(w, "  jobs:        %d submitted, %d completed, %d failed",
		res.Submitted, res.Completed, res.Failed)
	if res.SubmissionsLost > 0 || res.Overload.SubmissionsShed > 0 {
		fmt.Fprintf(w, "; %d submissions lost, %d shed", res.SubmissionsLost, res.Overload.SubmissionsShed)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  assignments: %d total, %d reschedules\n", res.Assignments, res.Reschedules)
	fmt.Fprintf(w, "  times:       waiting %v, execution %v, completion %v\n",
		res.AvgWaiting.Round(time.Second), res.AvgExecution.Round(time.Second),
		res.AvgCompletion.Round(time.Second))
	fmt.Fprintf(w, "  completion:  p50 %v, p95 %v, max %v\n",
		res.CompletionP50.Round(time.Second), res.CompletionP95.Round(time.Second),
		res.CompletionMax.Round(time.Second))
	if res.DuplicateStarts > 0 {
		fmt.Fprintf(w, "  duplicates:  %d extra executions\n", res.DuplicateStarts)
	}
	fmt.Fprintf(w, "  balance:     jain index %.3f\n", res.LoadJainIndex)
	if res.Faults.Any() {
		fmt.Fprintf(w, "  faults:      %d dropped (%d by partition), %d duplicated; %d assign retries, %d recovered\n",
			res.Faults.Dropped, res.Faults.PartitionDropped, res.Faults.Duplicated,
			res.Faults.Retried, res.Faults.Recovered)
	}
	if res.Directory.Any() {
		fmt.Fprintf(w, "  directory:   %d hits (%d probes), %d misses, %d fallbacks, %d evictions\n",
			res.Directory.Hits, res.Directory.Probes, res.Directory.Misses,
			res.Directory.Fallbacks, res.Directory.EvictionTotal())
	}
	if o := res.Overload; o.Any() {
		fmt.Fprintf(w, "  overload:    %d REQUESTs and %d ASSIGNs shed, %d BUSY received; %d reflooded, %d re-enqueued; %d submits rejected\n",
			o.RequestsShed, o.AssignsShed, o.PeersBusy, o.Reflooded, o.Reenqueued, o.SubmitRejections)
	}
	if res.DeadlineJobs > 0 {
		fmt.Fprintf(w, "  deadlines:   %d missed of %d; lateness %v, missed time %v\n",
			res.MissedDeadlines, res.DeadlineJobs,
			res.AvgLateness.Round(time.Second), res.AvgMissedTime.Round(time.Second))
	}
	if res.SharedState.Any() {
		fmt.Fprintf(w, "  sharedstate: %d commits, %d granted (%.2f attempts each), %d conflicts (%.2f rate), %d flood fallbacks\n",
			res.SharedState.Commits, res.SharedState.Granted,
			float64(res.SharedState.GrantAttempts)/math.Max(1, float64(res.SharedState.Granted)),
			res.SharedState.ConflictTotal(), res.SharedState.ConflictRate(),
			res.SharedState.Fallbacks)
	}
	for typ := core.MsgRequest; typ.Valid(); typ++ {
		t, ok := res.Traffic[typ]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  traffic:     %-7s %8d msgs %10.2f MB\n", typ, t.Count, float64(t.Bytes)/(1<<20))
	}
	fmt.Fprintf(w, "  overhead:    %.2f MB total, %.1f KB/node, %.1f bps/node\n",
		float64(res.TotalBytes)/(1<<20), res.BytesPerNode/(1<<10), res.BandwidthBPS)
	if series {
		fmt.Fprintf(w, "  completed series: %v\n", res.CompletedSeries)
		idle := make([]int, len(res.IdleSeries))
		for i, s := range res.IdleSeries {
			idle[i] = s.Idle
		}
		fmt.Fprintf(w, "  idle series: %v\n", idle)
	}
}

func printAggregate(w io.Writer, agg *metrics.Aggregate) {
	if agg == nil {
		return
	}
	dur := func(s stats.Summary) string {
		return fmt.Sprintf("%v ±%v",
			stats.SecondsToDuration(s.Mean).Round(time.Second),
			stats.SecondsToDuration(s.StdDev).Round(time.Second))
	}
	fmt.Fprintf(w, "aggregate over %d runs\n", agg.Runs)
	fmt.Fprintf(w, "  completed:   %.1f ±%.1f\n", agg.Completed.Mean, agg.Completed.StdDev)
	fmt.Fprintf(w, "  waiting:     %s\n", dur(agg.AvgWaitingSec))
	fmt.Fprintf(w, "  execution:   %s\n", dur(agg.AvgExecutionSec))
	fmt.Fprintf(w, "  completion:  %s\n", dur(agg.AvgCompletionSec))
	fmt.Fprintf(w, "  reschedules: %.1f ±%.1f\n", agg.Reschedules.Mean, agg.Reschedules.StdDev)
	if agg.MissedDeadlines.Mean > 0 || agg.AvgLatenessSec.Mean > 0 {
		fmt.Fprintf(w, "  missed deadlines: %.1f ±%.1f\n",
			agg.MissedDeadlines.Mean, agg.MissedDeadlines.StdDev)
	}
	fmt.Fprintf(w, "  bandwidth:   %.1f bps/node\n", agg.BandwidthBPS.Mean)
}

func printTSV(w io.Writer, results []*metrics.Result) error {
	fmt.Fprintln(w, "scenario\trun_seed\tnodes\tsubmitted\tcompleted\tfailed\treschedules\tavg_waiting_s\tavg_execution_s\tavg_completion_s\tmissed_deadlines\ttotal_bytes\tbps_per_node")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%.1f\t%.1f\t%.1f\t%d\t%d\t%.2f\n",
			r.Scenario, r.Seed, r.Nodes, r.Submitted, r.Completed, r.Failed,
			r.Reschedules, r.AvgWaiting.Seconds(), r.AvgExecution.Seconds(),
			r.AvgCompletion.Seconds(), r.MissedDeadlines, r.TotalBytes, r.BandwidthBPS)
	}
	return nil
}
