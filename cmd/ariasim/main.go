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

		directedCands = fs.Int("directed-candidates", -1, "override DirectedCandidates (0 = directory off, -1 = scenario default)")
		minDirOffers  = fs.Int("min-directed-offers", 0, "override MinDirectedOffers (0 = scenario default)")
		dirCapacity   = fs.Int("directory-capacity", 0, "override DirectoryCapacity (0 = scenario default)")
		dirTTL        = fs.Duration("directory-ttl", 0, "override DirectoryTTL (0 = scenario default)")
		dirGossip     = fs.Int("directory-gossip", -1, "override DirectoryGossip (-1 = scenario default)")
	)
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
	// Directory knob overrides. Turning the directory on over a scenario
	// that lacks its prerequisites arms the membership plane and the
	// remaining directory defaults, so `-directed-candidates 3` works on
	// any catalog entry.
	if *directedCands >= 0 {
		cfg.Protocol.DirectedCandidates = *directedCands
		if *directedCands > 0 {
			if cfg.Protocol.ProbeInterval == 0 {
				cfg.Protocol.ProbeInterval = core.DefaultProbeInterval
				cfg.Protocol.ProbeTimeout = core.DefaultProbeTimeout
				cfg.Protocol.SuspectTimeout = core.DefaultSuspectTimeout
			}
			if cfg.Protocol.MinDirectedOffers == 0 {
				cfg.Protocol.MinDirectedOffers = core.DefaultMinDirectedOffers
			}
			if cfg.Protocol.DirectoryCapacity == 0 {
				cfg.Protocol.DirectoryCapacity = core.DefaultDirectoryCapacity
			}
			if cfg.Protocol.DirectoryTTL == 0 {
				cfg.Protocol.DirectoryTTL = core.DefaultDirectoryTTL
			}
			if cfg.Protocol.DirectoryGossip == 0 {
				cfg.Protocol.DirectoryGossip = core.DefaultDirectoryGossip
			}
		}
	}
	if *minDirOffers > 0 {
		cfg.Protocol.MinDirectedOffers = *minDirOffers
	}
	if *dirCapacity > 0 {
		cfg.Protocol.DirectoryCapacity = *dirCapacity
	}
	if *dirTTL > 0 {
		cfg.Protocol.DirectoryTTL = *dirTTL
	}
	if *dirGossip >= 0 {
		cfg.Protocol.DirectoryGossip = *dirGossip
	}

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
	var results []*metrics.Result
	violations := 0
	for run := 0; run < runs; run++ {
		res, rep, err := scenario.RunTraced(cfg, run)
		if err != nil {
			return err
		}
		results = append(results, res)
		violations += len(rep.Violations)
		if tsv {
			continue
		}
		printResult(w, run, res, series)
		fmt.Fprintf(w, "  %s\n", strings.ReplaceAll(rep.String(), "\n", "\n  "))
	}
	if tsv {
		return printTSV(w, results)
	}
	if len(results) > 1 {
		printAggregate(w, metrics.NewAggregate(results))
	}
	if violations > 0 {
		return fmt.Errorf("%d protocol invariant violation(s) across %d run(s)", violations, runs)
	}
	return nil
}

// replayTrace runs the scenario's grid against a recorded SWF workload
// instead of the synthetic job stream (paper future work §VI).
func replayTrace(cfg scenario.Config, path string, maxJobs int, timeScale float64, runs int) ([]*metrics.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	trace, err := swf.Parse(f)
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
		jobs, err := swf.Convert(trace, rand.New(rand.NewSource(d.Seed+11)), swf.ConvertOptions{
			MaxJobs:        maxJobs,
			TimeScale:      timeScale,
			SkipIncomplete: true,
			Hosts:          d.Profiles,
		})
		if err != nil {
			return nil, err
		}
		for _, p := range jobs {
			p := p
			d.Engine.ScheduleAt(p.SubmittedAt, func() {
				target := d.RandomNode()
				if err := target.Submit(p); err != nil {
					fmt.Fprintln(os.Stderr, "ariasim: trace submit:", err)
				}
			})
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
	fmt.Fprintf(w, "  jobs:        %d submitted, %d completed, %d failed\n",
		res.Submitted, res.Completed, res.Failed)
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
	for _, typ := range []core.MsgType{core.MsgRequest, core.MsgAccept, core.MsgInform, core.MsgAssign, core.MsgNotify, core.MsgCancel, core.MsgAssignAck, core.MsgCommit, core.MsgConflict} {
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
