// Command ariasweep explores one protocol parameter's performance/overhead
// trade-off: it runs a scenario repeatedly across a range of values and
// prints the completion time, waiting time, and traffic for each — the
// generalization of the paper's Fig. 8 sensitivity analysis to every knob.
//
// Usage:
//
//	ariasweep -param inform-interval -values 1m,2m,5m,10m,30m -scale 0.1
//	ariasweep -param inform-jobs -values 1,2,4,8
//	ariasweep -param threshold -values 1m,3m,15m,30m,1h
//	ariasweep -param request-fanout -values 1,2,4,8
//	ariasweep -param accept-timeout -values 1s,3s,10s
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/smartgrid/aria/internal/metrics"
	"github.com/smartgrid/aria/internal/scenario"
	"github.com/smartgrid/aria/internal/stats"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ariasweep:", err)
		os.Exit(1)
	}
}

// param describes one sweepable protocol knob.
type param struct {
	name  string
	desc  string
	apply func(*scenario.Config, string) error
}

func params() []param {
	return []param{
		{
			name: "inform-interval", desc: "period between INFORM batches",
			apply: func(c *scenario.Config, v string) error {
				d, err := time.ParseDuration(v)
				if err != nil {
					return err
				}
				c.Protocol.InformInterval = d
				return nil
			},
		},
		{
			name: "inform-jobs", desc: "jobs advertised per INFORM batch",
			apply: func(c *scenario.Config, v string) error {
				n, err := strconv.Atoi(v)
				if err != nil {
					return err
				}
				c.Protocol.InformJobs = n
				return nil
			},
		},
		{
			name: "threshold", desc: "minimum rescheduling benefit",
			apply: func(c *scenario.Config, v string) error {
				d, err := time.ParseDuration(v)
				if err != nil {
					return err
				}
				c.Protocol.RescheduleThreshold = d
				return nil
			},
		},
		{
			name: "request-fanout", desc: "REQUEST flood fanout",
			apply: func(c *scenario.Config, v string) error {
				n, err := strconv.Atoi(v)
				if err != nil {
					return err
				}
				c.Protocol.RequestFanout = n
				return nil
			},
		},
		{
			name: "request-ttl", desc: "REQUEST flood TTL",
			apply: func(c *scenario.Config, v string) error {
				n, err := strconv.Atoi(v)
				if err != nil {
					return err
				}
				c.Protocol.RequestTTL = n
				return nil
			},
		},
		{
			name: "accept-timeout", desc: "initiator offer-collection window",
			apply: func(c *scenario.Config, v string) error {
				d, err := time.ParseDuration(v)
				if err != nil {
					return err
				}
				c.Protocol.AcceptTimeout = d
				return nil
			},
		},
	}
}

func paramByName(name string) (param, error) {
	for _, p := range params() {
		if p.name == name {
			return p, nil
		}
	}
	var names []string
	for _, p := range params() {
		names = append(names, p.name)
	}
	return param{}, fmt.Errorf("unknown parameter %q (want one of %s)", name, strings.Join(names, ", "))
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("ariasweep", flag.ContinueOnError)
	var (
		scen      = fs.String("scenario", "iMixed", "catalog scenario to sweep")
		paramName = fs.String("param", "inform-interval", "parameter to sweep")
		valuesStr = fs.String("values", "", "comma-separated parameter values")
		runs      = fs.Int("runs", 1, "repetitions per value")
		scale     = fs.Float64("scale", 0.1, "scale factor for nodes/jobs")
		traced    = fs.Bool("trace", false, "audit protocol invariants at every swept value (adds a violations column)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := paramByName(*paramName)
	if err != nil {
		return err
	}
	if *valuesStr == "" {
		return fmt.Errorf("missing -values")
	}
	values := strings.Split(*valuesStr, ",")

	base, err := scenario.ByName(*scen)
	if err != nil {
		return err
	}
	if *scale != 1.0 {
		if *scale <= 0 || *scale > 1 {
			return fmt.Errorf("scale %v outside (0, 1]", *scale)
		}
		base = base.Scaled(*scale)
	}
	fmt.Fprintf(w, "sweep of %s (%s) on %s, %d nodes, %d jobs, %d run(s) per value\n\n",
		p.name, p.desc, base.Name, base.Nodes, base.Submission.Count, *runs)
	fmt.Fprintf(w, "%-12s %-10s %-12s %-12s %-12s %-10s %-10s",
		p.name, "completed", "waiting", "completion", "reschedules", "KB/node", "bps/node")
	if *traced {
		fmt.Fprintf(w, " %-10s", "violations")
	}
	fmt.Fprintln(w)

	for _, raw := range values {
		value := strings.TrimSpace(raw)
		cfg := base
		if err := p.apply(&cfg, value); err != nil {
			return fmt.Errorf("value %q: %w", value, err)
		}
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("value %q: %w", value, err)
		}
		var (
			agg        *metrics.Aggregate
			violations int
		)
		if *traced {
			// The invariant checker audits each value against its own
			// protocol bounds (a swept TTL is checked as the configured
			// TTL), so a sweep cannot trip false flood-budget violations.
			var results []*metrics.Result
			for run := 0; run < *runs; run++ {
				res, rep, err := scenario.RunTraced(cfg, run)
				if err != nil {
					return err
				}
				results = append(results, res)
				violations += len(rep.Violations)
			}
			agg = metrics.NewAggregate(results)
		} else {
			var err error
			agg, _, err = scenario.RunN(cfg, *runs)
			if err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "%-12s %-10.1f %-12s %-12s %-12.1f %-10.1f %-10.1f",
			value,
			agg.Completed.Mean,
			durFmt(agg.AvgWaitingSec),
			durFmt(agg.AvgCompletionSec),
			agg.Reschedules.Mean,
			agg.BytesPerNode.Mean/(1<<10),
			agg.BandwidthBPS.Mean,
		)
		if *traced {
			fmt.Fprintf(w, " %-10d", violations)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func durFmt(s stats.Summary) string {
	return stats.SecondsToDuration(s.Mean).Round(time.Second).String()
}
