// Benchmarks regenerating every figure of the paper's evaluation (Figs.
// 1–10) at a reduced scale, plus ablation benchmarks for the design
// decisions DESIGN.md calls out and one whole discovery round. Per-layer
// costs (timer kernel, wire codec, ETTC/NAL offers, overlay build) are
// measured by the bench module's drives (go run -C bench .).
//
// Each figure benchmark runs its scenarios once per iteration and reports
// the figure's headline quantities as custom metrics, so
//
//	go test -bench=Fig -benchmem ./internal/scenario
//
// prints the same comparisons the paper plots (who wins and by how much),
// while `cmd/ariaeval` regenerates the figures at full fidelity.
package scenario_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/baseline"
	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/metrics"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/resource"
	"github.com/smartgrid/aria/internal/scenario"
	"github.com/smartgrid/aria/internal/sched"
	"github.com/smartgrid/aria/internal/sim"
	"github.com/smartgrid/aria/internal/swf"
	"github.com/smartgrid/aria/internal/transport"
)

// benchScale keeps figure benchmarks to tens of milliseconds per run while
// preserving every comparison's direction.
const benchScale = 0.05

// runScenario executes one repetition per iteration and returns the last
// result for metric reporting.
func runScenario(b *testing.B, name string) *metrics.Result {
	b.Helper()
	cfg, err := scenario.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	cfg = cfg.Scaled(benchScale)
	var res *metrics.Result
	for i := 0; i < b.N; i++ {
		if res, err = scenario.Run(cfg, i); err != nil {
			b.Fatal(err)
		}
	}
	return res
}

func reportCompletion(b *testing.B, res *metrics.Result) {
	b.ReportMetric(float64(res.Completed), "completed")
	b.ReportMetric(res.AvgWaiting.Seconds(), "wait_s")
	b.ReportMetric(res.AvgExecution.Seconds(), "exec_s")
	b.ReportMetric(res.AvgCompletion.Seconds(), "completion_s")
}

// BenchmarkFig1CompletedJobs — throughput of completed jobs under the six
// local-policy scenarios (paper Fig. 1).
func BenchmarkFig1CompletedJobs(b *testing.B) {
	for _, name := range []string{"FCFS", "SJF", "Mixed", "iFCFS", "iSJF", "iMixed"} {
		b.Run(name, func(b *testing.B) {
			res := runScenario(b, name)
			b.ReportMetric(float64(res.Completed), "completed")
			// Time to complete half the batch, in virtual minutes.
			half := res.Completed / 2
			for i, c := range res.CompletedSeries {
				if c >= half {
					b.ReportMetric(float64(i)*res.BinWidth.Minutes(), "t_half_min")
					break
				}
			}
		})
	}
}

// BenchmarkFig2CompletionTime — waiting/execution/completion breakdown
// (paper Fig. 2: rescheduling trims completion despite longer execution).
func BenchmarkFig2CompletionTime(b *testing.B) {
	for _, name := range []string{"FCFS", "SJF", "Mixed", "iFCFS", "iSJF", "iMixed"} {
		b.Run(name, func(b *testing.B) {
			reportCompletion(b, runScenario(b, name))
		})
	}
}

// BenchmarkFig3IdleNodes — load-balancing measured as idle-node counts
// (paper Fig. 3: rescheduling cuts idle nodes during the load phase).
func BenchmarkFig3IdleNodes(b *testing.B) {
	for _, name := range []string{"FCFS", "SJF", "Mixed", "iFCFS", "iSJF", "iMixed"} {
		b.Run(name, func(b *testing.B) {
			res := runScenario(b, name)
			idle := res.IdleSeriesInts()
			min := res.Nodes
			for _, v := range idle {
				if v < min {
					min = v
				}
			}
			b.ReportMetric(float64(min), "min_idle")
		})
	}
}

// BenchmarkFig4Deadline — deadline scheduling performance (paper Fig. 4:
// rescheduling collapses missed deadlines).
func BenchmarkFig4Deadline(b *testing.B) {
	for _, name := range []string{"Deadline", "iDeadline", "DeadlineH", "iDeadlineH"} {
		b.Run(name, func(b *testing.B) {
			res := runScenario(b, name)
			b.ReportMetric(float64(res.MissedDeadlines), "missed")
			b.ReportMetric(res.AvgLateness.Seconds(), "lateness_s")
			b.ReportMetric(res.AvgMissedTime.Seconds(), "missed_time_s")
		})
	}
}

// BenchmarkFig5Expanding — absorption of newly joined nodes (paper Fig. 5).
func BenchmarkFig5Expanding(b *testing.B) {
	for _, name := range []string{"Expanding", "iExpanding"} {
		b.Run(name, func(b *testing.B) {
			res := runScenario(b, name)
			b.ReportMetric(float64(res.Nodes), "final_nodes")
			b.ReportMetric(float64(res.Reschedules), "reschedules")
			reportCompletion(b, res)
		})
	}
}

// BenchmarkFig6LoadIdle — idle nodes under halved/baseline/doubled
// submission rates (paper Fig. 6).
func BenchmarkFig6LoadIdle(b *testing.B) {
	for _, name := range []string{"LowLoad", "iLowLoad", "Mixed", "iMixed", "HighLoad", "iHighLoad"} {
		b.Run(name, func(b *testing.B) {
			res := runScenario(b, name)
			idle := res.IdleSeriesInts()
			min := res.Nodes
			for _, v := range idle {
				if v < min {
					min = v
				}
			}
			b.ReportMetric(float64(min), "min_idle")
		})
	}
}

// BenchmarkFig7LoadCompletion — completion time under varying load (paper
// Fig. 7: iHighLoad approaches LowLoad despite 4× the submission rate).
func BenchmarkFig7LoadCompletion(b *testing.B) {
	for _, name := range []string{"LowLoad", "iLowLoad", "Mixed", "iMixed", "HighLoad", "iHighLoad"} {
		b.Run(name, func(b *testing.B) {
			reportCompletion(b, runScenario(b, name))
		})
	}
}

// BenchmarkFig8ReschedulingPolicies — sensitivity to the INFORM batch size
// and reschedule threshold (paper Fig. 8: minimal differences).
func BenchmarkFig8ReschedulingPolicies(b *testing.B) {
	for _, name := range []string{"iInform1", "iMixed", "iInform4", "iInform15m", "iInform30m"} {
		b.Run(name, func(b *testing.B) {
			res := runScenario(b, name)
			reportCompletion(b, res)
			b.ReportMetric(float64(res.Traffic[core.MsgInform].Bytes)/(1<<10), "inform_KB")
		})
	}
}

// BenchmarkFig9Accuracy — sensitivity to running-time estimate error
// (paper Fig. 9: flat except a mild penalty for always-optimistic).
func BenchmarkFig9Accuracy(b *testing.B) {
	for _, name := range []string{"Precise", "iPrecise", "Mixed", "iMixed", "Accuracy25", "iAccuracy25", "AccuracyBad", "iAccuracyBad"} {
		b.Run(name, func(b *testing.B) {
			reportCompletion(b, runScenario(b, name))
		})
	}
}

// BenchmarkFig10Traffic — protocol overhead by message type (paper Fig. 10).
func BenchmarkFig10Traffic(b *testing.B) {
	for _, name := range []string{"Mixed", "iMixed", "iInform1", "iInform4", "iDeadline", "iHighLoad", "iExpanding"} {
		b.Run(name, func(b *testing.B) {
			res := runScenario(b, name)
			b.ReportMetric(float64(res.Traffic[core.MsgRequest].Bytes)/(1<<10), "request_KB")
			b.ReportMetric(float64(res.Traffic[core.MsgInform].Bytes)/(1<<10), "inform_KB")
			b.ReportMetric(res.BytesPerNode/(1<<10), "KB_per_node")
			b.ReportMetric(res.BandwidthBPS, "bps_per_node")
		})
	}
}

// BenchmarkAblationDuplicateSuppression quantifies what flood deduplication
// saves: the same discovery round with suppression on and off.
func BenchmarkAblationDuplicateSuppression(b *testing.B) {
	for _, tc := range []struct {
		name    string
		disable bool
	}{
		{"on", false},
		{"off", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var msgs int64
			for i := 0; i < b.N; i++ {
				cfg, err := scenario.ByName("Mixed")
				if err != nil {
					b.Fatal(err)
				}
				cfg = cfg.Scaled(benchScale)
				cfg.Protocol.DisableDuplicateSuppression = tc.disable
				res, err := scenario.Run(cfg, i)
				if err != nil {
					b.Fatal(err)
				}
				msgs = res.Traffic[core.MsgRequest].Count
			}
			b.ReportMetric(float64(msgs), "request_msgs")
		})
	}
}

// BenchmarkAblationBaselines positions ARiA between the omniscient
// centralized scheduler and random placement on the same workload.
func BenchmarkAblationBaselines(b *testing.B) {
	cfg, err := scenario.ByName("Mixed")
	if err != nil {
		b.Fatal(err)
	}
	cfg = cfg.Scaled(benchScale)
	b.Run("aria", func(b *testing.B) {
		var res *metrics.Result
		for i := 0; i < b.N; i++ {
			if res, err = scenario.Run(cfg, i); err != nil {
				b.Fatal(err)
			}
		}
		reportCompletion(b, res)
	})
	for _, kind := range []baseline.Kind{baseline.Centralized, baseline.Random} {
		b.Run(kind.String(), func(b *testing.B) {
			var res *metrics.Result
			for i := 0; i < b.N; i++ {
				if res, err = baseline.Run(kind, cfg, i); err != nil {
					b.Fatal(err)
				}
			}
			reportCompletion(b, res)
		})
	}
}

// BenchmarkDiscoveryRound measures one full REQUEST/ACCEPT/ASSIGN round on
// a 100-node simulated grid.
func BenchmarkDiscoveryRound(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	builder, err := overlay.Build(100, overlay.DefaultBlatantConfig(), rng)
	if err != nil {
		b.Fatal(err)
	}
	engine := sim.NewEngine(5)
	cluster := transport.NewSimCluster(engine, builder.Graph(), overlay.DefaultLatency(5))
	cfg := core.DefaultConfig()
	cfg.InformJobs = 0
	sampler := resource.NewSampler(rng)
	var profiles []resource.Profile
	for _, id := range builder.Graph().Nodes() {
		p := sampler.Profile()
		profiles = append(profiles, p)
		if _, err := cluster.AddNode(id, p, sched.FCFS, cfg, nil, job.ARTModel{Mode: job.DriftNone}); err != nil {
			b.Fatal(err)
		}
	}
	cluster.StartAll()
	nodes := cluster.Nodes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := job.Profile{
			UUID: job.NewUUID(rng),
			Req: resource.Requirements{
				Arch: resource.ArchAMD64, OS: resource.OSLinux,
				MinMemoryGB: 1, MinDiskGB: 1,
			},
			ERT:   time.Hour,
			Class: job.ClassBatch,
		}
		if err := nodes[i%len(nodes)].Submit(p); err != nil {
			b.Fatal(err)
		}
		// Drain the discovery round (decision timer plus deliveries).
		engine.Run(engine.Now() + 2*cfg.AcceptTimeout + time.Second)
	}
}

// BenchmarkExtOverlayTopologies runs iMixed over the alternate overlay
// families (the paper's future-work overlay-sensitivity question).
func BenchmarkExtOverlayTopologies(b *testing.B) {
	for _, name := range []string{"iMixed", "iMixed-random", "iMixed-ring", "iMixed-smallworld", "iMixed-scalefree"} {
		b.Run(name, func(b *testing.B) {
			res := runScenario(b, name)
			reportCompletion(b, res)
			b.ReportMetric(res.BytesPerNode/(1<<10), "KB_per_node")
		})
	}
}

// BenchmarkExtChurn measures job survival under node crashes with and
// without the NOTIFY failsafe.
func BenchmarkExtChurn(b *testing.B) {
	for _, name := range []string{"iChurn", "iChurnFailsafe"} {
		b.Run(name, func(b *testing.B) {
			res := runScenario(b, name)
			b.ReportMetric(float64(res.Completed), "completed")
			b.ReportMetric(float64(res.Submitted-res.Completed), "lost")
		})
	}
}

// BenchmarkExtReservations measures the scheduling impact of advance
// reservations with EASY backfill.
func BenchmarkExtReservations(b *testing.B) {
	for _, name := range []string{"iMixed", "iReservations"} {
		b.Run(name, func(b *testing.B) {
			res := runScenario(b, name)
			reportCompletion(b, res)
			b.ReportMetric(res.LoadJainIndex, "jain")
		})
	}
}

// BenchmarkExtTraceReplay replays the bundled SWF sample through a small
// grid (future work: evaluation with real workload traces).
func BenchmarkExtTraceReplay(b *testing.B) {
	data, err := os.ReadFile(filepath.Join("..", "swf", "testdata", "sample.swf"))
	if err != nil {
		b.Fatal(err)
	}
	trace, err := swf.Parse(bytes.NewReader(data))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		cfg := scenario.Baseline().Scaled(benchScale)
		cfg.Name = "tracereplay"
		d, err := scenario.Prepare(cfg, i)
		if err != nil {
			b.Fatal(err)
		}
		jobs, err := swf.Convert(trace, rand.New(rand.NewSource(d.Seed)), swf.ConvertOptions{
			SkipIncomplete: true,
			Hosts:          d.Profiles,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range jobs {
			p := p
			d.Engine.ScheduleAt(p.SubmittedAt, func() {
				if err := d.RandomNode().Submit(p); err != nil {
					b.Error(err)
				}
			})
		}
		res := d.Finish()
		if res.Completed == 0 {
			b.Fatal("trace replay completed nothing")
		}
	}
}

// BenchmarkExtMultiReq compares ARiA against the multiple-simultaneous-
// requests model of [13]: the paper's §II critique (schedulers overloaded
// with cancelled copies) shows up as ASSIGN/CANCEL traffic.
func BenchmarkExtMultiReq(b *testing.B) {
	for _, name := range []string{"Mixed", "iMixed", "MultiReq3"} {
		b.Run(name, func(b *testing.B) {
			res := runScenario(b, name)
			reportCompletion(b, res)
			b.ReportMetric(float64(res.Traffic[core.MsgAssign].Count), "assigns")
			b.ReportMetric(float64(res.Traffic[core.MsgCancel].Count), "cancels")
		})
	}
}
