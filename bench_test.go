// Benchmarks regenerating every figure of the paper's evaluation (Figs.
// 1–10) at a reduced scale, plus ablation and micro benchmarks for the
// design decisions DESIGN.md calls out.
//
// Each figure benchmark runs its scenarios once per iteration and reports
// the figure's headline quantities as custom metrics, so
//
//	go test -bench=Fig -benchmem
//
// prints the same comparisons the paper plots (who wins and by how much),
// while `cmd/ariaeval` regenerates the figures at full fidelity.
package aria_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	aria "github.com/smartgrid/aria"
	"github.com/smartgrid/aria/internal/baseline"
	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/directory"
	"github.com/smartgrid/aria/internal/job"
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
func runScenario(b *testing.B, name string) *aria.Result {
	b.Helper()
	var res *aria.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = aria.RunScenario(name, benchScale, i)
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

func reportCompletion(b *testing.B, res *aria.Result) {
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
		var res *aria.Result
		for i := 0; i < b.N; i++ {
			if res, err = scenario.Run(cfg, i); err != nil {
				b.Fatal(err)
			}
		}
		reportCompletion(b, res)
	})
	for _, kind := range []baseline.Kind{baseline.Centralized, baseline.Random} {
		b.Run(kind.String(), func(b *testing.B) {
			var res *aria.Result
			for i := 0; i < b.N; i++ {
				if res, err = baseline.Run(kind, cfg, i); err != nil {
					b.Fatal(err)
				}
			}
			reportCompletion(b, res)
		})
	}
}

// BenchmarkSimEngine measures raw event throughput of the DES kernel.
func BenchmarkSimEngine(b *testing.B) {
	engine := sim.NewEngine(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Schedule(time.Duration(i%1000)*time.Millisecond, func() {})
		if i%1024 == 1023 {
			engine.RunAll(0)
		}
	}
	engine.RunAll(0)
}

// BenchmarkOverlayBuild measures constructing the paper's 500-node overlay.
func BenchmarkOverlayBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := overlay.Build(500, overlay.DefaultBlatantConfig(), rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

func benchQueue(b *testing.B, policy sched.Policy, deadline bool) *sched.Queue {
	b.Helper()
	q, err := sched.New(policy, 1.5)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		p := job.Profile{
			UUID: job.NewUUID(rng),
			Req: resource.Requirements{
				Arch: resource.ArchAMD64, OS: resource.OSLinux,
				MinMemoryGB: 1, MinDiskGB: 1,
			},
			ERT:   time.Duration(rng.Intn(180)+60) * time.Minute,
			Class: job.ClassBatch,
		}
		if deadline {
			p.Class = job.ClassDeadline
			p.Deadline = time.Duration(rng.Intn(48)+1) * time.Hour
		}
		q.Enqueue(job.New(p), 0)
	}
	return q
}

// BenchmarkETTCOffer measures the batch cost function on a 50-job queue.
func BenchmarkETTCOffer(b *testing.B) {
	q := benchQueue(b, sched.SJF, false)
	rng := rand.New(rand.NewSource(9))
	probe := job.Profile{
		UUID: job.NewUUID(rng),
		Req: resource.Requirements{
			Arch: resource.ArchAMD64, OS: resource.OSLinux,
			MinMemoryGB: 1, MinDiskGB: 1,
		},
		ERT:   2 * time.Hour,
		Class: job.ClassBatch,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.OfferCost(probe, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNALOffer measures the deadline cost function on a 50-job queue.
func BenchmarkNALOffer(b *testing.B) {
	q := benchQueue(b, sched.EDF, true)
	rng := rand.New(rand.NewSource(9))
	probe := job.Profile{
		UUID: job.NewUUID(rng),
		Req: resource.Requirements{
			Arch: resource.ArchAMD64, OS: resource.OSLinux,
			MinMemoryGB: 1, MinDiskGB: 1,
		},
		ERT:      2 * time.Hour,
		Class:    job.ClassDeadline,
		Deadline: 24 * time.Hour,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.OfferCost(probe, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMessageCodec measures the TCP wire codec round trip — frame into
// a reused buffer, read back — for the frames a live grid sends most, and
// reports each one's size on the wire beside the paper's modelled 1 KiB
// (REQUEST, COMMIT) and 128 B (ACCEPT, PING) that Message.WireSize keeps.
func BenchmarkMessageCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	p := job.Profile{
		UUID: job.NewUUID(rng),
		Req: resource.Requirements{
			Arch: resource.ArchAMD64, OS: resource.OSLinux,
			MinMemoryGB: 2, MinDiskGB: 2,
		},
		ERT:         2 * time.Hour,
		Class:       job.ClassBatch,
		SubmittedAt: 90 * time.Second,
	}
	var digests []directory.Digest
	for i := 1; i <= 4; i++ {
		digests = append(digests, directory.Digest{
			Node:    overlay.NodeID(i),
			Profile: resource.Profile{Arch: resource.ArchAMD64, OS: resource.OSLinux, MemoryGB: 16, DiskGB: 16, PerfIndex: 1 + rng.Float64()*0.99},
			Load:    i,
		})
	}
	cases := []struct {
		name string
		msg  core.Message
	}{
		{"REQUEST", core.Message{Type: core.MsgRequest, From: 7, Job: p, TTL: 8, Fanout: 4, Seq: 1, Via: 5, Hop: 2, Span: 7<<32 | 1}},
		{"ACCEPT", core.Message{Type: core.MsgAccept, From: 9, Job: p, Cost: 1234.5, Span: 9<<32 | 1}},
		{"PING+4digests", core.Message{Type: core.MsgPing, From: 7, Seq: 5, Peers: []overlay.NodeID{1, 2, 4, 8}, Dir: directory.Encode(digests)}},
		{"COMMIT", core.Message{Type: core.MsgCommit, From: 7, Job: p, Inc: 2, Span: 7<<32 | 2}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := transport.WriteMessage(&buf, c.msg); err != nil {
				b.Fatal(err)
			}
			frameBytes := buf.Len()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := transport.WriteMessage(&buf, c.msg); err != nil {
					b.Fatal(err)
				}
				if _, err := transport.ReadMessage(&buf); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(frameBytes), "bytes/frame")
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
	cfg := aria.DefaultConfig()
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
	data, err := os.ReadFile(filepath.Join("internal", "swf", "testdata", "sample.swf"))
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
