package scenario

import (
	"fmt"
	"testing"
	"time"
)

// benchReplay runs one synthetic SWF replay per iteration and reports kernel
// throughput in events per second. Flood fan-out makes event volume scale
// with nodes × jobs, so these are the end-to-end companions to the timer and
// cross-lane micro-benchmarks in internal/sim.
func benchReplay(b *testing.B, nodes, jobs int) {
	b.Helper()
	var events uint64
	var completed int
	for i := 0; i < b.N; i++ {
		c, err := ByName("iMixed")
		if err != nil {
			b.Fatal(err)
		}
		c.Nodes = nodes
		// Submissions land in the trace's first hour and runtimes top out
		// at one hour; three hours drains the tail without idle spinning
		// (iMixed schedules no recurring per-node probes).
		c.Horizon = 3 * time.Hour
		d, err := Prepare(c, i)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ReplaySWF(d, SyntheticTrace(jobs, 42)); err != nil {
			b.Fatal(err)
		}
		res := d.Finish()
		if res.Completed == 0 {
			b.Fatal("replay completed nothing")
		}
		events += d.Engine.Events()
		completed = res.Completed
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "ev/s")
	b.ReportMetric(float64(completed), "completed")
}

// BenchmarkReplayEndToEnd replays 2k and 10k nodes. Run with -benchtime=1x
// for the honest single-replay numbers BENCH_sim.json records
// (cmd/ariabench automates that, adding RSS accounting).
func BenchmarkReplayEndToEnd(b *testing.B) {
	for _, tc := range []struct{ nodes, jobs int }{{2000, 500}, {10000, 1000}} {
		b.Run(fmt.Sprintf("n%d", tc.nodes), func(b *testing.B) {
			benchReplay(b, tc.nodes, tc.jobs)
		})
	}
}
