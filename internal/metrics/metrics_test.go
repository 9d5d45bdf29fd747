package metrics

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/resource"
)

func completedJob(rng *rand.Rand, submitted, started, completed time.Duration) *job.Job {
	j := job.New(job.Profile{
		UUID: job.NewUUID(rng),
		Req: resource.Requirements{
			Arch: resource.ArchAMD64, OS: resource.OSLinux, MinMemoryGB: 1, MinDiskGB: 1,
		},
		ERT:         time.Hour,
		Class:       job.ClassBatch,
		SubmittedAt: submitted,
	})
	j.State = job.StateCompleted
	j.StartedAt = started
	j.CompletedAt = completed
	return j
}

func deadlineOutcome(rng *rand.Rand, deadline, completed time.Duration) *job.Job {
	j := completedJob(rng, 0, time.Hour, completed)
	j.Class = job.ClassDeadline
	j.Deadline = deadline
	return j
}

func TestRecorderCompletionAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewRecorder()
	j1 := completedJob(rng, 0, time.Hour, 2*time.Hour)           // wait 1h exec 1h comp 2h
	j2 := completedJob(rng, time.Hour, 4*time.Hour, 6*time.Hour) // wait 3h exec 2h comp 5h
	r.JobSubmitted(0, 1, j1.Profile)
	r.JobSubmitted(time.Hour, 2, j2.Profile)
	r.JobCompleted(2*time.Hour, 5, j1)
	r.JobCompleted(6*time.Hour, 6, j2)
	res := r.Result("test", 1, 10, 10*time.Hour, time.Hour)
	if res.Submitted != 2 || res.Completed != 2 {
		t.Fatalf("submitted/completed = %d/%d", res.Submitted, res.Completed)
	}
	if res.AvgWaiting != 2*time.Hour {
		t.Fatalf("AvgWaiting = %v, want 2h", res.AvgWaiting)
	}
	if res.AvgExecution != 90*time.Minute {
		t.Fatalf("AvgExecution = %v, want 1h30m", res.AvgExecution)
	}
	if res.AvgCompletion != 3*time.Hour+30*time.Minute {
		t.Fatalf("AvgCompletion = %v, want 3h30m", res.AvgCompletion)
	}
}

func TestRecorderCompletionIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := NewRecorder()
	j := completedJob(rng, 0, time.Hour, 2*time.Hour)
	r.JobCompleted(2*time.Hour, 1, j)
	dup := *j
	dup.CompletedAt = 9 * time.Hour
	r.JobCompleted(9*time.Hour, 2, &dup)
	res := r.Result("test", 1, 10, 10*time.Hour, time.Hour)
	if res.Completed != 1 {
		t.Fatalf("Completed = %d, want 1 (idempotent)", res.Completed)
	}
	if got := r.Outcomes()[0].CompletedAt; got != 2*time.Hour {
		t.Fatalf("first completion should win, got %v", got)
	}
}

func TestRecorderCompletedSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := NewRecorder()
	r.JobCompleted(0, 1, completedJob(rng, 0, 0, 30*time.Minute))
	r.JobCompleted(0, 1, completedJob(rng, 0, 0, 90*time.Minute))
	r.JobCompleted(0, 1, completedJob(rng, 0, 0, 100*time.Minute))
	res := r.Result("test", 1, 10, 3*time.Hour, time.Hour)
	// Bins: [0,1h)→1, [1h,2h)→2 more, [2h,3h]→0. Cumulative: 1,3,3,3.
	want := []int{1, 3, 3, 3}
	if len(res.CompletedSeries) != len(want) {
		t.Fatalf("series len %d, want %d", len(res.CompletedSeries), len(want))
	}
	for i, w := range want {
		if res.CompletedSeries[i] != w {
			t.Fatalf("series = %v, want %v", res.CompletedSeries, want)
		}
	}
}

func TestRecorderDeadlineMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r := NewRecorder()
	r.JobCompleted(0, 1, deadlineOutcome(rng, 5*time.Hour, 3*time.Hour)) // met, slack 2h
	r.JobCompleted(0, 1, deadlineOutcome(rng, 5*time.Hour, 4*time.Hour)) // met, slack 1h
	r.JobCompleted(0, 1, deadlineOutcome(rng, 2*time.Hour, 5*time.Hour)) // missed by 3h
	res := r.Result("test", 1, 10, 10*time.Hour, time.Hour)
	if res.DeadlineJobs != 3 || res.MissedDeadlines != 1 {
		t.Fatalf("deadline jobs/missed = %d/%d", res.DeadlineJobs, res.MissedDeadlines)
	}
	if res.AvgLateness != 90*time.Minute {
		t.Fatalf("AvgLateness = %v, want 1h30m", res.AvgLateness)
	}
	if res.AvgMissedTime != 3*time.Hour {
		t.Fatalf("AvgMissedTime = %v, want 3h", res.AvgMissedTime)
	}
}

func TestRecorderTraffic(t *testing.T) {
	r := NewRecorder()
	rng := rand.New(rand.NewSource(5))
	p := completedJob(rng, 0, 0, time.Hour).Profile
	r.OnMessage(0, 1, 2, &core.Message{Type: core.MsgRequest, Job: p})
	r.OnMessage(0, 1, 2, &core.Message{Type: core.MsgRequest, Job: p})
	r.OnMessage(0, 2, 1, &core.Message{Type: core.MsgAccept, Job: p})
	res := r.Result("test", 1, 4, time.Hour, time.Minute)
	if res.Traffic[core.MsgRequest].Count != 2 || res.Traffic[core.MsgRequest].Bytes != 2048 {
		t.Fatalf("request traffic %+v", res.Traffic[core.MsgRequest])
	}
	if res.Traffic[core.MsgAccept].Bytes != 128 {
		t.Fatalf("accept traffic %+v", res.Traffic[core.MsgAccept])
	}
	if res.TotalBytes != 2176 {
		t.Fatalf("TotalBytes = %d", res.TotalBytes)
	}
	if res.BytesPerNode != 544 {
		t.Fatalf("BytesPerNode = %v", res.BytesPerNode)
	}
	wantBW := 544.0 * 8 / 3600
	if diff := res.BandwidthBPS - wantBW; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("BandwidthBPS = %v, want %v", res.BandwidthBPS, wantBW)
	}
}

func TestRecorderIdleAndFailures(t *testing.T) {
	r := NewRecorder()
	r.AddIdleSample(time.Minute, 9, 10)
	r.AddIdleSample(2*time.Minute, 8, 10)
	r.JobFailed(0, 1, job.UUID("x"), "no candidate")
	res := r.Result("test", 1, 10, time.Hour, time.Minute)
	if len(res.IdleSeries) != 2 || res.IdleSeries[1].Idle != 8 {
		t.Fatalf("idle series %+v", res.IdleSeries)
	}
	if res.Failed != 1 {
		t.Fatalf("failed = %d", res.Failed)
	}
}

func TestRecorderReschedules(t *testing.T) {
	r := NewRecorder()
	r.JobAssigned(0, "a", 1, 2, 10, false)
	r.JobAssigned(0, "a", 2, 3, 5, true)
	r.JobAssigned(0, "a", 3, 4, 2, true)
	res := r.Result("test", 1, 10, time.Hour, time.Minute)
	if res.Assignments != 3 || res.Reschedules != 2 {
		t.Fatalf("assignments/reschedules = %d/%d", res.Assignments, res.Reschedules)
	}
}

func TestNewAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	mk := func(completion time.Duration) *Result {
		r := NewRecorder()
		j := completedJob(rng, 0, 0, completion)
		r.JobSubmitted(0, 1, j.Profile)
		r.JobCompleted(completion, 1, j)
		r.AddIdleSample(time.Minute, 5, 10)
		r.OnMessage(0, 1, 2, &core.Message{Type: core.MsgInform, Job: j.Profile})
		return r.Result("agg", 1, 10, 4*time.Hour, time.Hour)
	}
	agg := NewAggregate([]*Result{mk(2 * time.Hour), mk(4 * time.Hour)})
	if agg == nil || agg.Runs != 2 {
		t.Fatalf("aggregate %+v", agg)
	}
	if agg.AvgCompletionSec.Mean != (3 * time.Hour).Seconds() {
		t.Fatalf("mean completion %v", agg.AvgCompletionSec.Mean)
	}
	if agg.Completed.Mean != 1 {
		t.Fatalf("mean completed %v", agg.Completed.Mean)
	}
	if len(agg.CompletedSeries) == 0 || len(agg.IdleSeries) == 0 {
		t.Fatal("aggregate series missing")
	}
	if _, ok := agg.TrafficBytes[core.MsgInform]; !ok {
		t.Fatal("aggregate traffic missing INFORM")
	}
	if NewAggregate(nil) != nil {
		t.Fatal("NewAggregate(nil) should be nil")
	}
}

func TestDuplicateStartsAccounting(t *testing.T) {
	r := NewRecorder()
	r.JobStarted(0, 1, "a")
	r.JobStarted(0, 2, "a") // duplicate copy
	r.JobStarted(0, 3, "a") // another duplicate
	r.JobStarted(0, 1, "b")
	res := r.Result("t", 1, 4, time.Hour, time.Minute)
	if res.DuplicateStarts != 2 {
		t.Fatalf("DuplicateStarts = %d, want 2", res.DuplicateStarts)
	}
}

func TestJainIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	r := NewRecorder()
	// Two nodes doing equal work out of 2 total nodes → J = 1.
	a := completedJob(rng, 0, 0, time.Hour)
	b := completedJob(rng, 0, 0, time.Hour)
	r.JobCompleted(0, 1, a)
	r.JobCompleted(0, 2, b)
	res := r.Result("t", 1, 2, time.Hour, time.Minute)
	if res.LoadJainIndex < 0.999 || res.LoadJainIndex > 1.001 {
		t.Fatalf("Jain = %v, want 1 for perfectly even load", res.LoadJainIndex)
	}
	// One node doing everything out of 4 → J = 1/4.
	r2 := NewRecorder()
	r2.JobCompleted(0, 1, completedJob(rng, 0, 0, time.Hour))
	r2.JobCompleted(0, 1, completedJob(rng, 0, 0, time.Hour))
	res2 := r2.Result("t", 1, 4, time.Hour, time.Minute)
	if res2.LoadJainIndex < 0.249 || res2.LoadJainIndex > 0.251 {
		t.Fatalf("Jain = %v, want 0.25 for one-of-four hot spot", res2.LoadJainIndex)
	}
}

// TestPlaneCountersConcurrentSnapshot feeds one PlaneCounters from several
// goroutines while another snapshots it, as ariad's transports and its
// /debug/vars handler do, then checks the totals and that a snapshot's maps
// are copies.
func TestPlaneCountersConcurrentSnapshot(t *testing.T) {
	const workers, events = 4, 200
	var p PlaneCounters
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < events; i++ {
			_ = p.Snapshot()
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < events; i++ {
				p.PeerSuspected(0, 1, 2)
				p.DirectoryEvicted(0, 1, 2, "stale")
				p.CommitConflict(0, 1, "u", 2, "busy", 1)
				p.NodeRecovered(0, 1, 2, 3, time.Duration(i))
			}
		}()
	}
	wg.Wait()
	<-done

	got := p.Snapshot()
	n := workers * events
	if got.Membership.Suspected != n || got.Directory.Evictions["stale"] != n ||
		got.SharedState.Conflicts["busy"] != n || got.Recovery.JobsRecovered != 2*n ||
		got.Recovery.ReplayRecords != 3*n || got.Recovery.MaxSnapshotAge != events-1 {
		t.Fatalf("snapshot %+v", got)
	}
	got.Directory.Evictions["stale"] = 0
	if again := p.Snapshot(); again.Directory.Evictions["stale"] != n {
		t.Fatal("Snapshot shares its eviction map with the counters")
	}
	if empty := (&PlaneCounters{}).Snapshot(); empty.Directory.Evictions != nil || empty.SharedState.Conflicts != nil {
		t.Fatalf("a plane that never fired has non-nil maps: %+v", empty)
	}
}
