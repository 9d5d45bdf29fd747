package sched

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/resource"
)

var testReq = resource.Requirements{
	Arch: resource.ArchAMD64, OS: resource.OSLinux, MinMemoryGB: 1, MinDiskGB: 1,
}

var uuidRNG = rand.New(rand.NewSource(99))

func batchJob(ert time.Duration) *job.Job {
	return job.New(job.Profile{
		UUID: job.NewUUID(uuidRNG), Req: testReq, ERT: ert, Class: job.ClassBatch,
	})
}

func deadlineJob(ert, deadline time.Duration) *job.Job {
	return job.New(job.Profile{
		UUID: job.NewUUID(uuidRNG), Req: testReq, ERT: ert,
		Class: job.ClassDeadline, Deadline: deadline,
	})
}

func mustQueue(t *testing.T, p Policy, perf float64) *Queue {
	t.Helper()
	q, err := New(p, perf)
	if err != nil {
		t.Fatalf("New(%v, %v): %v", p, perf, err)
	}
	return q
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(Policy(0), 1); err == nil {
		t.Fatal("New accepted invalid policy")
	}
	if _, err := New(FCFS, 0); err == nil {
		t.Fatal("New accepted zero performance index")
	}
	if _, err := New(FCFS, -1); err == nil {
		t.Fatal("New accepted negative performance index")
	}
}

func TestPolicyClass(t *testing.T) {
	tests := []struct {
		policy Policy
		want   job.Class
	}{
		{FCFS, job.ClassBatch},
		{SJF, job.ClassBatch},
		{LJF, job.ClassBatch},
		{Priority, job.ClassBatch},
		{EDF, job.ClassDeadline},
	}
	for _, tt := range tests {
		if got := tt.policy.Class(); got != tt.want {
			t.Errorf("%v.Class() = %v, want %v", tt.policy, got, tt.want)
		}
	}
}

func TestFCFSOrder(t *testing.T) {
	q := mustQueue(t, FCFS, 1)
	a, b, c := batchJob(3*time.Hour), batchJob(time.Hour), batchJob(2*time.Hour)
	q.Enqueue(a, 0)
	q.Enqueue(b, time.Second)
	q.Enqueue(c, 2*time.Second)
	for i, want := range []*job.Job{a, b, c} {
		got := q.Pop(0)
		if got != want {
			t.Fatalf("pop %d = %v, want %v", i, got.UUID.Short(), want.UUID.Short())
		}
	}
	if q.Pop(0) != nil {
		t.Fatal("Next on empty queue should be nil")
	}
}

func TestSJFOrder(t *testing.T) {
	q := mustQueue(t, SJF, 1)
	long, short, mid := batchJob(3*time.Hour), batchJob(time.Hour), batchJob(2*time.Hour)
	q.Enqueue(long, 0)
	q.Enqueue(short, 0)
	q.Enqueue(mid, 0)
	for i, want := range []*job.Job{short, mid, long} {
		if got := q.Pop(0); got != want {
			t.Fatalf("pop %d wrong job (got ERT %v, want %v)", i, got.ERT, want.ERT)
		}
	}
}

func TestSJFTieBreaksFIFO(t *testing.T) {
	q := mustQueue(t, SJF, 1)
	first, second := batchJob(time.Hour), batchJob(time.Hour)
	q.Enqueue(first, 0)
	q.Enqueue(second, 0)
	if got := q.Pop(0); got != first {
		t.Fatal("SJF tie should preserve enqueue order")
	}
}

func TestLJFOrder(t *testing.T) {
	q := mustQueue(t, LJF, 1)
	long, short := batchJob(3*time.Hour), batchJob(time.Hour)
	q.Enqueue(short, 0)
	q.Enqueue(long, 0)
	if got := q.Pop(0); got != long {
		t.Fatal("LJF should run the longest job first")
	}
}

func TestEDFOrder(t *testing.T) {
	q := mustQueue(t, EDF, 1)
	late, soon := deadlineJob(time.Hour, 10*time.Hour), deadlineJob(time.Hour, 2*time.Hour)
	q.Enqueue(late, 0)
	q.Enqueue(soon, 0)
	if got := q.Pop(0); got != soon {
		t.Fatal("EDF should run the earliest deadline first")
	}
}

func TestPriorityOrder(t *testing.T) {
	q := mustQueue(t, Priority, 1)
	lo, hi := batchJob(time.Hour), batchJob(time.Hour)
	lo.Priority = 1
	hi.Priority = 5
	q.Enqueue(lo, 0)
	q.Enqueue(hi, 0)
	if got := q.Pop(0); got != hi {
		t.Fatal("Priority should run the highest priority first")
	}
}

func TestRemoveAndGet(t *testing.T) {
	q := mustQueue(t, FCFS, 1)
	a, b := batchJob(time.Hour), batchJob(time.Hour)
	q.Enqueue(a, 0)
	q.Enqueue(b, 0)
	if _, ok := q.Get(a.UUID); !ok {
		t.Fatal("Get missed a queued job")
	}
	if !q.Remove(a.UUID) {
		t.Fatal("Remove failed for queued job")
	}
	if q.Remove(a.UUID) {
		t.Fatal("Remove succeeded twice for the same job")
	}
	if _, ok := q.Get(a.UUID); ok {
		t.Fatal("Get found a removed job")
	}
	if q.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", q.Len())
	}
}

func TestEnqueueSetsState(t *testing.T) {
	q := mustQueue(t, FCFS, 1)
	j := batchJob(time.Hour)
	q.Enqueue(j, 42*time.Second)
	if j.State != job.StateQueued {
		t.Fatalf("state = %v, want queued", j.State)
	}
	if j.EnqueuedAt != 42*time.Second {
		t.Fatalf("EnqueuedAt = %v, want 42s", j.EnqueuedAt)
	}
}

func TestETTCEmptyQueue(t *testing.T) {
	q := mustQueue(t, FCFS, 2) // twice as fast as baseline
	p := batchJob(2 * time.Hour).Profile
	cost, err := q.OfferCost(p, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := Cost(time.Hour.Seconds()) // 2h / perf 2
	if cost != want {
		t.Fatalf("ETTC = %v, want %v", cost, want)
	}
}

func TestETTCIncludesRunningRemaining(t *testing.T) {
	q := mustQueue(t, FCFS, 1)
	p := batchJob(time.Hour).Profile
	cost, err := q.OfferCost(p, 0, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	want := Cost((90 * time.Minute).Seconds())
	if cost != want {
		t.Fatalf("ETTC = %v, want %v", cost, want)
	}
}

func TestETTCFCFSCountsWholeQueue(t *testing.T) {
	q := mustQueue(t, FCFS, 1)
	q.Enqueue(batchJob(time.Hour), 0)
	q.Enqueue(batchJob(2*time.Hour), 0)
	p := batchJob(time.Hour).Profile
	cost, err := q.OfferCost(p, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := Cost((4 * time.Hour).Seconds())
	if cost != want {
		t.Fatalf("ETTC = %v, want %v", cost, want)
	}
}

func TestETTCSJFCountsOnlyShorterJobs(t *testing.T) {
	q := mustQueue(t, SJF, 1)
	q.Enqueue(batchJob(time.Hour), 0)   // ahead of probe
	q.Enqueue(batchJob(3*time.Hour), 0) // behind probe
	p := batchJob(2 * time.Hour).Profile
	cost, err := q.OfferCost(p, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := Cost((3 * time.Hour).Seconds()) // 1h ahead + own 2h
	if cost != want {
		t.Fatalf("ETTC = %v, want %v", cost, want)
	}
}

func TestETTCSJFTieGoesToIncumbent(t *testing.T) {
	q := mustQueue(t, SJF, 1)
	q.Enqueue(batchJob(2*time.Hour), 0)
	p := batchJob(2 * time.Hour).Profile
	cost, err := q.OfferCost(p, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := Cost((4 * time.Hour).Seconds()) // incumbent runs first on tie
	if cost != want {
		t.Fatalf("ETTC = %v, want %v", cost, want)
	}
}

func TestOfferCostRejectsWrongClass(t *testing.T) {
	q := mustQueue(t, FCFS, 1)
	p := deadlineJob(time.Hour, 5*time.Hour).Profile
	if _, err := q.OfferCost(p, 0, 0); err != ErrWrongClass {
		t.Fatalf("err = %v, want ErrWrongClass", err)
	}
	dq := mustQueue(t, EDF, 1)
	bp := batchJob(time.Hour).Profile
	if _, err := dq.OfferCost(bp, 0, 0); err != ErrWrongClass {
		t.Fatalf("err = %v, want ErrWrongClass", err)
	}
}

func TestNALAllOnTimeIsNegativeSlack(t *testing.T) {
	q := mustQueue(t, EDF, 1)
	// One queued job: ERT 1h, deadline 4h. Probe: ERT 1h, deadline 10h.
	q.Enqueue(deadlineJob(time.Hour, 4*time.Hour), 0)
	p := deadlineJob(time.Hour, 10*time.Hour).Profile
	cost, err := q.OfferCost(p, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// EDF order: queued (ETC 1h, γ 3h), probe (ETC 2h, γ 8h) → −(3h+8h).
	want := -Cost((11 * time.Hour).Seconds())
	if math.Abs(float64(cost-want)) > 1e-6 {
		t.Fatalf("NAL = %v, want %v", cost, want)
	}
}

func TestNALLateJobsAccumulateLateness(t *testing.T) {
	q := mustQueue(t, EDF, 1)
	q.Enqueue(deadlineJob(2*time.Hour, time.Hour), 0) // will be 1h late
	p := deadlineJob(time.Hour, 10*time.Hour).Profile
	cost, err := q.OfferCost(p, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Queued job: ETC 2h, γ −1h (late, δ=1 → +1h). Probe: ETC 3h, γ 7h
	// (on time but queue late, δ=0). Total +1h.
	want := Cost(time.Hour.Seconds())
	if math.Abs(float64(cost-want)) > 1e-6 {
		t.Fatalf("NAL = %v, want %v", cost, want)
	}
}

func TestNALUsesAbsoluteTime(t *testing.T) {
	q := mustQueue(t, EDF, 1)
	p := deadlineJob(time.Hour, 10*time.Hour).Profile
	early, err := q.OfferCost(p, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	late, err := q.OfferCost(p, 5*time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if late <= early {
		t.Fatalf("NAL at t=5h (%v) should exceed NAL at t=0 (%v): less slack remains", late, early)
	}
}

func TestQueuedCostBatch(t *testing.T) {
	q := mustQueue(t, FCFS, 1)
	a, b := batchJob(time.Hour), batchJob(2*time.Hour)
	q.Enqueue(a, 0)
	q.Enqueue(b, 0)
	cost, ok := q.QueuedCost(b.UUID, 0, 30*time.Minute)
	if !ok {
		t.Fatal("QueuedCost missed queued job")
	}
	want := Cost((3*time.Hour + 30*time.Minute).Seconds())
	if cost != want {
		t.Fatalf("QueuedCost = %v, want %v", cost, want)
	}
	if _, ok := q.QueuedCost(job.UUID("missing"), 0, 0); ok {
		t.Fatal("QueuedCost found a job that is not queued")
	}
}

func TestQueuedCostMatchesOfferForHead(t *testing.T) {
	// A job's queued ETTC right after being accepted into an empty queue
	// must equal the offer cost that won it.
	q := mustQueue(t, SJF, 1.5)
	p := batchJob(90 * time.Minute).Profile
	offer, err := q.OfferCost(p, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	j := job.New(p)
	q.Enqueue(j, 0)
	queued, ok := q.QueuedCost(j.UUID, 0, 0)
	if !ok {
		t.Fatal("job vanished")
	}
	if math.Abs(float64(offer-queued)) > 1e-9 {
		t.Fatalf("offer %v != queued %v", offer, queued)
	}
}

func TestRescheduleCandidatesBatchLongestWait(t *testing.T) {
	q := mustQueue(t, FCFS, 1)
	old, mid, young := batchJob(time.Hour), batchJob(time.Hour), batchJob(time.Hour)
	old.SubmittedAt = 0
	mid.SubmittedAt = time.Minute
	young.SubmittedAt = time.Hour
	q.Enqueue(young, 2*time.Hour)
	q.Enqueue(old, 2*time.Hour)
	q.Enqueue(mid, 2*time.Hour)
	got := q.RescheduleCandidates(2, 2*time.Hour, 0)
	if len(got) != 2 || got[0] != old || got[1] != mid {
		t.Fatalf("candidates = %v, want oldest submissions first", got)
	}
}

func TestRescheduleCandidatesDeadlineLeastSlack(t *testing.T) {
	q := mustQueue(t, EDF, 1)
	tight := deadlineJob(time.Hour, 90*time.Minute)
	loose := deadlineJob(time.Hour, 10*time.Hour)
	q.Enqueue(loose, 0)
	q.Enqueue(tight, 0)
	got := q.RescheduleCandidates(1, 0, 0)
	if len(got) != 1 || got[0] != tight {
		t.Fatal("deadline candidates should prefer least slack")
	}
}

func TestRescheduleCandidatesBounds(t *testing.T) {
	q := mustQueue(t, FCFS, 1)
	if got := q.RescheduleCandidates(3, 0, 0); got != nil {
		t.Fatal("candidates from empty queue should be nil")
	}
	q.Enqueue(batchJob(time.Hour), 0)
	if got := q.RescheduleCandidates(0, 0, 0); got != nil {
		t.Fatal("n=0 should yield nil")
	}
	if got := q.RescheduleCandidates(5, 0, 0); len(got) != 1 {
		t.Fatalf("candidates = %d jobs, want 1", len(got))
	}
}

// Property: ETTC is monotone — adding a job to the queue never decreases
// the offer cost of a subsequent probe.
func TestPropertyETTCMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := func(erts []uint8, probeERT uint8, policyPick bool) bool {
		policy := FCFS
		if policyPick {
			policy = SJF
		}
		q, err := New(policy, 1.3)
		if err != nil {
			return false
		}
		probe := batchJob(time.Duration(int(probeERT)%180+60) * time.Minute).Profile
		prev, err := q.OfferCost(probe, 0, 0)
		if err != nil {
			return false
		}
		for _, e := range erts {
			q.Enqueue(batchJob(time.Duration(int(e)%180+60)*time.Minute), 0)
			cost, err := q.OfferCost(probe, 0, 0)
			if err != nil {
				return false
			}
			if cost < prev {
				return false
			}
			prev = cost
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: every enqueue/next sequence conserves jobs — whatever goes in
// comes out exactly once, regardless of policy.
func TestPropertyQueueConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	policies := []Policy{FCFS, SJF, LJF, Priority, EDF}
	f := func(n uint8, policyIdx uint8) bool {
		policy := policies[int(policyIdx)%len(policies)]
		q, err := New(policy, 1)
		if err != nil {
			return false
		}
		count := int(n)%30 + 1
		in := make(map[job.UUID]bool, count)
		for i := 0; i < count; i++ {
			var j *job.Job
			if policy == EDF {
				j = deadlineJob(time.Hour, time.Duration(rng.Intn(100)+1)*time.Hour)
			} else {
				j = batchJob(time.Duration(rng.Intn(180)+60) * time.Minute)
				j.Priority = rng.Intn(5)
			}
			in[j.UUID] = true
			q.Enqueue(j, 0)
		}
		out := 0
		for j := q.Pop(0); j != nil; j = q.Pop(0) {
			if !in[j.UUID] {
				return false
			}
			delete(in, j.UUID)
			out++
		}
		return out == count && len(in) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: NAL is bounded — all on-time means cost < 0; any late job means
// cost > 0 (never exactly the confusing middle for non-empty queues).
func TestPropertyNALSign(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func(n uint8) bool {
		q, err := New(EDF, 1)
		if err != nil {
			return false
		}
		count := int(n)%10 + 1
		for i := 0; i < count; i++ {
			q.Enqueue(deadlineJob(time.Hour, time.Duration(rng.Intn(48)+1)*time.Hour), 0)
		}
		probe := deadlineJob(time.Hour, time.Duration(rng.Intn(48)+1)*time.Hour).Profile
		cost, err := q.OfferCost(probe, 0, 0)
		if err != nil {
			return false
		}
		// Recompute lateness directly to classify.
		jobs := q.Jobs()
		all := append(jobs, job.New(probe))
		// EDF order by deadline.
		for i := 0; i < len(all); i++ {
			for k := i + 1; k < len(all); k++ {
				if all[k].Deadline < all[i].Deadline {
					all[i], all[k] = all[k], all[i]
				}
			}
		}
		var cum time.Duration
		anyLate := false
		for _, j := range all {
			cum += j.ERT
			if j.Deadline < cum {
				anyLate = true
			}
		}
		if anyLate {
			return cost > 0
		}
		return cost <= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: cost functions depend only on the set of queued jobs, never on
// insertion order (determinism across reschedule arrival races).
func TestPropertyCostPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := func(seed int64, useEDF bool) bool {
		jobRng := rand.New(rand.NewSource(seed))
		n := jobRng.Intn(8) + 2
		var jobs []*job.Job
		for i := 0; i < n; i++ {
			if useEDF {
				// Distinct deadlines: with ties, EDF order (and hence
				// each job's ETC) legitimately depends on arrival
				// order via the FIFO tiebreak.
				deadline := time.Duration(i+1)*2*time.Hour + time.Duration(jobRng.Intn(60))*time.Minute
				jobs = append(jobs, deadlineJob(
					time.Duration(jobRng.Intn(180)+30)*time.Minute, deadline))
			} else {
				jobs = append(jobs, batchJob(time.Duration(jobRng.Intn(180)+30)*time.Minute))
			}
		}
		policy := SJF
		var probe job.Profile
		if useEDF {
			policy = EDF
			probe = deadlineJob(time.Hour, 24*time.Hour).Profile
		} else {
			probe = batchJob(time.Hour).Profile
		}
		build := func(order []int) Cost {
			q, err := New(policy, 1.4)
			if err != nil {
				t.Fatal(err)
			}
			for _, idx := range order {
				q.Enqueue(jobs[idx], 0)
			}
			cost, err := q.OfferCost(probe, time.Hour, 30*time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			return cost
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		base := build(order)
		rng.Shuffle(n, func(i, k int) { order[i], order[k] = order[k], order[i] })
		shuffled := build(order)
		diff := float64(base - shuffled)
		return diff < 1e-6 && diff > -1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, p := range Policies() {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if got, err := ParsePolicy("edf"); err != nil || got != EDF {
		t.Fatalf("case-insensitive parse broken: %v %v", got, err)
	}
	if _, err := ParsePolicy("fifo"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestOfferCostAllocationFree pins the batch offer path every matching
// REQUEST takes at zero allocations, whatever the queue holds.
func TestOfferCostAllocationFree(t *testing.T) {
	for _, policy := range []Policy{FCFS, SJF} {
		q := mustQueue(t, policy, 1.5)
		probe := batchJob(5 * time.Second).Profile
		for queued := 0; queued <= 4; queued++ {
			if queued > 0 {
				q.Enqueue(batchJob(time.Duration(queued)*time.Second), 0)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := q.OfferCost(probe, 0, time.Second); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%v OfferCost over %d queued jobs: %v allocations, want 0", policy, queued, allocs)
			}
		}
	}
}
