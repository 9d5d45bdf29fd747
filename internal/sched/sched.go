// Package sched implements the local scheduling policies ARiA coordinates:
// the queue disciplines (FCFS, SJF, EDF, plus the paper's future-work
// Priority and LJF policies) and the two meta-scheduling cost functions,
// Estimated Time To Completion (ETTC) for batch schedulers and Negative
// Accumulated Lateness (NAL) for deadline schedulers.
//
// A Queue holds jobs that are waiting, not the one that is executing; the
// protocol layer tracks the running job and passes its remaining time into
// the cost functions. Every node executes one job at a time (§III-A), so
// position in the queue fully determines estimated completion.
package sched

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/smartgrid/aria/internal/job"
)

// Policy selects a local queue discipline.
type Policy int

// Queue disciplines. FCFS, SJF, and EDF are the paper's evaluated policies;
// Priority and LJF implement its future-work extension list.
const (
	FCFS Policy = iota + 1
	SJF
	EDF
	Priority
	LJF
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case FCFS:
		return "FCFS"
	case SJF:
		return "SJF"
	case EDF:
		return "EDF"
	case Priority:
		return "Priority"
	case LJF:
		return "LJF"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Class reports the scheduling domain the policy belongs to; batch and
// deadline offers are never mixed because their costs are not comparable.
func (p Policy) Class() job.Class {
	if p == EDF {
		return job.ClassDeadline
	}
	return job.ClassBatch
}

// Valid reports whether p names a known policy.
func (p Policy) Valid() bool {
	switch p {
	case FCFS, SJF, EDF, Priority, LJF:
		return true
	}
	return false
}

// Policies lists every implemented queue discipline.
func Policies() []Policy {
	return []Policy{FCFS, SJF, EDF, Priority, LJF}
}

// ParsePolicy resolves a policy name, case-insensitively.
func ParsePolicy(s string) (Policy, error) {
	for _, p := range Policies() {
		if strings.EqualFold(p.String(), s) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q", s)
}

// Cost is a scheduling offer value; lower is better. Batch costs are ETTC
// seconds (always positive); deadline costs are NAL seconds (negative when
// every job meets its deadline).
type Cost float64

type entry struct {
	job *job.Job
	seq int
}

// Queue is a policy-ordered scheduling queue for a single node.
//
// Queue is not safe for concurrent use; the protocol node serializes access.
type Queue struct {
	policy   Policy
	perf     float64
	items    []entry
	sorted   []entry // ordered's scratch
	seq      int
	backfill bool
}

// New constructs a queue with the given discipline for a node whose
// performance index is perfIndex (must be >= 1 per the resource model; any
// positive value is accepted to ease testing).
func New(policy Policy, perfIndex float64) (*Queue, error) {
	if !policy.Valid() {
		return nil, fmt.Errorf("invalid policy %d", int(policy))
	}
	if perfIndex <= 0 {
		return nil, fmt.Errorf("non-positive performance index %v", perfIndex)
	}
	return &Queue{policy: policy, perf: perfIndex, backfill: true}, nil
}

// SetBackfill toggles EASY-style backfilling around advance reservations
// (on by default; it only matters when reserved jobs are queued).
func (q *Queue) SetBackfill(enabled bool) {
	q.backfill = enabled
}

// Policy reports the queue's discipline.
func (q *Queue) Policy() Policy { return q.policy }

// Class reports the queue's scheduling domain.
func (q *Queue) Class() job.Class { return q.policy.Class() }

// PerfIndex reports the node performance index used for ERT scaling.
func (q *Queue) PerfIndex() float64 { return q.perf }

// Len reports the number of queued (waiting) jobs.
func (q *Queue) Len() int { return len(q.items) }

// Enqueue adds j to the queue, stamping its enqueue time.
func (q *Queue) Enqueue(j *job.Job, now time.Duration) {
	j.State = job.StateQueued
	j.EnqueuedAt = now
	q.items = append(q.items, entry{job: j, seq: q.seq})
	q.seq++
}

// Remove deletes the job with the given UUID, reporting whether it was
// present. Used when a job is rescheduled away from this node.
func (q *Queue) Remove(uuid job.UUID) bool {
	for i, e := range q.items {
		if e.job.UUID == uuid {
			q.items = append(q.items[:i], q.items[i+1:]...)
			return true
		}
	}
	return false
}

// Get returns the queued job with the given UUID, if present.
func (q *Queue) Get(uuid job.UUID) (*job.Job, bool) {
	for _, e := range q.items {
		if e.job.UUID == uuid {
			return e.job, true
		}
	}
	return nil, false
}

// Peek returns the job the policy would execute at the given instant
// without removing it: the policy-order head when its reservation (if any)
// allows, otherwise — with backfilling on — the first eligible job short
// enough to finish before the head's reservation opens. It returns nil
// when no queued job may start now.
func (q *Queue) Peek(now time.Duration) *job.Job {
	ordered := q.ordered()
	if len(ordered) == 0 {
		return nil
	}
	head := ordered[0].job
	if head.EarliestStart <= now {
		return head
	}
	if !q.backfill {
		return nil
	}
	// EASY backfill against the head's reservation: a candidate may run
	// if its estimated completion does not delay the reserved head.
	for _, e := range ordered[1:] {
		j := e.job
		if j.EarliestStart > now {
			continue
		}
		if now+j.ERTOn(q.perf) <= head.EarliestStart {
			return j
		}
	}
	return nil
}

// Pop removes and returns the job to execute at the given instant, or nil
// when none is eligible (empty queue, or all queued jobs reserved for
// later with no backfill fitting).
func (q *Queue) Pop(now time.Duration) *job.Job {
	j := q.Peek(now)
	if j == nil {
		return nil
	}
	q.Remove(j.UUID)
	return j
}

// NextEligibleAt reports the earliest instant after now at which Peek
// could return a job; ok is false when the queue is empty or a job is
// already eligible. The executor uses it to arm a wake-up when every
// queued job is blocked behind a reservation.
func (q *Queue) NextEligibleAt(now time.Duration) (time.Duration, bool) {
	if len(q.items) == 0 || q.Peek(now) != nil {
		return 0, false
	}
	var earliest time.Duration
	found := false
	for _, e := range q.items {
		if es := e.job.EarliestStart; es > now && (!found || es < earliest) {
			earliest = es
			found = true
		}
	}
	return earliest, found
}

// Jobs returns the queued jobs in scheduled (policy) order. The slice is a
// fresh copy; the jobs themselves are shared.
func (q *Queue) Jobs() []*job.Job {
	ordered := q.ordered()
	out := make([]*job.Job, len(ordered))
	for i, e := range ordered {
		out[i] = e.job
	}
	return out
}

// ordered returns entries sorted by the queue discipline, with enqueue
// sequence as the stable tiebreak. The result aliases the queue's own
// storage — its items below two entries, its sort scratch otherwise — so it
// is valid until the next mutation or ordered call and must not be
// modified. Every REQUEST a node can host passes through here (OfferCost),
// so it allocates nothing once the scratch has grown.
func (q *Queue) ordered() []entry {
	if len(q.items) < 2 {
		return q.items
	}
	q.sorted = append(q.sorted[:0], q.items...)
	slices.SortStableFunc(q.sorted, q.compare)
	return q.sorted
}

// compare is less as a three-way comparison.
func (q *Queue) compare(a, b entry) int {
	switch {
	case q.less(a, b):
		return -1
	case q.less(b, a):
		return 1
	}
	return 0
}

func (q *Queue) less(a, b entry) bool {
	switch q.policy {
	case FCFS:
		return a.seq < b.seq
	case SJF:
		if a.job.ERT != b.job.ERT {
			return a.job.ERT < b.job.ERT
		}
	case LJF:
		if a.job.ERT != b.job.ERT {
			return a.job.ERT > b.job.ERT
		}
	case EDF:
		if a.job.Deadline != b.job.Deadline {
			return a.job.Deadline < b.job.Deadline
		}
	case Priority:
		if a.job.Priority != b.job.Priority {
			return a.job.Priority > b.job.Priority
		}
	}
	return a.seq < b.seq
}

// ErrWrongClass is returned when a job's class does not match the queue's
// scheduling domain.
var ErrWrongClass = fmt.Errorf("job class does not match scheduler class")

// OfferCost computes the cost of prospectively accepting p, given that the
// currently running job (if any) still needs runningRemaining to finish.
// For batch queues this is ETTC; for deadline queues, NAL over Q ∪ {p}.
// now is the current absolute time (needed by NAL's absolute completion
// times).
func (q *Queue) OfferCost(p job.Profile, now, runningRemaining time.Duration) (Cost, error) {
	if p.Class != q.Class() {
		return 0, ErrWrongClass
	}
	if q.policy == EDF {
		return q.nal(job.New(p), now, runningRemaining), nil
	}
	return q.ettc(p, now, runningRemaining), nil
}

// QueuedCost computes the comparable cost of a job already in this queue:
// its current ETTC for batch queues, or the NAL of the queue as it stands
// for deadline queues. It reports false when the job is not queued here.
func (q *Queue) QueuedCost(uuid job.UUID, now, runningRemaining time.Duration) (Cost, bool) {
	j, ok := q.Get(uuid)
	if !ok {
		return 0, false
	}
	if q.policy == EDF {
		return q.nal(nil, now, runningRemaining), true
	}
	// ETTC of a queued job: remaining running time plus everything
	// scheduled ahead of it (respecting reservations), plus its own
	// scaled estimate.
	busy := runningRemaining
	for _, e := range q.ordered() {
		busy = startRel(busy, e.job.EarliestStart, now) + e.job.ERTOn(q.perf)
		if e.job.UUID == j.UUID {
			return Cost(busy.Seconds()), true
		}
	}
	return 0, false
}

// startRel returns the relative start offset of a job given the queue is
// busy until busy (relative) and the job holds a reservation at absolute
// earliestStart.
func startRel(busy, earliestStart, now time.Duration) time.Duration {
	if earliestStart <= now {
		return busy
	}
	if wait := earliestStart - now; wait > busy {
		return wait
	}
	return busy
}

// ettc computes the Estimated Time To Completion of prospective job p:
// the relative time at which p would finish under this policy and load,
// accounting for advance reservations of the jobs scheduled ahead of it.
func (q *Queue) ettc(p job.Profile, now, runningRemaining time.Duration) Cost {
	probe := entry{job: job.New(p), seq: q.seq} // ties go to incumbents
	busy := runningRemaining
	for _, e := range q.ordered() {
		if q.less(e, probe) {
			busy = startRel(busy, e.job.EarliestStart, now) + e.job.ERTOn(q.perf)
		}
	}
	busy = startRel(busy, p.EarliestStart, now)
	return Cost((busy + p.ERTOn(q.perf)).Seconds())
}

// nal computes the Negative Accumulated Lateness over Q' = Q ∪ {extra}
// (extra may be nil to evaluate the queue as it stands):
//
//	NAL = Σ_{job ∈ Q'} δ(job, Q') · |γ_job|,  γ = deadline − ETC
//
// where δ is −1 for every job when all of Q' meets its deadlines, 0 for
// on-time jobs when at least one job is late, and 1 for late jobs. ETC is
// the absolute estimated completion under EDF order starting after the
// currently running job.
func (q *Queue) nal(extra *job.Job, now, runningRemaining time.Duration) Cost {
	entries := q.ordered()
	if extra != nil {
		// A fresh copy: ordered's result aliases the queue.
		entries = append(entries[:len(entries):len(entries)], entry{job: extra, seq: q.seq})
		slices.SortStableFunc(entries, q.compare)
	}
	cum := now + runningRemaining
	gammas := make([]time.Duration, len(entries))
	anyLate := false
	for i, e := range entries {
		if e.job.EarliestStart > cum {
			cum = e.job.EarliestStart
		}
		cum += e.job.ERTOn(q.perf)
		gammas[i] = e.job.Deadline - cum
		if gammas[i] < 0 {
			anyLate = true
		}
	}
	var total float64
	for _, g := range gammas {
		switch {
		case anyLate && g < 0:
			total += -g.Seconds() // |γ| with δ = 1
		case anyLate:
			// δ = 0 for on-time jobs in a late queue.
		default:
			total -= g.Seconds() // δ = −1, |γ| = γ
		}
	}
	return Cost(total)
}

// CandidateSelection picks which queued jobs a node advertises for
// rescheduling. SelectPaper is the §III-D rule; the others exist to ablate
// that design choice.
type CandidateSelection int

// Candidate selection policies.
const (
	// SelectPaper: longest grid waiting time for batch queues, least
	// deadline slack for EDF queues (§III-D).
	SelectPaper CandidateSelection = iota
	// SelectNewest: most recently submitted first (anti-paper).
	SelectNewest
	// SelectCostliest: jobs with the highest current local cost first —
	// the jobs that would benefit most from moving, ignoring fairness.
	SelectCostliest
)

// String names the selection policy.
func (s CandidateSelection) String() string {
	switch s {
	case SelectPaper:
		return "paper"
	case SelectNewest:
		return "newest"
	case SelectCostliest:
		return "costliest"
	default:
		return fmt.Sprintf("CandidateSelection(%d)", int(s))
	}
}

// Valid reports whether s names a known selection policy.
func (s CandidateSelection) Valid() bool {
	return s >= SelectPaper && s <= SelectCostliest
}

// RescheduleCandidates selects up to n queued jobs to advertise via INFORM
// messages using the paper's §III-D rule: batch queues prefer the jobs
// that have waited longest since grid submission; deadline queues prefer
// the jobs with the least lateness slack.
func (q *Queue) RescheduleCandidates(n int, now, runningRemaining time.Duration) []*job.Job {
	return q.RescheduleCandidatesBy(SelectPaper, n, now, runningRemaining)
}

// RescheduleCandidatesBy selects advertisement candidates under an explicit
// selection policy (ablations of the paper's rule).
func (q *Queue) RescheduleCandidatesBy(sel CandidateSelection, n int, now, runningRemaining time.Duration) []*job.Job {
	if n <= 0 || len(q.items) == 0 {
		return nil
	}
	jobs := q.Jobs()
	switch sel {
	case SelectNewest:
		sort.SliceStable(jobs, func(i, k int) bool {
			return jobs[i].SubmittedAt > jobs[k].SubmittedAt
		})
		if n > len(jobs) {
			n = len(jobs)
		}
		return jobs[:n]
	case SelectCostliest:
		type costed struct {
			j    *job.Job
			cost Cost
		}
		cs := make([]costed, 0, len(jobs))
		for _, j := range jobs {
			c, ok := q.QueuedCost(j.UUID, now, runningRemaining)
			if !ok {
				continue
			}
			cs = append(cs, costed{j: j, cost: c})
		}
		sort.SliceStable(cs, func(i, k int) bool { return cs[i].cost > cs[k].cost })
		out := make([]*job.Job, 0, n)
		for i := 0; i < len(cs) && i < n; i++ {
			out = append(out, cs[i].j)
		}
		return out
	}
	if q.policy == EDF {
		// Least slack first: γ under the current schedule.
		type slacked struct {
			j     *job.Job
			gamma time.Duration
		}
		cum := now + runningRemaining
		sl := make([]slacked, len(jobs))
		for i, j := range jobs {
			cum += j.ERTOn(q.perf)
			sl[i] = slacked{j: j, gamma: j.Deadline - cum}
		}
		sort.SliceStable(sl, func(i, k int) bool { return sl[i].gamma < sl[k].gamma })
		out := make([]*job.Job, 0, n)
		for i := 0; i < len(sl) && i < n; i++ {
			out = append(out, sl[i].j)
		}
		return out
	}
	// Longest grid waiting time first (oldest submission).
	byWait := make([]*job.Job, len(jobs))
	copy(byWait, jobs)
	sort.SliceStable(byWait, func(i, k int) bool {
		return byWait[i].SubmittedAt < byWait[k].SubmittedAt
	})
	if n > len(byWait) {
		n = len(byWait)
	}
	out := make([]*job.Job, n)
	copy(out, byWait[:n])
	return out
}
