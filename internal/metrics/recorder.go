// Package metrics collects the evaluation measurements the paper reports:
// completed jobs over time, completion-time breakdowns, idle-node series,
// deadline performance, and per-message-type network traffic.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/faults"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/sched"
)

// Traffic accumulates transmissions of one message type.
type Traffic struct {
	Count int64
	Bytes int64
}

// IdleSample is one point of the idle-node time series.
type IdleSample struct {
	At    time.Duration
	Idle  int
	Nodes int
}

// JobOutcome is the final accounting record of one completed job.
type JobOutcome struct {
	UUID          job.UUID
	Class         job.Class
	Node          overlay.NodeID
	SubmittedAt   time.Duration
	StartedAt     time.Duration
	CompletedAt   time.Duration
	Deadline      time.Duration
	EarliestStart time.Duration
	Waiting       time.Duration
	Execution     time.Duration
	Completion    time.Duration
}

// MissedDeadline reports whether the job finished past its deadline.
func (o JobOutcome) MissedDeadline() bool {
	return o.Class == job.ClassDeadline && o.CompletedAt > o.Deadline
}

// Recorder implements core.Observer and accumulates a full run's events.
// It is safe for concurrent use so the same recorder works under live
// transports.
//
// Completions are idempotent per job UUID: should a failsafe resubmission
// ever race a surviving assignee, only the first completion counts.
type Recorder struct {
	// PlaneCounters counts the plane events; the Recorder adds the job
	// lifecycle, traffic, idle samples and span counts on top.
	PlaneCounters

	mu          sync.Mutex
	submitted   map[job.UUID]time.Duration
	assignments int
	reschedules int
	starts      map[job.UUID]int
	outcomes    map[job.UUID]JobOutcome
	order       []job.UUID
	failed      int
	idle        []IdleSample

	// traffic is indexed by MsgType (types are small consecutive ints);
	// a fixed array keeps the per-message hot path free of map probes.
	traffic [int(core.MsgConflict) + 1]Traffic

	// Harness-side counters: events the protocol never sees, so no node
	// reports them. submissionsLost counts workload submissions that found
	// no living initiator (churn killed the drawn nodes); submissionsShed
	// those bounced by admission control at every redrawn portal; restarts
	// the nodes brought back after a crash, journaled or amnesiac.
	linkFaults      faults.Stats
	submissionsLost int
	submissionsShed int
	restarts        int

	// Per-kind trace-plane counters; populated only when nodes run with a
	// trace observer (the recorder rides an eventlog.Tee next to a
	// trace.Collector).
	spans map[core.SpanKind]int
}

var (
	_ core.Observer      = (*Recorder)(nil)
	_ core.TraceObserver = (*Recorder)(nil)
)

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		submitted: make(map[job.UUID]time.Duration),
		starts:    make(map[job.UUID]int),
		outcomes:  make(map[job.UUID]JobOutcome),
		spans:     make(map[core.SpanKind]int),
	}
}

// JobSubmitted implements core.Observer.
func (r *Recorder) JobSubmitted(at time.Duration, _ overlay.NodeID, p job.Profile) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.submitted[p.UUID]; !dup {
		r.submitted[p.UUID] = at
	}
}

// JobAssigned implements core.Observer.
func (r *Recorder) JobAssigned(_ time.Duration, _ job.UUID, _, _ overlay.NodeID, _ sched.Cost, rescheduled bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.assignments++
	if rescheduled {
		r.reschedules++
	}
}

// JobStarted implements core.Observer.
func (r *Recorder) JobStarted(_ time.Duration, _ overlay.NodeID, uuid job.UUID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.starts[uuid]++
}

// JobCompleted implements core.Observer.
func (r *Recorder) JobCompleted(_ time.Duration, node overlay.NodeID, j *job.Job) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.outcomes[j.UUID]; dup {
		return
	}
	r.outcomes[j.UUID] = JobOutcome{
		UUID:          j.UUID,
		Class:         j.Class,
		Node:          node,
		SubmittedAt:   j.SubmittedAt,
		StartedAt:     j.StartedAt,
		CompletedAt:   j.CompletedAt,
		Deadline:      j.Deadline,
		EarliestStart: j.EarliestStart,
		Waiting:       j.WaitingTime(),
		Execution:     j.ExecutionTime(),
		Completion:    j.CompletionTime(),
	}
	r.order = append(r.order, j.UUID)
}

// JobFailed implements core.Observer.
func (r *Recorder) JobFailed(time.Duration, overlay.NodeID, job.UUID, string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
}

// TraceSpan implements core.TraceObserver, counting span events per kind.
// The full event stream is retained by a trace.Collector, not here.
func (r *Recorder) TraceSpan(ev core.TraceEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[ev.Kind]++
}

// NodeRestarted records one node coming back after a crash (whether or not
// it had a journal to recover from; the harness calls this, since an
// amnesiac restart is invisible to the protocol).
func (r *Recorder) NodeRestarted() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.restarts++
}

// SubmissionShed records one workload submission that admission control
// bounced at every redrawn portal; like a lost submission it never entered
// the protocol.
func (r *Recorder) SubmissionShed() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.submissionsShed++
}

// SubmissionLost records one workload submission that found no living
// initiator and was dropped before entering the protocol.
func (r *Recorder) SubmissionLost() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.submissionsLost++
}

// SetLinkFaults stores the fault plane's final transmission statistics so
// the run's result reports how much network abuse was absorbed.
func (r *Recorder) SetLinkFaults(st faults.Stats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.linkFaults = st
}

// OnMessage records one message transmission; wire it as the cluster's
// traffic hook.
func (r *Recorder) OnMessage(_ time.Duration, _, _ overlay.NodeID, m *core.Message) {
	if int(m.Type) >= len(r.traffic) || m.Type < 0 {
		return
	}
	// Atomic adds, not the recorder mutex: this is the per-message hot
	// path and the counters commute.
	t := &r.traffic[m.Type]
	atomic.AddInt64(&t.Count, 1)
	atomic.AddInt64(&t.Bytes, int64(m.WireSize()))
}

// AddIdleSample appends one idle-node sample.
func (r *Recorder) AddIdleSample(at time.Duration, idle, nodes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.idle = append(r.idle, IdleSample{At: at, Idle: idle, Nodes: nodes})
}

// Outcomes returns completed-job records in completion order — canonically
// by (completion time, UUID), not raw callback arrival order.
func (r *Recorder) Outcomes() []JobOutcome {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]JobOutcome, 0, len(r.order))
	for _, uuid := range r.order {
		out = append(out, r.outcomes[uuid])
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].CompletedAt != out[k].CompletedAt {
			return out[i].CompletedAt < out[k].CompletedAt
		}
		return out[i].UUID < out[k].UUID
	})
	return out
}
