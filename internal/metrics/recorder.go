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

	assignRetries    int
	assignRecoveries int
	linkFaults       faults.Stats

	// Membership plane counters (liveness detector + overlay repair).
	peersSuspected  int
	peersRefuted    int
	peersDead       int
	linksRepaired   int
	floodsEscalated int

	// submissionsLost counts workload submissions that found no living
	// initiator (churn killed the drawn nodes); they never entered the
	// protocol and are invisible to every other counter.
	submissionsLost int

	// Recovery plane counters (write-ahead journal + crash restart).
	restarts       int
	jobsRecovered  int
	replayRecords  int
	maxSnapshotAge time.Duration

	// Directory plane counters (gossip-fed cache + directed discovery).
	// Probes are counted at the initiator — on the wire a directed REQUEST
	// is indistinguishable from a flood copy, so the traffic split between
	// directed and flooded discovery is measured at the source.
	dirHits      int
	dirMisses    int
	dirFallbacks int
	dirProbes    int
	dirEvictions map[string]int

	// Overload plane counters (bounded queues + BUSY shedding + admission
	// control). submissionsShed counts workload submissions bounced by
	// admission control at every redrawn portal — like submissionsLost,
	// they never entered the protocol.
	requestsShed    int
	assignsShed     int
	shedsReflooded  int
	shedsReenqueued int
	peersBusy       int
	submitRejects   int
	submissionsShed int

	// Shared-state plane counters (optimistic commits + conflict retries).
	commitsSent         int
	commitConflicts     map[string]int
	commitsGranted      int
	commitGrantAttempts int
	commitFallbacks     int

	// Per-kind trace-plane counters; populated only when nodes run with a
	// trace observer (the recorder rides an eventlog.Tee next to a
	// trace.Collector).
	spans map[core.SpanKind]int
}

var (
	_ core.Observer            = (*Recorder)(nil)
	_ core.DeliveryObserver    = (*Recorder)(nil)
	_ core.TraceObserver       = (*Recorder)(nil)
	_ core.MembershipObserver  = (*Recorder)(nil)
	_ core.RecoveryObserver    = (*Recorder)(nil)
	_ core.DirectoryObserver   = (*Recorder)(nil)
	_ core.OverloadObserver    = (*Recorder)(nil)
	_ core.SharedStateObserver = (*Recorder)(nil)
)

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		submitted: make(map[job.UUID]time.Duration),
		starts:    make(map[job.UUID]int),
		outcomes:  make(map[job.UUID]JobOutcome),
		spans:     make(map[core.SpanKind]int),

		dirEvictions:    make(map[string]int),
		commitConflicts: make(map[string]int),
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

// AssignRetried implements core.DeliveryObserver.
func (r *Recorder) AssignRetried(time.Duration, overlay.NodeID, job.UUID, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.assignRetries++
}

// AssignRecovered implements core.DeliveryObserver.
func (r *Recorder) AssignRecovered(time.Duration, overlay.NodeID, job.UUID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.assignRecoveries++
}

// TraceSpan implements core.TraceObserver, counting span events per kind.
// The full event stream is retained by a trace.Collector, not here.
func (r *Recorder) TraceSpan(ev core.TraceEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[ev.Kind]++
}

// PeerSuspected implements core.MembershipObserver.
func (r *Recorder) PeerSuspected(time.Duration, overlay.NodeID, overlay.NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.peersSuspected++
}

// PeerRefuted implements core.MembershipObserver.
func (r *Recorder) PeerRefuted(time.Duration, overlay.NodeID, overlay.NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.peersRefuted++
}

// PeerDead implements core.MembershipObserver.
func (r *Recorder) PeerDead(time.Duration, overlay.NodeID, overlay.NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.peersDead++
}

// LinkRepaired implements core.MembershipObserver.
func (r *Recorder) LinkRepaired(time.Duration, overlay.NodeID, overlay.NodeID, overlay.NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.linksRepaired++
}

// FloodEscalated implements core.MembershipObserver.
func (r *Recorder) FloodEscalated(time.Duration, overlay.NodeID, job.UUID, int, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.floodsEscalated++
}

// NodeRestarted records one node coming back after a crash (whether or not
// it had a journal to recover from; the harness calls this, since an
// amnesiac restart is invisible to the protocol).
func (r *Recorder) NodeRestarted() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.restarts++
}

// NodeRecovered implements core.RecoveryObserver: one journaled node rebuilt
// its scheduler state after a restart.
func (r *Recorder) NodeRecovered(_ time.Duration, _ overlay.NodeID, jobsRecovered, replayRecords int, snapshotAge time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.jobsRecovered += jobsRecovered
	r.replayRecords += replayRecords
	if snapshotAge > r.maxSnapshotAge {
		r.maxSnapshotAge = snapshotAge
	}
}

// DirectoryHit implements core.DirectoryObserver: one discovery round went
// directed, sending probes targeted REQUESTs instead of a flood.
func (r *Recorder) DirectoryHit(_ time.Duration, _ overlay.NodeID, _ job.UUID, probes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dirHits++
	r.dirProbes += probes
}

// DirectoryMiss implements core.DirectoryObserver: the cache held no
// satisfying candidate and discovery flooded directly.
func (r *Recorder) DirectoryMiss(time.Duration, overlay.NodeID, job.UUID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dirMisses++
}

// DirectoryFallback implements core.DirectoryObserver: a directed round
// starved and escalated to the classic flood.
func (r *Recorder) DirectoryFallback(time.Duration, overlay.NodeID, job.UUID, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dirFallbacks++
}

// DirectoryEvicted implements core.DirectoryObserver, counting cache
// evictions by reason (capacity, stale, suspect, dead, unreachable).
func (r *Recorder) DirectoryEvicted(_ time.Duration, _, _ overlay.NodeID, reason string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dirEvictions[reason]++
}

// RequestShed implements core.OverloadObserver: a saturated provider
// declined to offer on a matching REQUEST.
func (r *Recorder) RequestShed(time.Duration, overlay.NodeID, job.UUID, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.requestsShed++
}

// AssignShed implements core.OverloadObserver: a saturated provider refused
// an incoming ASSIGN with a BUSY reply.
func (r *Recorder) AssignShed(time.Duration, overlay.NodeID, job.UUID, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.assignsShed++
}

// ShedRedispatched implements core.OverloadObserver: the sender of a shed
// ASSIGN re-homed the job.
func (r *Recorder) ShedRedispatched(_ time.Duration, _ overlay.NodeID, _ job.UUID, reflooded bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if reflooded {
		r.shedsReflooded++
	} else {
		r.shedsReenqueued++
	}
}

// PeerBusy implements core.OverloadObserver: a node learned a peer is
// saturated from a BUSY reply.
func (r *Recorder) PeerBusy(time.Duration, overlay.NodeID, overlay.NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.peersBusy++
}

// SubmitRejected implements core.OverloadObserver: admission control bounced
// a local Submit.
func (r *Recorder) SubmitRejected(time.Duration, overlay.NodeID, job.UUID, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.submitRejects++
}

// CommitSent implements core.SharedStateObserver: an initiator committed a
// job optimistically against its cached cluster view.
func (r *Recorder) CommitSent(time.Duration, overlay.NodeID, job.UUID, overlay.NodeID, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.commitsSent++
}

// CommitConflict implements core.SharedStateObserver, counting failed
// commit attempts by reason (busy, stale, lost, timeout).
func (r *Recorder) CommitConflict(_ time.Duration, _ overlay.NodeID, _ job.UUID, _ overlay.NodeID, reason string, _ int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.commitConflicts[reason]++
}

// CommitGranted implements core.SharedStateObserver: a provider accepted
// the commit after the given number of attempts.
func (r *Recorder) CommitGranted(_ time.Duration, _ overlay.NodeID, _ job.UUID, _ overlay.NodeID, attempts int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.commitsGranted++
	r.commitGrantAttempts += attempts
}

// CommitFallback implements core.SharedStateObserver: K failed commits
// exhausted the cached view and discovery escalated to the flood.
func (r *Recorder) CommitFallback(time.Duration, overlay.NodeID, job.UUID, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.commitFallbacks++
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
