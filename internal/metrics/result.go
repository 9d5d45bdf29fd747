package metrics

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/stats"
)

// Result condenses one simulation run into the quantities the paper's
// figures report.
type Result struct {
	Scenario string
	Seed     int64
	Nodes    int
	Horizon  time.Duration
	BinWidth time.Duration

	Submitted   int
	Completed   int
	Failed      int
	Assignments int
	Reschedules int

	// DuplicateStarts counts extra executions of the same job (multi-
	// assign copies racing onto idle nodes, or a failsafe resubmission
	// racing a slow-but-alive assignee). Zero under plain ARiA.
	DuplicateStarts int

	AvgWaiting    time.Duration
	AvgExecution  time.Duration
	AvgCompletion time.Duration

	// Completion-time distribution beyond the mean (the paper reports
	// means; tails matter for QoS).
	CompletionP50 time.Duration
	CompletionP95 time.Duration
	CompletionP99 time.Duration
	CompletionMax time.Duration

	DeadlineJobs    int
	MissedDeadlines int
	// AvgLateness is the mean slack (deadline − completion) over jobs
	// that met their deadline.
	AvgLateness time.Duration
	// AvgMissedTime is the mean overrun (completion − deadline) over jobs
	// that missed.
	AvgMissedTime time.Duration

	// CompletedSeries holds cumulative completed-job counts at each bin
	// edge (index i ⇒ time i×BinWidth).
	CompletedSeries []int

	// IdleSeries is the sampled idle-node series.
	IdleSeries []IdleSample

	Traffic      map[core.MsgType]Traffic
	TotalBytes   int64
	BytesPerNode float64
	// BandwidthBPS is the average per-node bandwidth in bits per second
	// over the horizon.
	BandwidthBPS float64

	// LoadJainIndex is Jain's fairness index of per-node busy time
	// (execution seconds) across all nodes: 1 means perfectly even
	// load, 1/n means one node did everything. A quantitative companion
	// to the paper's idle-node load-balancing figures.
	LoadJainIndex float64

	// Faults accounts for the network abuse injected by the fault plane
	// and the delivery hardening that absorbed it. All zero on runs
	// without fault injection.
	Faults FaultCounters

	// Membership accounts for the liveness detector and overlay repair.
	// All zero on runs without the membership plane.
	Membership MembershipCounters

	// SubmissionsLost counts workload submissions dropped because churn
	// left no living initiator to accept them; these jobs never entered
	// the protocol and are excluded from Submitted.
	SubmissionsLost int

	// Recovery accounts for crash restarts and journal replay. All zero
	// on runs without Churn.Restart.
	Recovery RecoveryCounters

	// Directory accounts for the gossip-fed resource directory and the
	// directed-versus-flood discovery split. All zero on runs without
	// directed discovery.
	Directory DirectoryCounters

	// Overload accounts for the overload-control plane: BUSY shedding,
	// shed re-dispatches, and admission-control rejections. All zero on
	// runs without queue bounds.
	Overload OverloadCounters

	// SharedState accounts for the optimistic-commit scheduler arm:
	// commits, typed conflicts, and flood fallbacks. All zero on runs
	// without the shared-state plane.
	SharedState SharedStateCounters

	// MsgsPerJob is per-message-type transmissions divided by completed
	// jobs, making Traffic comparable across scenarios of different job
	// counts; nil when no job completed.
	MsgsPerJob map[core.MsgType]float64

	// Spans counts trace-plane events per kind. The Recorder counts every
	// span a node emits, traced run or not (scenario.Config.Trace only adds
	// a collector that keeps the stream); nil when no span was emitted.
	Spans map[core.SpanKind]int
}

// SpanTotal sums the per-kind trace event counts.
func (r *Result) SpanTotal() int {
	total := 0
	for _, c := range r.Spans {
		total += c
	}
	return total
}

// FaultCounters summarizes injected link faults and handshake recoveries.
type FaultCounters struct {
	// Dropped is the number of transmissions the fault plane lost,
	// including PartitionDropped cuts.
	Dropped int
	// PartitionDropped counts losses due to timed network partitions.
	PartitionDropped int
	// Duplicated counts transmissions delivered more than once.
	Duplicated int
	// Retried counts ASSIGN retransmissions by the acknowledgement
	// handshake.
	Retried int
	// Recovered counts assignments saved after loss: acknowledged on a
	// retransmission, or re-homed by the fallback path.
	Recovered int
}

// Any reports whether any fault or recovery was recorded.
func (f FaultCounters) Any() bool {
	return f.Dropped != 0 || f.Duplicated != 0 || f.Retried != 0 || f.Recovered != 0
}

// MembershipCounters summarizes the liveness detector's verdicts and the
// overlay repairs and flood escalations they triggered.
type MembershipCounters struct {
	// Suspected counts alive → suspect transitions; Refuted counts
	// suspicions lifted by a timely PING/PONG.
	Suspected int
	Refuted   int
	// Dead counts terminal dead verdicts (one per node-neighbor pair).
	Dead int
	// Repaired counts neighbor-of-neighbor reconnections after dead-link
	// pruning.
	Repaired int
	// ReFloods counts zero-offer REQUEST rounds re-flooded with an
	// escalated TTL.
	ReFloods int
}

// Any reports whether any membership event was recorded.
func (m MembershipCounters) Any() bool {
	return m.Suspected != 0 || m.Refuted != 0 || m.Dead != 0 || m.Repaired != 0 || m.ReFloods != 0
}

// RecoveryCounters summarizes the fail-recover plane: crash restarts and
// what journal replay brought back.
type RecoveryCounters struct {
	// Restarts counts nodes brought back after a crash (journaled or
	// amnesiac — the harness counts both so the variants compare fairly).
	Restarts int
	// JobsRecovered counts job-state entries rebuilt from journals:
	// re-enqueued jobs, re-armed watchdogs, re-opened ASSIGN handshakes.
	JobsRecovered int
	// ReplayRecords counts journal records folded during recoveries.
	ReplayRecords int
	// MaxSnapshotAge is the worst snapshot lag seen at a recovery (how
	// much journal tail a crash forced a node to replay).
	MaxSnapshotAge time.Duration
}

// Any reports whether any restart or recovery was recorded.
func (c RecoveryCounters) Any() bool {
	return c.Restarts != 0 || c.JobsRecovered != 0 || c.ReplayRecords != 0
}

// DirectoryCounters summarizes the directed-discovery plane: how often the
// gossip-fed cache steered discovery, how often it had nothing, and how the
// flood fallback backstopped starved rounds.
type DirectoryCounters struct {
	// Hits counts discovery rounds that went directed; Probes the total
	// TTL-0 targeted REQUESTs those rounds sent (each one message on the
	// wire, versus a flood's cascade).
	Hits   int
	Probes int
	// Misses counts rounds that found no cached satisfying candidate and
	// flooded directly.
	Misses int
	// Fallbacks counts directed rounds that starved (fewer than
	// MinDirectedOffers ACCEPTs) and escalated to the flood.
	Fallbacks int
	// Evictions counts cache evictions by reason (the directory.Evict*
	// constants: capacity, stale, suspect, dead, unreachable).
	Evictions map[string]int
}

// Any reports whether any directory activity was recorded.
func (d DirectoryCounters) Any() bool {
	return d.Hits != 0 || d.Misses != 0 || d.Fallbacks != 0 || d.Probes != 0 || len(d.Evictions) != 0
}

// EvictionTotal sums evictions across reasons.
func (d DirectoryCounters) EvictionTotal() int {
	total := 0
	for _, c := range d.Evictions {
		total += c
	}
	return total
}

// OverloadCounters summarizes the overload-control plane: provider-side
// BUSY shedding, the sender-side re-dispatches that re-homed shed work, and
// admission-control pushback at the front door.
type OverloadCounters struct {
	// RequestsShed counts matching REQUESTs a saturated provider declined
	// to offer on (advisory BUSY); AssignsShed counts incoming ASSIGNs
	// refused with a shed BUSY.
	RequestsShed int
	AssignsShed  int
	// Reflooded and Reenqueued split shed re-dispatches by path: a fresh
	// REQUEST flood at the initiator versus a local re-enqueue at a
	// rescheduling assignee. Their sum matching AssignsShed (less losses)
	// is the shed-ASSIGN invariant in counter form.
	Reflooded  int
	Reenqueued int
	// PeersBusy counts BUSY replies received (directory demotions).
	PeersBusy int
	// SubmitRejections counts Submit calls bounced by admission control;
	// SubmissionsShed counts workload submissions rejected at every
	// redrawn portal (never entered the protocol, excluded from
	// Submitted).
	SubmitRejections int
	SubmissionsShed  int
}

// Any reports whether any overload-control event was recorded.
func (o OverloadCounters) Any() bool {
	return o.RequestsShed != 0 || o.AssignsShed != 0 || o.Reflooded != 0 ||
		o.Reenqueued != 0 || o.PeersBusy != 0 || o.SubmitRejections != 0 || o.SubmissionsShed != 0
}

// SharedStateCounters summarizes the shared-state optimistic scheduler
// arm: how often initiators committed against the cached view, how those
// commits resolved, and how often the view was abandoned for the flood.
type SharedStateCounters struct {
	// Commits counts COMMIT messages sent; Granted counts the ones a
	// provider accepted. GrantAttempts sums the per-round attempt counts
	// over granted rounds (GrantAttempts/Granted is the mean commits a
	// successful placement took).
	Commits       int
	Granted       int
	GrantAttempts int
	// Conflicts counts failed commit attempts by reason: the ConflictKind
	// strings (busy, stale, lost) plus "timeout" for silent providers.
	Conflicts map[string]int
	// Fallbacks counts rounds that exhausted K failed commits (or ran out
	// of viewed candidates) and escalated to the classic flood.
	Fallbacks int
}

// Any reports whether any shared-state activity was recorded.
func (s SharedStateCounters) Any() bool {
	return s.Commits != 0 || s.Granted != 0 || s.Fallbacks != 0 || len(s.Conflicts) != 0
}

// ConflictTotal sums failed commit attempts across reasons.
func (s SharedStateCounters) ConflictTotal() int {
	total := 0
	for _, c := range s.Conflicts {
		total += c
	}
	return total
}

// ConflictRate is failed commit attempts per COMMIT sent (0 when none were).
func (s SharedStateCounters) ConflictRate() float64 {
	if s.Commits == 0 {
		return 0
	}
	return float64(s.ConflictTotal()) / float64(s.Commits)
}

// IdleSeriesInts extracts the idle counts from the sampled idle series.
func (r *Result) IdleSeriesInts() []int {
	out := make([]int, len(r.IdleSeries))
	for i, s := range r.IdleSeries {
		out[i] = s.Idle
	}
	return out
}

// Result snapshots the recorder into a Result. horizon and binWidth shape
// the completed-jobs series; nodes scales the traffic averages.
func (r *Recorder) Result(scenario string, seed int64, nodes int, horizon, binWidth time.Duration) *Result {
	r.mu.Lock()
	defer r.mu.Unlock()

	res := &Result{
		Scenario:    scenario,
		Seed:        seed,
		Nodes:       nodes,
		Horizon:     horizon,
		BinWidth:    binWidth,
		Submitted:   len(r.submitted),
		Completed:   len(r.outcomes),
		Failed:      r.failed,
		Assignments: r.assignments,
		Reschedules: r.reschedules,
		Traffic:     make(map[core.MsgType]Traffic, len(r.traffic)),
	}
	for _, count := range r.starts {
		if count > 1 {
			res.DuplicateStarts += count - 1
		}
	}
	planes := r.PlaneCounters.Snapshot()
	res.Faults = planes.Faults
	res.Faults.Dropped = r.linkFaults.Lost()
	res.Faults.PartitionDropped = r.linkFaults.PartitionDropped
	res.Faults.Duplicated = r.linkFaults.Duplicated
	res.Membership = planes.Membership
	res.SubmissionsLost = r.submissionsLost
	res.Directory = planes.Directory
	res.Overload = planes.Overload
	res.Overload.SubmissionsShed = r.submissionsShed
	res.SharedState = planes.SharedState
	res.Recovery = planes.Recovery
	res.Recovery.Restarts = r.restarts
	if len(r.spans) > 0 {
		res.Spans = make(map[core.SpanKind]int, len(r.spans))
		for k, c := range r.spans {
			res.Spans[k] = c
		}
	}

	var waits, execs, comps []time.Duration
	var lateness, missedTime []time.Duration
	for _, o := range r.outcomes {
		waits = append(waits, o.Waiting)
		execs = append(execs, o.Execution)
		comps = append(comps, o.Completion)
		if o.Class == job.ClassDeadline {
			res.DeadlineJobs++
			if o.MissedDeadline() {
				res.MissedDeadlines++
				missedTime = append(missedTime, o.CompletedAt-o.Deadline)
			} else {
				lateness = append(lateness, o.Deadline-o.CompletedAt)
			}
		}
	}
	res.AvgWaiting = stats.MeanDuration(waits)
	res.AvgExecution = stats.MeanDuration(execs)
	res.AvgCompletion = stats.MeanDuration(comps)
	res.AvgLateness = stats.MeanDuration(lateness)
	res.AvgMissedTime = stats.MeanDuration(missedTime)
	if len(comps) > 0 {
		compSecs := stats.DurationsToSeconds(comps)
		res.CompletionP50 = stats.SecondsToDuration(stats.Percentile(compSecs, 50))
		res.CompletionP95 = stats.SecondsToDuration(stats.Percentile(compSecs, 95))
		res.CompletionP99 = stats.SecondsToDuration(stats.Percentile(compSecs, 99))
		res.CompletionMax = stats.SecondsToDuration(stats.Max(compSecs))
	}

	if binWidth > 0 && horizon > 0 {
		bins := int(horizon/binWidth) + 1
		counts := make([]int, bins)
		for _, o := range r.outcomes {
			idx := int(o.CompletedAt / binWidth)
			if idx < 0 {
				idx = 0
			}
			if idx >= bins {
				idx = bins - 1
			}
			counts[idx]++
		}
		series := make([]int, bins)
		running := 0
		for i, c := range counts {
			running += c
			series[i] = running
		}
		res.CompletedSeries = series
	}

	res.IdleSeries = append([]IdleSample(nil), r.idle...)

	for typ := range r.traffic {
		t := r.traffic[typ]
		if t.Count == 0 {
			continue
		}
		res.Traffic[core.MsgType(typ)] = t
		res.TotalBytes += t.Bytes
	}
	if res.Completed > 0 {
		res.MsgsPerJob = make(map[core.MsgType]float64, len(res.Traffic))
		for typ, t := range res.Traffic {
			res.MsgsPerJob[typ] = float64(t.Count) / float64(res.Completed)
		}
	}
	if nodes > 0 {
		res.BytesPerNode = float64(res.TotalBytes) / float64(nodes)
		if horizon > 0 {
			res.BandwidthBPS = res.BytesPerNode * 8 / horizon.Seconds()
		}
	}

	if nodes > 0 && len(r.outcomes) > 0 {
		// Accumulate per node in completion order, then sum in sorted node
		// order: float addition is not associative, so map-iteration order
		// would make same-seed runs diverge in the last bits.
		busy := make(map[overlay.NodeID]float64)
		for _, uuid := range r.order {
			o := r.outcomes[uuid]
			busy[o.Node] += o.Execution.Seconds()
		}
		ids := make([]overlay.NodeID, 0, len(busy))
		for id := range busy {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, k int) bool { return ids[i] < ids[k] })
		var sum, sumSq float64
		for _, id := range ids {
			b := busy[id]
			sum += b
			sumSq += b * b
		}
		if sumSq > 0 {
			res.LoadJainIndex = sum * sum / (float64(nodes) * sumSq)
		}
	}
	return res
}

// ParallelRuns executes run(0..runs-1) on up to GOMAXPROCS workers and
// returns the results in run order. Each repetition must be fully
// independent (its own engine and random state), which every runner in
// this repository guarantees.
func ParallelRuns(runs int, run func(int) (*Result, error)) ([]*Result, error) {
	if runs < 1 {
		return nil, fmt.Errorf("runs %d must be positive", runs)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > runs {
		workers = runs
	}
	var (
		results = make([]*Result, runs)
		errs    = make([]error, runs)
		next    atomic.Int64
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= runs {
					return
				}
				results[i], errs[i] = run(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Aggregate summarizes the same scenario across repeated runs.
type Aggregate struct {
	Scenario string
	Runs     int

	Completed       stats.Summary
	Failed          stats.Summary
	Reschedules     stats.Summary
	AvgWaitingSec   stats.Summary
	AvgExecutionSec stats.Summary
	// AvgCompletionSec summarizes per-run mean completion times, seconds.
	AvgCompletionSec stats.Summary
	MissedDeadlines  stats.Summary
	AvgLatenessSec   stats.Summary
	AvgMissedSec     stats.Summary
	TotalBytes       stats.Summary
	BytesPerNode     stats.Summary
	BandwidthBPS     stats.Summary
	LoadJainIndex    stats.Summary
	DuplicateStarts  stats.Summary

	// Fault plane and delivery hardening summaries (zero without faults).
	FaultsDropped    stats.Summary
	FaultsDuplicated stats.Summary
	AssignRetries    stats.Summary
	AssignRecoveries stats.Summary

	// Membership plane summaries (zero without the liveness detector).
	PeersSuspected  stats.Summary
	PeersDead       stats.Summary
	LinksRepaired   stats.Summary
	ReFloods        stats.Summary
	SubmissionsLost stats.Summary

	// Recovery plane summaries (zero without Churn.Restart).
	Restarts      stats.Summary
	JobsRecovered stats.Summary
	ReplayRecords stats.Summary

	// Directory plane summaries (zero without directed discovery).
	DirectoryHits      stats.Summary
	DirectoryMisses    stats.Summary
	DirectoryFallbacks stats.Summary
	DirectedProbes     stats.Summary
	DirectoryEvictions stats.Summary

	// Overload plane summaries (zero without queue bounds).
	RequestsShed     stats.Summary
	AssignsShed      stats.Summary
	ShedRedispatches stats.Summary
	SubmitRejections stats.Summary
	SubmissionsShed  stats.Summary
	CompletionP99Sec stats.Summary

	// Shared-state plane summaries (zero without the optimistic-commit arm).
	CommitsSent     stats.Summary
	CommitsGranted  stats.Summary
	CommitConflicts stats.Summary
	CommitFallbacks stats.Summary
	// ConflictRate summarizes per-run failed commits per COMMIT sent.
	ConflictRate stats.Summary

	// TrafficBytes summarizes per-type byte counts across runs.
	TrafficBytes map[core.MsgType]stats.Summary

	// TrafficMsgsPerJob summarizes per-type transmissions per completed
	// job across runs (the job-count-normalized view of TrafficBytes).
	TrafficMsgsPerJob map[core.MsgType]stats.Summary

	// CompletedSeries and IdleSeries are pointwise means across runs.
	CompletedSeries []float64
	IdleSeries      []float64

	// BinWidth is carried over from the underlying results.
	BinWidth time.Duration
}

// NewAggregate combines per-run results (all from the same scenario).
// It returns nil when results is empty.
func NewAggregate(results []*Result) *Aggregate {
	if len(results) == 0 {
		return nil
	}
	agg := &Aggregate{
		Scenario:          results[0].Scenario,
		Runs:              len(results),
		BinWidth:          results[0].BinWidth,
		TrafficBytes:      make(map[core.MsgType]stats.Summary),
		TrafficMsgsPerJob: make(map[core.MsgType]stats.Summary),
	}
	collect := func(f func(*Result) float64) stats.Summary {
		xs := make([]float64, len(results))
		for i, r := range results {
			xs[i] = f(r)
		}
		return stats.Summarize(xs)
	}
	agg.Completed = collect(func(r *Result) float64 { return float64(r.Completed) })
	agg.Failed = collect(func(r *Result) float64 { return float64(r.Failed) })
	agg.Reschedules = collect(func(r *Result) float64 { return float64(r.Reschedules) })
	agg.AvgWaitingSec = collect(func(r *Result) float64 { return r.AvgWaiting.Seconds() })
	agg.AvgExecutionSec = collect(func(r *Result) float64 { return r.AvgExecution.Seconds() })
	agg.AvgCompletionSec = collect(func(r *Result) float64 { return r.AvgCompletion.Seconds() })
	agg.MissedDeadlines = collect(func(r *Result) float64 { return float64(r.MissedDeadlines) })
	agg.AvgLatenessSec = collect(func(r *Result) float64 { return r.AvgLateness.Seconds() })
	agg.AvgMissedSec = collect(func(r *Result) float64 { return r.AvgMissedTime.Seconds() })
	agg.TotalBytes = collect(func(r *Result) float64 { return float64(r.TotalBytes) })
	agg.BytesPerNode = collect(func(r *Result) float64 { return r.BytesPerNode })
	agg.BandwidthBPS = collect(func(r *Result) float64 { return r.BandwidthBPS })
	agg.LoadJainIndex = collect(func(r *Result) float64 { return r.LoadJainIndex })
	agg.DuplicateStarts = collect(func(r *Result) float64 { return float64(r.DuplicateStarts) })
	agg.FaultsDropped = collect(func(r *Result) float64 { return float64(r.Faults.Dropped) })
	agg.FaultsDuplicated = collect(func(r *Result) float64 { return float64(r.Faults.Duplicated) })
	agg.AssignRetries = collect(func(r *Result) float64 { return float64(r.Faults.Retried) })
	agg.AssignRecoveries = collect(func(r *Result) float64 { return float64(r.Faults.Recovered) })
	agg.PeersSuspected = collect(func(r *Result) float64 { return float64(r.Membership.Suspected) })
	agg.PeersDead = collect(func(r *Result) float64 { return float64(r.Membership.Dead) })
	agg.LinksRepaired = collect(func(r *Result) float64 { return float64(r.Membership.Repaired) })
	agg.ReFloods = collect(func(r *Result) float64 { return float64(r.Membership.ReFloods) })
	agg.SubmissionsLost = collect(func(r *Result) float64 { return float64(r.SubmissionsLost) })
	agg.Restarts = collect(func(r *Result) float64 { return float64(r.Recovery.Restarts) })
	agg.JobsRecovered = collect(func(r *Result) float64 { return float64(r.Recovery.JobsRecovered) })
	agg.ReplayRecords = collect(func(r *Result) float64 { return float64(r.Recovery.ReplayRecords) })
	agg.DirectoryHits = collect(func(r *Result) float64 { return float64(r.Directory.Hits) })
	agg.DirectoryMisses = collect(func(r *Result) float64 { return float64(r.Directory.Misses) })
	agg.DirectoryFallbacks = collect(func(r *Result) float64 { return float64(r.Directory.Fallbacks) })
	agg.DirectedProbes = collect(func(r *Result) float64 { return float64(r.Directory.Probes) })
	agg.DirectoryEvictions = collect(func(r *Result) float64 { return float64(r.Directory.EvictionTotal()) })
	agg.RequestsShed = collect(func(r *Result) float64 { return float64(r.Overload.RequestsShed) })
	agg.AssignsShed = collect(func(r *Result) float64 { return float64(r.Overload.AssignsShed) })
	agg.ShedRedispatches = collect(func(r *Result) float64 { return float64(r.Overload.Reflooded + r.Overload.Reenqueued) })
	agg.SubmitRejections = collect(func(r *Result) float64 { return float64(r.Overload.SubmitRejections) })
	agg.SubmissionsShed = collect(func(r *Result) float64 { return float64(r.Overload.SubmissionsShed) })
	agg.CompletionP99Sec = collect(func(r *Result) float64 { return r.CompletionP99.Seconds() })
	agg.CommitsSent = collect(func(r *Result) float64 { return float64(r.SharedState.Commits) })
	agg.CommitsGranted = collect(func(r *Result) float64 { return float64(r.SharedState.Granted) })
	agg.CommitConflicts = collect(func(r *Result) float64 { return float64(r.SharedState.ConflictTotal()) })
	agg.CommitFallbacks = collect(func(r *Result) float64 { return float64(r.SharedState.Fallbacks) })
	agg.ConflictRate = collect(func(r *Result) float64 { return r.SharedState.ConflictRate() })

	for _, typ := range []core.MsgType{core.MsgRequest, core.MsgAccept, core.MsgInform, core.MsgAssign, core.MsgNotify, core.MsgCancel, core.MsgAssignAck, core.MsgPing, core.MsgPong, core.MsgBusy, core.MsgCommit, core.MsgConflict} {
		xs := make([]float64, len(results))
		perJob := make([]float64, len(results))
		seen := false
		for i, r := range results {
			if t, ok := r.Traffic[typ]; ok {
				xs[i] = float64(t.Bytes)
				perJob[i] = r.MsgsPerJob[typ]
				seen = true
			}
		}
		if seen {
			agg.TrafficBytes[typ] = stats.Summarize(xs)
			agg.TrafficMsgsPerJob[typ] = stats.Summarize(perJob)
		}
	}

	completed := make([][]float64, len(results))
	idle := make([][]float64, len(results))
	for i, r := range results {
		cs := make([]float64, len(r.CompletedSeries))
		for k, v := range r.CompletedSeries {
			cs[k] = float64(v)
		}
		completed[i] = cs
		is := make([]float64, len(r.IdleSeries))
		for k, v := range r.IdleSeries {
			is[k] = float64(v.Idle)
		}
		idle[i] = is
	}
	agg.CompletedSeries = stats.MeanSeries(completed)
	agg.IdleSeries = stats.MeanSeries(idle)
	return agg
}
