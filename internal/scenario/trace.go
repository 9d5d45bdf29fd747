package scenario

import (
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/metrics"
	"github.com/smartgrid/aria/internal/trace"
)

// TraceOpts derives the invariant-checker relaxations a scenario legitimately
// needs. Clean single-assignment runs are checked at full strictness; the
// documented extensions relax exactly the invariants they are designed to
// bend:
//
//   - MultiAssign intentionally starts several copies of one job, and churn
//     or link faults can double-start via failsafe resubmission races.
//   - Churn and link faults can strand jobs (killed assignee, partitioned
//     initiator), so completeness is not guaranteed.
//   - Link loss without the AssignAck handshake can orphan an ASSIGN (the
//     message vanishes and nothing retries), which is precisely the failure
//     mode the handshake extension exists to close.
func (c Config) TraceOpts() trace.Opts {
	opts := trace.Opts{Protocol: c.Protocol}
	if c.Protocol.MultiAssign > 1 || c.Churn != nil || c.Faults != nil {
		opts.AllowDuplicateStarts = true
	}
	if c.Churn != nil || c.Faults != nil {
		opts.AllowIncomplete = true
	}
	if c.Faults != nil && !c.Protocol.AssignAck {
		opts.AllowLoss = true
	}
	return opts
}

// RunTraced executes one repetition with the trace plane armed and audits
// the retained event stream against the protocol invariants. The metrics are
// identical to an untraced Run of the same scenario and repetition: tracing
// consumes no randomness and adds no messages.
func RunTraced(c Config, run int) (*metrics.Result, trace.Report, error) {
	c.Trace = true
	d, err := Prepare(c, run)
	if err != nil {
		return nil, trace.Report{}, err
	}
	d.ScheduleSubmissions(ARiASubmit)
	res := d.Finish()
	opts := c.TraceOpts()
	opts.InFlight = d.inFlight()
	rep := trace.Check(d.Trace.Events(), opts)
	return res, rep, nil
}

// inFlight collects the jobs the live nodes still hold queued or running:
// the horizon cut them, the protocol did not lose them.
func (d *Deployment) inFlight() map[job.UUID]bool {
	held := make(map[job.UUID]bool)
	for _, n := range d.Cluster.Nodes() {
		if !n.Alive() {
			continue
		}
		for _, u := range n.QueuedJobs() {
			held[u] = true
		}
		if u, ok := n.Running(); ok {
			held[u] = true
		}
	}
	return held
}
