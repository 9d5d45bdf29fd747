// Package scenario defines the paper's 26 evaluation scenarios (Table II)
// and the runner that executes them on the discrete-event simulator.
package scenario

import (
	"fmt"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/sched"
	"github.com/smartgrid/aria/internal/workload"
)

// Evaluation constants from §IV.
const (
	// DefaultNodes is the baseline overlay size.
	DefaultNodes = 500

	// DefaultJobs is the number of submitted jobs in every scenario.
	DefaultJobs = 1000

	// DefaultHorizon is the simulated grid activity span (41h40m).
	DefaultHorizon = 41*time.Hour + 40*time.Minute

	// DefaultSubmitStart is when submissions begin.
	DefaultSubmitStart = 20 * time.Minute

	// DefaultSubmitInterval is the baseline submission rate (1 per 10 s).
	DefaultSubmitInterval = 10 * time.Second

	// DefaultSampleInterval is the cadence of idle-node sampling and the
	// bin width of the completed-jobs series.
	DefaultSampleInterval = 5 * time.Minute
)

// Expanding describes dynamic overlay growth (the Expanding scenarios:
// 200 extra nodes, one every 50 s, starting at 1h23m).
type Expanding struct {
	ExtraNodes int
	Start      time.Duration
	Interval   time.Duration
}

// Validate reports the first structural problem.
func (e Expanding) Validate() error {
	switch {
	case e.ExtraNodes < 1:
		return fmt.Errorf("extra nodes %d must be positive", e.ExtraNodes)
	case e.Start < 0:
		return fmt.Errorf("expansion start %v must be non-negative", e.Start)
	case e.Interval <= 0:
		return fmt.Errorf("expansion interval %v must be positive", e.Interval)
	}
	return nil
}

// Churn describes node-failure injection: Kills random nodes crash, one
// every Interval starting at Start. Killed nodes lose their queued and
// running work; with the NOTIFY failsafe armed (Protocol.NotifyInitiator)
// initiators re-submit the lost jobs. This extension probes the paper's
// motivation of "highly volatile" resources (§I).
type Churn struct {
	Kills    int
	Start    time.Duration
	Interval time.Duration

	// LeaveCorpses keeps killed nodes in the overlay graph instead of
	// excising them, and suppresses the swarm manager's heal round. The
	// survivors must then detect the corpse and repair the overlay
	// themselves via the protocol's membership plane (Protocol.ProbeInterval
	// et al.) — this is the setting the liveness scenarios exercise.
	LeaveCorpses bool

	// Restart, when positive, brings every killed node back after this
	// delay as a fresh process on the same overlay address (fail-recover).
	// With Config.Journal on, the replacement replays its write-ahead
	// journal; off, it restarts amnesiac — the comparison report extension
	// G draws. Keep the delay shorter than the membership suspect window
	// (probe interval + timeout + suspect timeout) so the revenant refutes
	// its peers' suspicion before the terminal dead verdict lands.
	Restart time.Duration
}

// Validate reports the first structural problem.
func (c Churn) Validate() error {
	switch {
	case c.Kills < 1:
		return fmt.Errorf("churn kills %d must be positive", c.Kills)
	case c.Start < 0:
		return fmt.Errorf("churn start %v must be non-negative", c.Start)
	case c.Interval <= 0:
		return fmt.Errorf("churn interval %v must be positive", c.Interval)
	case c.Restart < 0:
		return fmt.Errorf("churn restart delay %v must be non-negative", c.Restart)
	}
	return nil
}

// FaultPartition describes one timed network split: a random Fraction of
// nodes is cut off from the rest for Duration starting at Start. Messages
// across the cut are lost; traffic within each side still flows. With
// OneWay set the split is asymmetric: only traffic INTO the isolated set
// is lost — the isolated nodes keep transmitting but go deaf, the gray
// failure that symmetric cuts cannot express.
type FaultPartition struct {
	Start    time.Duration
	Duration time.Duration
	Fraction float64
	OneWay   bool
}

// Validate reports the first structural problem.
func (p FaultPartition) Validate() error {
	switch {
	case p.Start < 0:
		return fmt.Errorf("partition start %v must be non-negative", p.Start)
	case p.Duration <= 0:
		return fmt.Errorf("partition duration %v must be positive", p.Duration)
	case p.Fraction <= 0 || p.Fraction >= 1:
		return fmt.Errorf("partition fraction %v outside (0, 1)", p.Fraction)
	}
	return nil
}

// Faults parameterizes the link fault plane (robustness extension): every
// unicast transmission may be dropped, duplicated, or delayed, and a timed
// partition may sever part of the overlay. All draws come from a seeded
// per-run source, so faulty runs stay bit-reproducible.
type Faults struct {
	// DropProb is the per-transmission loss probability in [0, 1).
	DropProb float64

	// DupProb is the per-transmission duplication probability in [0, 1).
	DupProb float64

	// MaxExtraDelay adds a uniform random extra delay in [0, MaxExtraDelay)
	// to each delivered copy; zero disables jitter.
	MaxExtraDelay time.Duration

	// Partition, when non-nil, cuts a node fraction off for a window.
	Partition *FaultPartition

	// Slowdown, when non-nil, degrades a node fraction's links for a
	// window: every transmission touching a slowed node gains ExtraDelay
	// without ever disconnecting — the slow-peer gray failure.
	Slowdown *FaultSlowdown

	// Stall, when non-nil, freezes a node fraction's inbound delivery
	// for a window: messages toward a stalled node are held until the
	// window closes, the SIGSTOP/SIGCONT analogue.
	Stall *FaultStall
}

// FaultSlowdown describes one timed slow-peer window over a random
// Fraction of nodes.
type FaultSlowdown struct {
	Start      time.Duration
	Duration   time.Duration
	Fraction   float64
	ExtraDelay time.Duration
}

// Validate reports the first structural problem.
func (s FaultSlowdown) Validate() error {
	switch {
	case s.Start < 0:
		return fmt.Errorf("slowdown start %v must be non-negative", s.Start)
	case s.Duration <= 0:
		return fmt.Errorf("slowdown duration %v must be positive", s.Duration)
	case s.Fraction <= 0 || s.Fraction >= 1:
		return fmt.Errorf("slowdown fraction %v outside (0, 1)", s.Fraction)
	case s.ExtraDelay <= 0:
		return fmt.Errorf("slowdown extra delay %v must be positive", s.ExtraDelay)
	}
	return nil
}

// FaultStall describes one timed inbound-delivery freeze over a random
// Fraction of nodes.
type FaultStall struct {
	Start    time.Duration
	Duration time.Duration
	Fraction float64
}

// Validate reports the first structural problem.
func (s FaultStall) Validate() error {
	switch {
	case s.Start < 0:
		return fmt.Errorf("stall start %v must be non-negative", s.Start)
	case s.Duration <= 0:
		return fmt.Errorf("stall duration %v must be positive", s.Duration)
	case s.Fraction <= 0 || s.Fraction >= 1:
		return fmt.Errorf("stall fraction %v outside (0, 1)", s.Fraction)
	}
	return nil
}

// Validate reports the first structural problem.
func (f Faults) Validate() error {
	switch {
	case f.DropProb < 0 || f.DropProb >= 1:
		return fmt.Errorf("drop probability %v outside [0, 1)", f.DropProb)
	case f.DupProb < 0 || f.DupProb >= 1:
		return fmt.Errorf("duplication probability %v outside [0, 1)", f.DupProb)
	case f.MaxExtraDelay < 0:
		return fmt.Errorf("max extra delay %v must be non-negative", f.MaxExtraDelay)
	}
	if f.Partition != nil {
		if err := f.Partition.Validate(); err != nil {
			return err
		}
	}
	if f.Slowdown != nil {
		if err := f.Slowdown.Validate(); err != nil {
			return err
		}
	}
	if f.Stall != nil {
		return f.Stall.Validate()
	}
	return nil
}

// Config fully describes one evaluation scenario.
type Config struct {
	// Name matches Table II; Description summarizes the variation.
	Name        string
	Description string

	// Seed is the base random seed; run k uses a seed derived from it.
	Seed int64

	// Nodes is the initial overlay size.
	Nodes int

	// Overlay parameterizes the BLATANT-S topology manager.
	Overlay overlay.BlatantConfig

	// Topology selects the overlay family (zero value = the paper's
	// BLATANT-S-managed overlay). The paper's future work calls for
	// experiments with other peer-to-peer overlay types; ring, random,
	// small-world, and scale-free generators are available. Expanding
	// scenarios require the BLATANT topology (only it supports joins).
	Topology overlay.Topology

	// TopologyMeanDegree tunes link density for the non-BLATANT
	// topologies (0 = 4, the paper's attained mean degree).
	TopologyMeanDegree float64

	// Policies lists the local scheduling policies assigned uniformly at
	// random to nodes.
	Policies []sched.Policy

	// Class selects batch or deadline jobs; DeadlineSlack sets the mean
	// extra slack for deadline jobs.
	Class         job.Class
	DeadlineSlack time.Duration

	// Submission is the job arrival plan.
	Submission workload.Schedule

	// Protocol carries the ARiA parameters (rescheduling knobs included).
	Protocol core.Config

	// ART selects the running-time error model.
	ART job.ARTModel

	// Expanding, when non-nil, grows the overlay during the run.
	Expanding *Expanding

	// Churn, when non-nil, kills random nodes during the run.
	Churn *Churn

	// Faults, when non-nil, injects link faults (loss, duplication,
	// jitter, partitions) into every transmission.
	Faults *Faults

	// ReservationFraction makes that share of jobs carry an advance
	// reservation with mean lead ReservationLead (extension; zero = the
	// paper's workload).
	ReservationFraction float64
	ReservationLead     time.Duration

	// MaintenanceInterval paces the swarm overlay manager's ant rounds
	// during the run (BLATANT-S self-organizes continuously); zero
	// disables runtime maintenance. Only meaningful for the BLATANT
	// topology.
	MaintenanceInterval time.Duration

	// Sites, when positive, switches the latency model from uniform
	// wide-area pairs to a grid-of-clusters model: nodes partition into
	// this many sites with LAN-class delays inside a site and WAN-class
	// delays across sites.
	Sites int

	// Horizon is the simulated time span.
	Horizon time.Duration

	// SampleInterval is the idle-sampling cadence and series bin width.
	SampleInterval time.Duration

	// EnsureSatisfiable redraws job requirements that no initial node can
	// satisfy (the paper's workload completes all 1000 jobs, implying the
	// same guarantee).
	EnsureSatisfiable bool

	// Trace retains the full causal trace-plane event stream (opt-in: a
	// full-scale run emits hundreds of thousands of span events). The
	// deployment gains a trace.Collector and the result carries per-kind
	// span counts; the stream feeds trace.Check and causal-tree rendering.
	Trace bool

	// Journal attaches a write-ahead journal to every node, so nodes
	// killed by Churn and brought back by Churn.Restart recover their
	// scheduler state instead of restarting amnesiac.
	Journal bool

	// EventLog retains the kernel's per-lane (time, sequence) execution
	// log, readable after the run through sim.Engine.EventLogBytes. Two
	// runs are behaviorally identical iff their logs are byte-identical —
	// the determinism tests' oracle. Costs 16 bytes per event; leave off
	// outside tests.
	EventLog bool
}

// Validate reports the first structural problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("scenario without name")
	case c.Nodes < 2:
		return fmt.Errorf("scenario %s: %d nodes, need at least 2", c.Name, c.Nodes)
	case len(c.Policies) == 0:
		return fmt.Errorf("scenario %s: no scheduling policies", c.Name)
	case c.Horizon <= 0:
		return fmt.Errorf("scenario %s: non-positive horizon %v", c.Name, c.Horizon)
	case c.SampleInterval <= 0:
		return fmt.Errorf("scenario %s: non-positive sample interval %v", c.Name, c.SampleInterval)
	case c.Class == job.ClassDeadline && c.DeadlineSlack <= 0:
		return fmt.Errorf("scenario %s: deadline class without slack", c.Name)
	}
	for _, p := range c.Policies {
		if !p.Valid() {
			return fmt.Errorf("scenario %s: invalid policy %d", c.Name, int(p))
		}
		if p.Class() != c.Class {
			return fmt.Errorf("scenario %s: policy %v does not schedule %v jobs", c.Name, p, c.Class)
		}
	}
	if err := c.Overlay.Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", c.Name, err)
	}
	if c.Expanding != nil && c.Topology != 0 && c.Topology != overlay.TopologyBlatant {
		return fmt.Errorf("scenario %s: expanding requires the blatant topology, got %v", c.Name, c.Topology)
	}
	if err := c.Submission.Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", c.Name, err)
	}
	if err := c.Protocol.Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", c.Name, err)
	}
	if err := c.ART.Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", c.Name, err)
	}
	if c.Expanding != nil {
		if err := c.Expanding.Validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", c.Name, err)
		}
	}
	if c.Churn != nil {
		if err := c.Churn.Validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", c.Name, err)
		}
		if c.Churn.Kills >= c.Nodes {
			return fmt.Errorf("scenario %s: churn would kill all %d nodes", c.Name, c.Nodes)
		}
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", c.Name, err)
		}
	}
	return nil
}

// Rescheduling reports whether the scenario runs with dynamic rescheduling.
func (c Config) Rescheduling() bool {
	return c.Protocol.Rescheduling()
}

// Scaled returns a copy resized for fast tests and benchmarks: node and job
// counts multiplied by frac (with sensible floors), submissions compressed
// proportionally, horizon trimmed to cover the reduced load.
func (c Config) Scaled(frac float64) Config {
	out := c
	out.Nodes = int(float64(c.Nodes) * frac)
	if out.Nodes < 16 {
		out.Nodes = 16
	}
	out.Submission.Count = int(float64(c.Submission.Count) * frac)
	if out.Submission.Count < 20 {
		out.Submission.Count = 20
	}
	out.Horizon = time.Duration(float64(c.Horizon) * frac * 2)
	// Leave room for the whole job tail to drain: truncated runs would
	// distort completion-time comparisons.
	if min := out.Submission.End() + 24*time.Hour; out.Horizon < min {
		out.Horizon = min
	}
	if c.Expanding != nil {
		e := *c.Expanding
		e.ExtraNodes = int(float64(e.ExtraNodes) * frac)
		if e.ExtraNodes < 4 {
			e.ExtraNodes = 4
		}
		out.Expanding = &e
	}
	if c.Churn != nil {
		ch := *c.Churn
		ch.Kills = int(float64(ch.Kills) * frac)
		if ch.Kills < 2 {
			ch.Kills = 2
		}
		if ch.Kills >= out.Nodes {
			ch.Kills = out.Nodes / 2
		}
		out.Churn = &ch
	}
	return out
}
