// Package aria is a from-scratch implementation of ARiA, the fully
// distributed grid meta-scheduling protocol of Brocco, Malatras, Huang and
// Hirsbrunner (ICDCS 2010), together with every substrate its evaluation
// depends on: a deterministic discrete-event simulator, a BLATANT-S-style
// self-organized peer-to-peer overlay, local schedulers (FCFS, SJF, EDF and
// extensions) with the paper's ETTC and NAL cost functions, synthetic
// workload generation, live in-process and TCP transports, baseline
// meta-schedulers, and a full evaluation harness regenerating the paper's
// ten figures.
//
// # Protocol in one paragraph
//
// A job submitted to any node makes that node the job's initiator: it
// floods a REQUEST over the overlay; nodes whose resources match reply with
// an ACCEPT carrying a cost (estimated time to completion for batch
// schedulers, negative accumulated lateness for deadline schedulers); the
// initiator delegates the job to the cheapest offer with an ASSIGN. While
// the job waits in its assignee's queue, periodic INFORM floods advertise
// it; any node that can beat the advertised cost by a threshold claims the
// job, which migrates with a fresh ASSIGN. Jobs never move once running.
//
// # Packages
//
//   - internal/core       — the protocol engine (messages, node state machine)
//   - internal/sched      — local scheduling policies and cost functions
//   - internal/overlay    — p2p overlay graph, swarm topology manager, latency
//   - internal/resource   — node capability and job requirement model
//   - internal/job        — job identity, estimates, deadlines, lifecycle
//   - internal/sim        — discrete-event simulation kernel
//   - internal/transport  — sim / in-process / TCP bindings of the engine
//   - internal/workload   — the paper's synthetic population and job stream
//   - internal/scenario   — Table II catalog and the evaluation runner
//   - internal/baseline   — centralized and random comparison schedulers
//   - internal/metrics    — recorders for the paper's measurements
//   - internal/report     — figure rendering (tables, TSV, ASCII charts)
//   - internal/ctl        — control plane for live nodes
//
// # Tools and examples
//
// cmd/ariasim runs one catalog scenario; cmd/ariaeval regenerates every
// figure; cmd/ariad and cmd/ariactl run a live TCP grid. This package's
// tested Examples (go test -run Example -v .) walk through a simulated
// grid, a measured one, and a live one in real time.
//
// This package itself re-exports the types a downstream application needs
// to embed a grid node or run simulations, so that the internal packages
// remain free to evolve. Its own tests import nothing under internal/, so
// everything they do can be done from outside the module.
package aria

import (
	"math/rand"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/metrics"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/resource"
	"github.com/smartgrid/aria/internal/scenario"
	"github.com/smartgrid/aria/internal/sched"
	"github.com/smartgrid/aria/internal/sim"
	"github.com/smartgrid/aria/internal/transport"
)

// Core protocol surface.
type (
	// Node is one ARiA protocol participant.
	Node = core.Node
	// Config carries the protocol parameters (flood TTLs, inform rate,
	// reschedule threshold, failsafe knobs).
	Config = core.Config
	// Message is an ARiA wire message (REQUEST/ACCEPT/INFORM/ASSIGN).
	Message = core.Message
	// Env is the environment binding a node runs against.
	Env = core.Env
	// Observer receives job lifecycle and protocol-plane events.
	Observer = core.Observer
	// NopObserver ignores every event; embed it to implement Observer
	// with only the methods you need.
	NopObserver = core.NopObserver

	// NodeID addresses a node on the overlay.
	NodeID = overlay.NodeID
	// NodeProfile describes a node's resources.
	NodeProfile = resource.Profile
	// JobRequirements describe what a job demands of its host.
	JobRequirements = resource.Requirements
	// JobProfile is the wire-visible description of a job.
	JobProfile = job.Profile
	// Job is a job's lifecycle record, as Observer.JobCompleted reports it.
	Job = job.Job
	// UUID identifies a job grid-wide.
	UUID = job.UUID
	// ARTModel is how a job's actual running time drifts from its
	// estimate.
	ARTModel = job.ARTModel
	// Policy selects a local scheduling discipline.
	Policy = sched.Policy

	// SimEngine is the deterministic discrete-event kernel.
	SimEngine = sim.Engine
	// SimCluster binds nodes to a simulation.
	SimCluster = transport.SimCluster
	// LiveCluster binds nodes to real time within one process. Its public
	// surface is NewLiveCluster, AddNode, Connect, Node, StartAll and
	// Close; see DESIGN.md.
	LiveCluster = transport.InprocCluster
	// Scenario is one Table II evaluation configuration.
	Scenario = scenario.Config
	// Result is the measured outcome of one run.
	Result = metrics.Result
	// Recorder is an Observer that measures a run: wire it to every node
	// and to the cluster's traffic hook, then read its Result.
	Recorder = metrics.Recorder
	// MsgType names an ARiA message kind.
	MsgType = core.MsgType
)

// The four protocol messages of the paper.
const (
	MsgRequest = core.MsgRequest
	MsgAccept  = core.MsgAccept
	MsgInform  = core.MsgInform
	MsgAssign  = core.MsgAssign
)

// Platform and job-class constants for profiles and requirements.
const (
	ArchAMD64  = resource.ArchAMD64
	OSLinux    = resource.OSLinux
	ClassBatch = job.ClassBatch
	// DriftNone makes every job run exactly its estimate.
	DriftNone = job.DriftNone
)

// Local scheduling policies.
const (
	FCFS     = sched.FCFS
	SJF      = sched.SJF
	EDF      = sched.EDF
	Priority = sched.Priority
	LJF      = sched.LJF
)

// DefaultConfig returns the paper's baseline protocol parameters
// (REQUEST TTL 9 / fanout 4, INFORM TTL 8 / fanout 2, 2 INFORMs per 5 min,
// 3 min reschedule threshold).
func DefaultConfig() Config {
	return core.DefaultConfig()
}

// NewNode constructs a protocol node; see core.NewNode.
func NewNode(
	id NodeID,
	profile NodeProfile,
	policy Policy,
	env Env,
	cfg Config,
	obs Observer,
	art ARTModel,
) (*Node, error) {
	return core.NewNode(id, profile, policy, env, cfg, obs, art)
}

// DefaultARTModel is the paper's symmetric ±10 % running-time drift.
func DefaultARTModel() ARTModel { return job.DefaultARTModel() }

// NewUUID draws a job UUID from rng.
func NewUUID(rng *rand.Rand) UUID { return job.NewUUID(rng) }

// NewRecorder returns an empty run recorder.
func NewRecorder() *Recorder { return metrics.NewRecorder() }

// NewLiveCluster creates an empty real-time grid in this process whose
// links all deliver after latency; seed feeds each node's random source.
func NewLiveCluster(seed int64, latency time.Duration) *LiveCluster {
	return transport.NewInprocCluster(seed, overlay.FixedLatency(latency))
}

// NewSimEngine creates a deterministic simulation kernel.
func NewSimEngine(seed int64) *SimEngine {
	return sim.NewEngine(seed)
}

// NewSimGrid builds an n-node self-organized overlay on a fresh simulation
// engine, ready for AddNode calls.
func NewSimGrid(n int, seed int64) (*SimCluster, error) {
	rng := rand.New(rand.NewSource(seed))
	builder, err := overlay.Build(n, overlay.DefaultBlatantConfig(), rng)
	if err != nil {
		return nil, err
	}
	engine := sim.NewEngine(seed)
	return transport.NewSimCluster(engine, builder.Graph(), overlay.DefaultLatency(uint64(seed))), nil
}

// Scenarios returns the paper's Table II catalog.
func Scenarios() []Scenario {
	return scenario.Catalog()
}

// RunScenario executes one repetition of a named catalog scenario at the
// given scale factor (1.0 = paper scale).
func RunScenario(name string, scale float64, run int) (*Result, error) {
	cfg, err := scenario.ByName(name)
	if err != nil {
		return nil, err
	}
	if scale != 1.0 {
		cfg = cfg.Scaled(scale)
	}
	return scenario.Run(cfg, run)
}
