// Package job models grid jobs: identity, resource requirements, running
// time estimates, deadlines, and lifecycle state.
//
// A job travels across the grid as a Profile embedded in ARiA protocol
// messages; the executing node additionally tracks lifecycle timestamps on a
// Job. Times are virtual durations measured from the start of the scenario
// (or process, for live deployments).
package job

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"github.com/smartgrid/aria/internal/resource"
)

// UUID identifies a job uniquely across the whole grid.
type UUID string

// NewUUID derives a 128-bit identifier from rng, rendered as 32 hex digits.
// Using the caller's source keeps simulations deterministic; live
// deployments should seed rng from crypto-grade entropy.
func NewUUID(rng *rand.Rand) UUID {
	var b [16]byte
	for i := 0; i < len(b); i += 4 {
		v := rng.Uint32()
		b[i] = byte(v)
		b[i+1] = byte(v >> 8)
		b[i+2] = byte(v >> 16)
		b[i+3] = byte(v >> 24)
	}
	return UUID(hex.EncodeToString(b[:]))
}

// Valid reports whether u is a well-formed job identifier: exactly the 32
// lower-case hex digits NewUUID renders, so the 16 raw bytes the wire carries
// decode back to the identical string.
func (u UUID) Valid() bool {
	if len(u) != 32 {
		return false
	}
	for i := 0; i < len(u); i++ {
		if c := u[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Short returns an abbreviated form for logs.
func (u UUID) Short() string {
	if len(u) >= 8 {
		return string(u[:8])
	}
	return string(u)
}

// Class partitions jobs (and local schedulers) into batch and deadline
// domains; the paper assumes offers from the two domains are never mixed,
// since their cost functions are not comparable.
type Class int

// Job classes.
const (
	ClassBatch Class = iota + 1
	ClassDeadline
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassBatch:
		return "batch"
	case ClassDeadline:
		return "deadline"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Profile is the wire-visible description of a job: everything a remote
// node needs to decide whether it can host the job and at what cost.
type Profile struct {
	UUID UUID                  `json:"uuid"`
	Req  resource.Requirements `json:"req"`

	// ERT is the Estimated job Running Time on the grid-wide baseline
	// hardware; a node with performance index p expects to run the job in
	// ERT/p.
	ERT time.Duration `json:"ert"`

	Class Class `json:"class"`

	// Deadline is the absolute completion deadline for deadline-class
	// jobs; zero for batch jobs.
	Deadline time.Duration `json:"deadline,omitempty"`

	// SubmittedAt records when the job entered the grid, for accounting.
	SubmittedAt time.Duration `json:"submittedAt"`

	// Priority orders jobs under priority-based local policies (higher
	// runs first); ignored by the paper's evaluated policies.
	Priority int `json:"priority,omitempty"`

	// KnownART, when positive, pins the job's actual running time on
	// baseline hardware instead of drawing it from an ARTModel. It is a
	// simulation-harness field for replaying recorded workload traces
	// (SWF), where real runtimes are known; live deployments leave it
	// zero.
	KnownART time.Duration `json:"knownART,omitempty"`

	// EarliestStart is an advance reservation: the job may not begin
	// executing before this absolute time (zero = no reservation).
	// Advance reservation is on the paper's future-work policy list;
	// local schedulers honor it and may backfill around reserved jobs.
	EarliestStart time.Duration `json:"earliestStart,omitempty"`
}

// Validate reports the first structural problem with the profile.
func (p Profile) Validate() error {
	switch {
	case !p.UUID.Valid():
		return fmt.Errorf("invalid job UUID %q", p.UUID)
	case p.ERT <= 0:
		return fmt.Errorf("non-positive ERT %v", p.ERT)
	case p.Class != ClassBatch && p.Class != ClassDeadline:
		return fmt.Errorf("invalid class %d", int(p.Class))
	case p.Class == ClassDeadline && p.Deadline <= 0:
		return fmt.Errorf("deadline job without deadline")
	case p.Class == ClassBatch && p.Deadline != 0:
		return fmt.Errorf("batch job with deadline %v", p.Deadline)
	}
	return p.Req.Validate()
}

// ERTOn scales the baseline estimate to a node with performance index p.
func (p Profile) ERTOn(perfIndex float64) time.Duration {
	if perfIndex <= 0 {
		return p.ERT
	}
	return time.Duration(float64(p.ERT) / perfIndex)
}

// State tracks a job through its grid lifecycle.
type State int

// Lifecycle states, in rough chronological order.
const (
	StateSubmitted State = iota + 1 // accepted by an initiator, discovery running
	StateQueued                     // sitting in an assignee's scheduling queue
	StateRunning                    // executing; no longer eligible for rescheduling
	StateCompleted                  // finished execution
	StateFailed                     // abandoned (no candidate found, or assignee lost)
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateSubmitted:
		return "submitted"
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateCompleted:
		return "completed"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Job is the runtime record a node keeps for a job in its care.
type Job struct {
	Profile

	State State

	// EnqueuedAt is when the current assignee queued the job (reset on
	// reassignment).
	EnqueuedAt time.Duration

	// StartedAt and CompletedAt bracket execution; zero until reached.
	StartedAt   time.Duration
	CompletedAt time.Duration

	// Reassignments counts how many times the job moved between
	// assignees after the initial assignment.
	Reassignments int
}

// New wraps a profile in a runtime record in the submitted state.
func New(p Profile) *Job {
	return &Job{Profile: p, State: StateSubmitted}
}

// WaitingTime is the interval between grid submission and execution start;
// it is only meaningful once the job has started.
func (j *Job) WaitingTime() time.Duration {
	if j.StartedAt == 0 && j.State != StateRunning && j.State != StateCompleted {
		return 0
	}
	return j.StartedAt - j.SubmittedAt
}

// ExecutionTime is the measured run length; zero until completion.
func (j *Job) ExecutionTime() time.Duration {
	if j.State != StateCompleted {
		return 0
	}
	return j.CompletedAt - j.StartedAt
}

// CompletionTime is the full submission-to-completion latency; zero until
// completion.
func (j *Job) CompletionTime() time.Duration {
	if j.State != StateCompleted {
		return 0
	}
	return j.CompletedAt - j.SubmittedAt
}

// Lateness is deadline minus completion: positive when the job met its
// deadline with room to spare, negative when it missed. Only meaningful for
// completed deadline-class jobs.
func (j *Job) Lateness() time.Duration {
	return j.Deadline - j.CompletedAt
}

// MissedDeadline reports whether a completed deadline-class job finished
// past its deadline.
func (j *Job) MissedDeadline() bool {
	return j.Class == ClassDeadline && j.State == StateCompleted && j.CompletedAt > j.Deadline
}
