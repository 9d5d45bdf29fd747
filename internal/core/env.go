package core

import (
	"math/rand"
	"time"

	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/sched"
)

// Cancel revokes a scheduled callback; it reports whether the revocation
// took effect (false when the callback already ran or was cancelled).
type Cancel func() bool

// Env is a node's binding to the outside world — virtual or real time,
// message delivery, the overlay neighborhood, and randomness. The
// discrete-event simulator and the live transports provide different
// implementations; the protocol engine is agnostic.
//
// Implementations must deliver Send asynchronously (never calling back into
// the sending node synchronously) and may drop messages to dead nodes.
type Env interface {
	// Now is the current time, measured from deployment start.
	Now() time.Duration

	// Schedule runs fn after delay on the node's execution context.
	Schedule(delay time.Duration, fn func()) Cancel

	// Send delivers m to the given node asynchronously.
	Send(to overlay.NodeID, m Message)

	// Neighbors lists the node's current overlay neighbors. The caller may
	// modify the slice; it is valid until the next Neighbors call.
	Neighbors() []overlay.NodeID

	// Rand is the node's random source. Under the simulator this is the
	// shared deterministic engine source.
	Rand() *rand.Rand
}

// Observer receives every event a node reports: the job lifecycle below
// plus the six plane groups it embeds. It is one total contract: a node
// calls every method unconditionally, so an observer interested in a few
// events embeds NopObserver and overrides those. TraceObserver is the only
// opt-in extension (see its doc comment for why). All callbacks run on the
// node's execution context and must not block or call back into the node.
// A nil Observer is replaced by NopObserver.
type Observer interface {
	// JobSubmitted fires when an initiator accepts a job submission.
	JobSubmitted(at time.Duration, initiator overlay.NodeID, p job.Profile)

	// JobAssigned fires when a node delegates a job: on first assignment
	// (rescheduled false, from = initiator) and on every reschedule
	// (rescheduled true, from = previous assignee).
	JobAssigned(at time.Duration, uuid job.UUID, from, to overlay.NodeID, cost sched.Cost, rescheduled bool)

	// JobStarted fires when the assignee begins executing the job.
	JobStarted(at time.Duration, node overlay.NodeID, uuid job.UUID)

	// JobCompleted fires when execution finishes; j carries the final
	// lifecycle timestamps.
	JobCompleted(at time.Duration, node overlay.NodeID, j *job.Job)

	// JobFailed fires when an initiator abandons a job (discovery
	// exhausted its retries, or the failsafe watchdog gave up).
	JobFailed(at time.Duration, initiator overlay.NodeID, uuid job.UUID, reason string)

	DeliveryObserver
	MembershipObserver
	RecoveryObserver
	DirectoryObserver
	OverloadObserver
	SharedStateObserver
}

// MembershipEnv is an optional extension of Env giving the membership plane
// write access to the node's overlay neighborhood: pruning the link to a
// confirmed-dead neighbor and reconnecting to a neighbor-of-neighbor to
// repair degree. Environments that do not implement it still run the
// detector (suspect/dead verdicts and flood recovery work everywhere) but
// perform no topology surgery. The node detects support once at
// construction with a type assertion.
type MembershipEnv interface {
	// PruneLink removes the overlay link to a confirmed-dead peer.
	PruneLink(peer overlay.NodeID)

	// Reconnect adds an overlay link to the given peer, refusing when
	// either endpoint already has maxDegree links (0 = unbounded) or the
	// peer is unreachable. It reports whether a link was created.
	Reconnect(peer overlay.NodeID, maxDegree int) bool
}

// MembershipObserver is the Observer group reporting liveness-detector and
// overlay-repair events.
type MembershipObserver interface {
	// PeerSuspected fires when a probe of peer timed out and node moved
	// it from alive to suspect.
	PeerSuspected(at time.Duration, node, peer overlay.NodeID)

	// PeerRefuted fires when a suspected peer proved alive in time (a
	// PING or PONG arrived inside the suspect window).
	PeerRefuted(at time.Duration, node, peer overlay.NodeID)

	// PeerDead fires when the suspect window closed without refutation;
	// the verdict is terminal.
	PeerDead(at time.Duration, node, peer overlay.NodeID)

	// LinkRepaired fires when node replaced its pruned link to dead with
	// a new link to replacement.
	LinkRepaired(at time.Duration, node, dead, replacement overlay.NodeID)

	// FloodEscalated fires when a zero-offer discovery round is
	// re-flooded with an escalated TTL; attempt counts from 1.
	FloodEscalated(at time.Duration, node overlay.NodeID, uuid job.UUID, attempt, ttl int)
}

// RecoveryObserver is the Observer group reporting journal recovery events
// (the fail-recover extension).
type RecoveryObserver interface {
	// NodeRecovered fires once per Recover call, after the node rebuilt
	// its scheduler state from the journal: jobsRecovered counts the
	// distinct job-state entries restored (queued + tracked + open
	// handshakes), replayRecords the journal records folded on top of the
	// snapshot, and snapshotAge how far behind the crash instant the
	// snapshot was (the whole uptime when no snapshot existed).
	NodeRecovered(at time.Duration, node overlay.NodeID, jobsRecovered, replayRecords int, snapshotAge time.Duration)
}

// DirectoryObserver is the Observer group reporting gossip-fed directory
// activity (the directed-discovery extension).
type DirectoryObserver interface {
	// DirectoryHit fires when a discovery round goes directed: probes is
	// the number of TTL-0 targeted REQUESTs sent (each one message on the
	// wire, versus a flood's fan-out cascade).
	DirectoryHit(at time.Duration, node overlay.NodeID, uuid job.UUID, probes int)

	// DirectoryMiss fires when the directory held no satisfying candidate
	// and discovery fell straight through to the classic flood.
	DirectoryMiss(at time.Duration, node overlay.NodeID, uuid job.UUID)

	// DirectoryFallback fires when a directed round starved (offers remote
	// ACCEPTs arrived, below MinDirectedOffers) and the flood fallback ran.
	DirectoryFallback(at time.Duration, node overlay.NodeID, uuid job.UUID, offers int)

	// DirectoryEvicted fires when a cached digest for subject is dropped;
	// reason is one of the directory.Evict* constants (capacity, stale,
	// suspect, dead, unreachable).
	DirectoryEvicted(at time.Duration, node, subject overlay.NodeID, reason string)
}

// OverloadObserver is the Observer group reporting load shedding and
// admission-control events (the overload-control extension).
type OverloadObserver interface {
	// RequestShed fires when a saturated provider declines to offer on a
	// REQUEST it could otherwise satisfy; depth is its queued+running
	// count at that moment.
	RequestShed(at time.Duration, node overlay.NodeID, uuid job.UUID, depth int)

	// AssignShed fires when a saturated provider refuses an incoming
	// ASSIGN with a BUSY reply; depth is its queued+running count.
	AssignShed(at time.Duration, node overlay.NodeID, uuid job.UUID, depth int)

	// ShedRedispatched fires when the sender of a shed ASSIGN re-homes
	// the job: reflooded true for an initiator re-flooding a fresh
	// REQUEST, false for an assignee re-enqueueing locally.
	ShedRedispatched(at time.Duration, node overlay.NodeID, uuid job.UUID, reflooded bool)

	// PeerBusy fires when a node learns a peer is saturated from any BUSY
	// reply (advisory or shed) and demotes it in its directory.
	PeerBusy(at time.Duration, node, peer overlay.NodeID)

	// SubmitRejected fires when admission control bounces a local Submit
	// (MaxPendingSubmits exceeded); pending is the in-flight discovery
	// count at that moment.
	SubmitRejected(at time.Duration, node overlay.NodeID, uuid job.UUID, pending int)
}

// SharedStateObserver is the Observer group reporting optimistic-commit
// activity (the shared-state scheduler arm).
type SharedStateObserver interface {
	// CommitSent fires when an initiator commits a job optimistically
	// against its cached view; attempt counts from 1.
	CommitSent(at time.Duration, node overlay.NodeID, uuid job.UUID, target overlay.NodeID, attempt int)

	// CommitConflict fires when a commit attempt failed: reason is a
	// ConflictKind string (busy, stale, lost) for a provider's typed
	// rejection, or "timeout" when the provider never answered.
	CommitConflict(at time.Duration, node overlay.NodeID, uuid job.UUID, target overlay.NodeID, reason string, attempt int)

	// CommitGranted fires when the provider accepted the commit; attempts
	// is the total commits this round took (1 = first try).
	CommitGranted(at time.Duration, node overlay.NodeID, uuid job.UUID, target overlay.NodeID, attempts int)

	// CommitFallback fires when K failed commits exhausted the cached view
	// and the initiator escalated to the classic REQUEST flood.
	CommitFallback(at time.Duration, node overlay.NodeID, uuid job.UUID, attempts int)
}

// DeliveryObserver is the Observer group reporting delivery hardening
// events (the AssignAck handshake).
type DeliveryObserver interface {
	// AssignRetried fires when a node retransmits an ASSIGN whose
	// acknowledgement did not arrive in time; attempt counts from 1.
	AssignRetried(at time.Duration, node overlay.NodeID, uuid job.UUID, attempt int)

	// AssignRecovered fires when an assignment survived message loss:
	// the acknowledgement arrived after at least one retransmission, or
	// the fallback path re-homed the job (re-flood or local re-enqueue).
	AssignRecovered(at time.Duration, node overlay.NodeID, uuid job.UUID)
}

// NopObserver ignores every event.
type NopObserver struct{}

var _ Observer = NopObserver{}

// JobSubmitted implements Observer.
func (NopObserver) JobSubmitted(time.Duration, overlay.NodeID, job.Profile) {}

// JobAssigned implements Observer.
func (NopObserver) JobAssigned(time.Duration, job.UUID, overlay.NodeID, overlay.NodeID, sched.Cost, bool) {
}

// JobStarted implements Observer.
func (NopObserver) JobStarted(time.Duration, overlay.NodeID, job.UUID) {}

// JobCompleted implements Observer.
func (NopObserver) JobCompleted(time.Duration, overlay.NodeID, *job.Job) {}

// JobFailed implements Observer.
func (NopObserver) JobFailed(time.Duration, overlay.NodeID, job.UUID, string) {}

// AssignRetried implements DeliveryObserver.
func (NopObserver) AssignRetried(time.Duration, overlay.NodeID, job.UUID, int) {}

// AssignRecovered implements DeliveryObserver.
func (NopObserver) AssignRecovered(time.Duration, overlay.NodeID, job.UUID) {}

// PeerSuspected implements MembershipObserver.
func (NopObserver) PeerSuspected(time.Duration, overlay.NodeID, overlay.NodeID) {}

// PeerRefuted implements MembershipObserver.
func (NopObserver) PeerRefuted(time.Duration, overlay.NodeID, overlay.NodeID) {}

// PeerDead implements MembershipObserver.
func (NopObserver) PeerDead(time.Duration, overlay.NodeID, overlay.NodeID) {}

// LinkRepaired implements MembershipObserver.
func (NopObserver) LinkRepaired(time.Duration, overlay.NodeID, overlay.NodeID, overlay.NodeID) {}

// FloodEscalated implements MembershipObserver.
func (NopObserver) FloodEscalated(time.Duration, overlay.NodeID, job.UUID, int, int) {}

// NodeRecovered implements RecoveryObserver.
func (NopObserver) NodeRecovered(time.Duration, overlay.NodeID, int, int, time.Duration) {}

// DirectoryHit implements DirectoryObserver.
func (NopObserver) DirectoryHit(time.Duration, overlay.NodeID, job.UUID, int) {}

// DirectoryMiss implements DirectoryObserver.
func (NopObserver) DirectoryMiss(time.Duration, overlay.NodeID, job.UUID) {}

// DirectoryFallback implements DirectoryObserver.
func (NopObserver) DirectoryFallback(time.Duration, overlay.NodeID, job.UUID, int) {}

// DirectoryEvicted implements DirectoryObserver.
func (NopObserver) DirectoryEvicted(time.Duration, overlay.NodeID, overlay.NodeID, string) {}

// RequestShed implements OverloadObserver.
func (NopObserver) RequestShed(time.Duration, overlay.NodeID, job.UUID, int) {}

// AssignShed implements OverloadObserver.
func (NopObserver) AssignShed(time.Duration, overlay.NodeID, job.UUID, int) {}

// ShedRedispatched implements OverloadObserver.
func (NopObserver) ShedRedispatched(time.Duration, overlay.NodeID, job.UUID, bool) {}

// PeerBusy implements OverloadObserver.
func (NopObserver) PeerBusy(time.Duration, overlay.NodeID, overlay.NodeID) {}

// SubmitRejected implements OverloadObserver.
func (NopObserver) SubmitRejected(time.Duration, overlay.NodeID, job.UUID, int) {}

// CommitSent implements SharedStateObserver.
func (NopObserver) CommitSent(time.Duration, overlay.NodeID, job.UUID, overlay.NodeID, int) {}

// CommitConflict implements SharedStateObserver.
func (NopObserver) CommitConflict(time.Duration, overlay.NodeID, job.UUID, overlay.NodeID, string, int) {
}

// CommitGranted implements SharedStateObserver.
func (NopObserver) CommitGranted(time.Duration, overlay.NodeID, job.UUID, overlay.NodeID, int) {}

// CommitFallback implements SharedStateObserver.
func (NopObserver) CommitFallback(time.Duration, overlay.NodeID, job.UUID, int) {}
