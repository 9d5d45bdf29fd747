package core

import (
	"time"

	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/sched"
)

// SpanKind names one step of a job's causal trace. Every protocol action a
// node takes on behalf of a job emits one span event; span/parent links
// across events reconstruct the causal tree of the job's journey through
// the grid (flood fan-out, offer collection, assignment, rescheduling
// handoffs, retries, and recovery).
type SpanKind string

// Span kinds.
const (
	// SpanSubmit is the root span of a job: an initiator accepted it.
	SpanSubmit SpanKind = "submit"

	// SpanFloodOrigin marks the launch of one flood wave (a REQUEST
	// discovery round or one INFORM advertisement). Fanout is the number
	// of neighbors actually contacted; Hop is 0 and TTL the full budget.
	SpanFloodOrigin SpanKind = "flood_origin"

	// SpanForward marks a node relaying a flood one more hop. Fanout is
	// the number of neighbors actually contacted; Hop and TTL are the
	// received message's values. A node forwards a given wave at most
	// once: suppressed duplicates emit SpanDuplicate, never SpanForward.
	SpanForward SpanKind = "forward"

	// SpanDuplicate marks a flood copy suppressed by deduplication. It is
	// bookkeeping, not a forward; redundancy ratios are computed from it.
	SpanDuplicate SpanKind = "duplicate"

	// SpanOffer marks a candidate answering a flood with an ACCEPT
	// (Cost carries the bid).
	SpanOffer SpanKind = "offer"

	// SpanOfferRecv marks an initiator or assignee collecting an ACCEPT.
	SpanOfferRecv SpanKind = "offer_recv"

	// SpanAssign marks an initiator closing a discovery round by
	// delegating the job (Peer is the chosen assignee, Cost the winning
	// offer).
	SpanAssign SpanKind = "assign"

	// SpanReschedule marks an assignee handing a queued job to a cheaper
	// node: OldCost is the job's current local cost, Cost the accepted
	// remote offer, Peer the new assignee.
	SpanReschedule SpanKind = "reschedule"

	// SpanEnqueue marks a job entering a node's local queue.
	SpanEnqueue SpanKind = "enqueue"

	// SpanStart marks execution beginning.
	SpanStart SpanKind = "start"

	// SpanComplete marks execution finishing.
	SpanComplete SpanKind = "complete"

	// SpanRetry marks an ASSIGN retransmission (AssignAck handshake);
	// Attempt counts from 1.
	SpanRetry SpanKind = "assign_retry"

	// SpanFallback marks the loss-recovery path after ASSIGN retries were
	// exhausted: a re-flood (initiator) or a local re-enqueue (assignee).
	SpanFallback SpanKind = "assign_fallback"

	// SpanResubmit marks the failsafe watchdog re-submitting a job that
	// went silent; Attempt is the resubmission count.
	SpanResubmit SpanKind = "resubmit"

	// SpanCancel marks a multi-assigned copy being revoked.
	SpanCancel SpanKind = "cancel"

	// SpanLost marks job state destroyed by a node crash: a queued or
	// running job, an in-flight discovery round, or an unacknowledged
	// outbound ASSIGN.
	SpanLost SpanKind = "lost"

	// SpanFail marks an initiator abandoning a job.
	SpanFail SpanKind = "fail"

	// SpanSuspect marks the liveness detector moving a neighbor (Peer)
	// from alive to suspect after an unanswered probe. Membership events
	// carry no job UUID.
	SpanSuspect SpanKind = "suspect"

	// SpanPeerDead marks the terminal dead verdict on a neighbor (Peer):
	// the suspect window closed without refutation. After this event the
	// emitting node never addresses Peer again.
	SpanPeerDead SpanKind = "peer_dead"

	// SpanRepair marks overlay repair replacing a pruned dead link:
	// Peer is the new neighbor, Origin the dead one it replaces, and
	// Fanout the node's degree after the repair (audited against the
	// configured MaxDegree).
	SpanRepair SpanKind = "repair"

	// SpanRestart marks a journaled node rebooting and replaying its
	// durable scheduler state. It carries no job UUID; Fanout is the
	// number of job-state entries recovered.
	SpanRestart SpanKind = "restart"

	// SpanDirectedProbe marks the launch of one directed discovery round
	// (directory extension): TTL-0 targeted REQUESTs to cached candidates
	// instead of a flood. Like SpanFloodOrigin, Hop is 0 and TTL the wave
	// budget (always 1: probes do not propagate), Fanout the number of
	// candidates actually probed, and Seq/Origin name the wave.
	SpanDirectedProbe SpanKind = "directed_probe"

	// SpanDirectoryFallback marks a starved directed round escalating to
	// the classic flood: fewer than MinDirectedOffers remote ACCEPTs
	// arrived by the decision timer. Parent is the directed-probe span;
	// the fallback flood's origin parents here. Attempt carries the
	// number of remote offers that did arrive.
	SpanDirectoryFallback SpanKind = "directory_fallback"

	// SpanBusy marks a saturated provider shedding load (overload
	// extension): Msg discriminates what was shed — MsgRequest for a
	// declined offer opportunity (advisory), MsgAssign for a refused
	// assignment the sender must re-dispatch. Parent is the span of the
	// message being shed; Peer is the node being answered; Fanout carries
	// the provider's queued+running count at the moment of shedding.
	SpanBusy SpanKind = "busy"

	// SpanShed marks the sender of a shed ASSIGN reacting to the BUSY
	// reply: the handshake is closed and the job re-dispatched — an
	// initiator re-floods a fresh REQUEST, a rescheduling assignee
	// re-enqueues locally. Parent is the provider's busy span; Peer the
	// busy provider. The checker's shed-ASSIGN invariant requires every
	// shed span to have a child (the re-dispatch).
	SpanShed SpanKind = "shed"

	// SpanCommit marks an initiator committing a job optimistically
	// against its cached cluster view (shared-state extension): Peer is
	// the chosen provider, Cost the view's believed load at pick time, and
	// Attempt the commit attempt counting from 1. Children decide the
	// outcome: an enqueue (at the provider) for a granted commit, a
	// conflict for a rejected one.
	SpanCommit SpanKind = "commit"

	// SpanConflict marks a failed optimistic commit: a provider rejecting
	// it (Reason busy/stale/lost, Parent the commit span, Peer the
	// initiator being answered) or the initiator timing out a commit whose
	// provider never answered (Reason timeout, Peer the silent provider).
	// Attempt mirrors the commit's. The initiator's retry commit — or the
	// flood fallback — parents here, chaining the round causally.
	SpanConflict SpanKind = "conflict"

	// SpanCommitFallback marks an initiator abandoning the cached view
	// after K failed commits and escalating to the classic REQUEST flood.
	// Parent is the final conflict span; Attempt carries the failed-commit
	// count (always exactly K). The fallback flood's origin parents here.
	SpanCommitFallback SpanKind = "commit_fallback"

	// SpanRecovered marks one job-state entry rebuilt from the journal
	// after a restart. Parent is the pre-crash span under which the state
	// was journaled, linking the replayed subtree into the original causal
	// tree. Msg discriminates the entry kind: MsgAssign for a re-enqueued
	// queued (or interrupted running) job, MsgNotify for a re-armed
	// initiator watchdog (Peer = tracked assignee), MsgAssignAck for a
	// re-opened unacknowledged ASSIGN handshake (Peer = assignee).
	SpanRecovered SpanKind = "recovered"
)

// TraceEvent is one structured span event of the causal trace plane.
//
// Span is the event's own identifier (unique within a run: the emitting
// node's ID in the high bits, a per-node counter in the low bits); Parent
// is the span that caused it — the sending event's span for events
// triggered by a received message, an earlier local span otherwise, or
// zero for roots.
type TraceEvent struct {
	At   time.Duration
	Node overlay.NodeID
	Kind SpanKind
	UUID job.UUID

	Span   uint64
	Parent uint64

	// Msg is the message type for flood and delivery events.
	Msg MsgType

	// Hop and TTL snapshot the flood trace context: Hop counts overlay
	// hops from the wave origin (0 at the origin), TTL is the remaining
	// hop budget. Their sum is invariant along a wave.
	Hop int
	TTL int

	// Fanout is the number of neighbors actually contacted by a flood
	// origin or forward event.
	Fanout int

	// Seq identifies the flood wave (per-origin counter) for flood events.
	Seq uint64

	// Origin is the flood wave's originating node for flood events
	// (origin, forward, duplicate, offer); together with UUID, Msg, and
	// Seq it names one wave, exactly like the dedup key.
	Origin overlay.NodeID

	// Peer is the counterpart node, where one exists (assignment target,
	// offer destination, forward origin).
	Peer overlay.NodeID

	// Cost and OldCost carry offer economics: Cost is the offered or
	// winning cost; OldCost is the incumbent cost a reschedule improved on.
	Cost    sched.Cost
	OldCost sched.Cost

	// Attempt counts retries and resubmissions, from 1.
	Attempt int

	// Reason discriminates conflict events (shared-state extension): a
	// ConflictKind string (busy, stale, lost) for provider rejections,
	// "timeout" for commits the initiator gave up waiting on.
	Reason string
}

// TraceObserver is the one optional extension of Observer: it receives span
// events. Every other event group is part of Observer itself; tracing stays
// opt-in because it is not free. A node allocates span IDs and puts them on
// the wire only when something consumes spans, so an observer that merely
// embeds NopObserver must not switch tracing on. Like the other observer
// callbacks, TraceSpan runs on the node's execution context while the node
// lock is held and must not call back into the node. The node detects
// support once at construction with a type assertion.
type TraceObserver interface {
	TraceSpan(ev TraceEvent)
}
