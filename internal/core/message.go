// Package core implements the ARiA protocol: fully distributed grid
// meta-scheduling over a peer-to-peer overlay (Brocco et al., ICDCS 2010).
//
// The protocol's four message types — REQUEST, ACCEPT, INFORM, ASSIGN —
// give it its name. A job submitted to any node (the initiator) is
// advertised with a REQUEST flood; nodes whose resources match reply with
// an ACCEPT carrying a cost; the initiator delegates the job via ASSIGN to
// the cheapest offer. While a job waits in its assignee's queue, periodic
// INFORM floods advertise it for dynamic rescheduling: any node that can
// beat the current cost by a configurable threshold sends an ACCEPT to the
// assignee, which moves the job with a fresh ASSIGN.
//
// The engine in this package is callback-driven and free of goroutines: it
// interacts with the world only through the Env interface (clock, random
// source, overlay neighborhood, message delivery). The same engine runs
// deterministically under the discrete-event simulator and concurrently
// under the in-process and TCP transports.
package core

import (
	"fmt"
	"math"

	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/sched"
)

// MsgType enumerates the ARiA message types of Table I, plus the optional
// NOTIFY tracking extension sketched in §III-D, the ASSIGN_ACK delivery
// hardening extension, and the PING/PONG membership probes of the
// SWIM-style liveness plane.
type MsgType int

// Protocol message types.
const (
	MsgRequest   MsgType = iota + 1 // initiator → flood: find candidates
	MsgAccept                       // candidate → initiator or assignee: cost offer
	MsgInform                       // assignee → flood: advertise queued job
	MsgAssign                       // initiator/assignee → new assignee: delegate job
	MsgNotify                       // assignee → initiator: tracking (extension)
	MsgCancel                       // initiator → assignee: revoke a multi-assigned copy (comparison protocol)
	MsgAssignAck                    // assignee → assigning node: confirm ASSIGN receipt (delivery hardening extension)
	MsgPing                         // node → neighbor: liveness probe (membership extension)
	MsgPong                         // neighbor → node: probe acknowledgement (membership extension)
	MsgBusy                         // saturated provider → sender: shed a REQUEST or ASSIGN (overload extension)
	MsgCommit                       // initiator → provider: optimistic assignment against the cached view (shared-state extension)
	MsgConflict                     // provider → initiator: typed rejection of an optimistic commit (shared-state extension)
)

// String names the message type as the paper writes it.
func (t MsgType) String() string {
	switch t {
	case MsgRequest:
		return "REQUEST"
	case MsgAccept:
		return "ACCEPT"
	case MsgInform:
		return "INFORM"
	case MsgAssign:
		return "ASSIGN"
	case MsgNotify:
		return "NOTIFY"
	case MsgCancel:
		return "CANCEL"
	case MsgAssignAck:
		return "ASSIGN_ACK"
	case MsgPing:
		return "PING"
	case MsgPong:
		return "PONG"
	case MsgBusy:
		return "BUSY"
	case MsgCommit:
		return "COMMIT"
	case MsgConflict:
		return "CONFLICT"
	default:
		return fmt.Sprintf("MsgType(%d)", int(t))
	}
}

// Valid reports whether t is a known message type.
func (t MsgType) Valid() bool {
	return t >= MsgRequest && t <= MsgConflict
}

// Wire sizes from §V-E of the paper: REQUEST, INFORM, and ASSIGN carry a
// full job profile (1 KiB); ACCEPT (and the NOTIFY extension) carry only
// identifiers and a cost (128 B).
const (
	wireSizeLarge = 1024
	wireSizeSmall = 128
)

// NotifyKind refines the NOTIFY extension message.
type NotifyKind int

// Notification kinds.
const (
	NotifyQueued     NotifyKind = iota + 1 // job entered an assignee's queue
	NotifyCompleted                        // job finished execution
	NotifyStarted                          // execution began (multi-assign revocation trigger)
	NotifyAck                              // initiator acknowledged a completion notify
	NotifyResurfaced                       // assignee recovered an in-flight copy, asks to re-run
	NotifyConfirm                          // initiator confirms a resurfaced copy may execute
)

// ConflictKind refines the CONFLICT reply of the shared-state extension: why
// a provider rejected an optimistic commit.
type ConflictKind int

// Conflict kinds.
const (
	// ConflictBusy: the provider's queue is at the shared-state bound and
	// no recent commit took the last slot — the initiator's view was simply
	// stale about organically accumulated load.
	ConflictBusy ConflictKind = iota + 1

	// ConflictStale: the initiator committed against a stale identity — the
	// provider restarted since the view entry was learned (incarnation
	// mismatch) or its real profile cannot host the job at all.
	ConflictStale

	// ConflictLost: a concurrent commit beat this one to the provider's
	// last slot — the optimistic-concurrency race the shared-state
	// architecture trades its cheap reads for.
	ConflictLost
)

// String names the conflict kind for traces and reports.
func (k ConflictKind) String() string {
	switch k {
	case ConflictBusy:
		return "busy"
	case ConflictStale:
		return "stale"
	case ConflictLost:
		return "lost"
	default:
		return fmt.Sprintf("ConflictKind(%d)", int(k))
	}
}

// Message is an ARiA protocol message.
//
// Field semantics follow Table I. From is the address replies go to: the
// initiator for REQUEST and ASSIGN, the offering node for ACCEPT, and the
// current assignee for INFORM.
type Message struct {
	Type MsgType        `json:"type"`
	From overlay.NodeID `json:"from"`
	Job  job.Profile    `json:"job"`

	// Cost accompanies ACCEPT (the offer) and INFORM (the current
	// assignee's cost to beat).
	Cost sched.Cost `json:"cost,omitempty"`

	// TTL and Fanout drive flood forwarding for REQUEST and INFORM: TTL
	// is the remaining hop budget, Fanout the number of random neighbors
	// contacted per hop.
	TTL    int `json:"ttl,omitempty"`
	Fanout int `json:"fanout,omitempty"`

	// Seq distinguishes successive floods for the same job (REQUEST
	// retries, periodic INFORMs) so duplicate suppression does not eat
	// them. Assigned from a per-origin counter.
	Seq uint64 `json:"seq,omitempty"`

	// Via is the node that forwarded this copy; excluded from the next
	// hop's fanout selection. Purely a forwarding hint.
	Via overlay.NodeID `json:"via,omitempty"`

	// Notify refines MsgNotify messages.
	Notify NotifyKind `json:"notify,omitempty"`

	// Re refines MsgBusy messages: the type of the message being shed
	// (MsgRequest for an advisory "don't wait for my offer", MsgAssign
	// for a shed assignment the sender must re-dispatch).
	Re MsgType `json:"re,omitempty"`

	// Conflict refines MsgConflict messages: why the provider rejected the
	// optimistic commit (shared-state extension).
	Conflict ConflictKind `json:"conflict,omitempty"`

	// Inc rides MsgCommit messages: the provider incarnation the initiator's
	// cached view entry was learned from. A provider whose current
	// incarnation differs rejects the commit as stale — the view predates a
	// restart (shared-state extension).
	Inc uint64 `json:"inc,omitempty"`

	// Hop and Span are the causal trace context (trace plane extension).
	// Hop counts overlay hops from the message's origin: 1 on the first
	// transmission, incremented per forward, so Hop+TTL stays invariant
	// along a flood wave. Span is the sender's span identifier; the
	// receiver parents its own spans under it. Both ride every message
	// but do not affect protocol decisions.
	Hop  int    `json:"hop,omitempty"`
	Span uint64 `json:"span,omitempty"`

	// Peers carries the sender's current (non-dead) neighbor list on PING
	// and PONG messages: the gossip that teaches each node its
	// neighbors-of-neighbors, from which overlay repair draws
	// reconnection candidates.
	Peers []overlay.NodeID `json:"peers,omitempty"`

	// Dir carries compact resource-profile digests (internal/directory
	// codec) for the gossip-fed directory extension: the sender's own
	// digest plus cache samples on PING/PONG, the sender's digest alone on
	// ACCEPT and INFORM. Opaque to nodes without the directory enabled.
	Dir []byte `json:"dir,omitempty"`
}

// WireSize returns the message's modelled size in bytes, per §V-E. Directory
// digests are modelled at their real encoded length on top of the base size.
func (m Message) WireSize() int {
	base := wireSizeLarge
	switch m.Type {
	case MsgAccept, MsgNotify, MsgCancel, MsgAssignAck, MsgPing, MsgPong, MsgBusy, MsgConflict:
		base = wireSizeSmall
	}
	return base + len(m.Dir)
}

// Validate reports the first structural problem with the message.
func (m Message) Validate() error {
	if !m.Type.Valid() {
		return fmt.Errorf("invalid message type %d", int(m.Type))
	}
	// Membership probes carry no job (the wire layout has no room for one);
	// every protocol message does.
	if m.Type == MsgPing || m.Type == MsgPong {
		if m.Job != (job.Profile{}) {
			return fmt.Errorf("%s message carries a job", m.Type)
		}
	} else if err := m.Job.Validate(); err != nil {
		return fmt.Errorf("%s message: %w", m.Type, err)
	}
	if m.Hop < 0 {
		return fmt.Errorf("%s message with negative hop count %d", m.Type, m.Hop)
	}
	// A NaN or infinite cost orders against nothing; refusing it here keeps
	// it off the wire (senders validate before queuing a frame).
	if c := float64(m.Cost); math.IsNaN(c) || math.IsInf(c, 0) {
		return fmt.Errorf("%s message with non-finite cost %v", m.Type, c)
	}
	switch m.Type {
	case MsgRequest, MsgInform:
		if m.TTL < 0 || m.Fanout < 1 {
			return fmt.Errorf("%s message with ttl %d fanout %d", m.Type, m.TTL, m.Fanout)
		}
	case MsgNotify:
		if m.Notify < NotifyQueued || m.Notify > NotifyConfirm {
			return fmt.Errorf("NOTIFY message with kind %d", int(m.Notify))
		}
	case MsgBusy:
		if m.Re != MsgRequest && m.Re != MsgAssign {
			return fmt.Errorf("BUSY message re %d must name a REQUEST or ASSIGN", int(m.Re))
		}
	case MsgConflict:
		if m.Conflict < ConflictBusy || m.Conflict > ConflictLost {
			return fmt.Errorf("CONFLICT message with kind %d", int(m.Conflict))
		}
	}
	return nil
}

// floodKey identifies one flood wave for duplicate suppression.
type floodKey struct {
	uuid   job.UUID
	typ    MsgType
	origin overlay.NodeID
	seq    uint64
}

func (m Message) floodKey() floodKey {
	return floodKey{uuid: m.Job.UUID, typ: m.Type, origin: m.From, seq: m.Seq}
}

// floodFP collapses the flood key to a 64-bit fingerprint for the seenSet
// dedup store: FNV-1a over the UUID, then the scalar fields folded in
// through the SplitMix64 mixer. Deterministic across runs (unlike Go map
// hashing) and never zero — zero is the set's empty-slot sentinel.
func (m Message) floodFP() uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(m.Job.UUID); i++ {
		h ^= uint64(m.Job.UUID[i])
		h *= 1099511628211
	}
	h = mixFP(h ^ uint64(uint32(m.From)) ^ uint64(m.Type)<<32)
	h = mixFP(h ^ m.Seq)
	if h == 0 {
		h = 1
	}
	return h
}
