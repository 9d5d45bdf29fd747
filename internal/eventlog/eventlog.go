// Package eventlog records job lifecycle events as JSON Lines, one event
// per line, and reads them back. It is the durable audit format of live
// deployments (cmd/ariad -events) and a convenient analysis export for
// simulations.
package eventlog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/sched"
)

// Kind enumerates loggable events.
type Kind string

// Event kinds.
const (
	KindSubmitted   Kind = "submitted"
	KindAssigned    Kind = "assigned"
	KindRescheduled Kind = "rescheduled"
	KindStarted     Kind = "started"
	KindCompleted   Kind = "completed"
	KindFailed      Kind = "failed"

	// KindSpan carries one causal trace-plane event (trace extension);
	// Span names the protocol step (core.SpanKind).
	KindSpan Kind = "span"
)

// Event is one logged lifecycle event.
type Event struct {
	Kind Kind     `json:"kind"`
	At   float64  `json:"atSec"` // seconds since deployment start
	UUID job.UUID `json:"uuid"`

	Node overlay.NodeID `json:"node,omitempty"` // acting node
	From overlay.NodeID `json:"from,omitempty"` // assignment source
	To   overlay.NodeID `json:"to,omitempty"`   // assignment target

	Cost    float64 `json:"cost,omitempty"`    // winning offer (assigned)
	WaitSec float64 `json:"waitSec,omitempty"` // completed
	ExecSec float64 `json:"execSec,omitempty"` // completed
	Reason  string  `json:"reason,omitempty"`  // failed; conflict verdict (span)

	// Trace-plane fields (kind "span" only).
	Span    core.SpanKind  `json:"span,omitempty"`    // protocol step
	SpanID  uint64         `json:"spanId,omitempty"`  // event's span
	Parent  uint64         `json:"parent,omitempty"`  // causal parent span
	Msg     string         `json:"msg,omitempty"`     // flood message type
	Hop     int            `json:"hop,omitempty"`     // hops from wave origin
	TTL     int            `json:"ttlLeft,omitempty"` // remaining hop budget
	Fanout  int            `json:"fanout,omitempty"`  // neighbors contacted
	Seq     uint64         `json:"seq,omitempty"`     // flood wave sequence
	Origin  overlay.NodeID `json:"origin,omitempty"`  // flood wave origin
	Peer    overlay.NodeID `json:"peer,omitempty"`    // counterpart node
	OldCost float64        `json:"oldCost,omitempty"` // pre-reschedule cost
	Attempt int            `json:"attempt,omitempty"` // retry counter
}

// Writer is a core.Observer that appends one JSON line per lifecycle and
// span event; plane events fall through to the embedded NopObserver. It is
// safe for concurrent use; write errors are recorded and reported by Err.
type Writer struct {
	core.NopObserver

	mu  sync.Mutex
	w   *bufio.Writer
	enc *json.Encoder
	err error
}

var _ core.Observer = (*Writer)(nil)

// NewWriter wraps w. Call Flush when done.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{w: bw, enc: json.NewEncoder(bw)}
}

// Flush drains buffered events and returns the first error seen.
func (l *Writer) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil && l.err == nil {
		l.err = err
	}
	return l.err
}

// Err reports the first write error, if any.
func (l *Writer) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

func (l *Writer) emit(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	if err := l.enc.Encode(e); err != nil {
		l.err = err
		return
	}
	// Line-buffered: an audit log must survive a crash of the process
	// writing it, so every event reaches the sink immediately.
	if err := l.w.Flush(); err != nil {
		l.err = err
	}
}

// JobSubmitted implements core.Observer.
func (l *Writer) JobSubmitted(at time.Duration, initiator overlay.NodeID, p job.Profile) {
	l.emit(Event{Kind: KindSubmitted, At: at.Seconds(), UUID: p.UUID, Node: initiator})
}

// JobAssigned implements core.Observer.
func (l *Writer) JobAssigned(at time.Duration, uuid job.UUID, from, to overlay.NodeID, cost sched.Cost, rescheduled bool) {
	kind := KindAssigned
	if rescheduled {
		kind = KindRescheduled
	}
	l.emit(Event{Kind: kind, At: at.Seconds(), UUID: uuid, From: from, To: to, Cost: float64(cost)})
}

// JobStarted implements core.Observer.
func (l *Writer) JobStarted(at time.Duration, node overlay.NodeID, uuid job.UUID) {
	l.emit(Event{Kind: KindStarted, At: at.Seconds(), UUID: uuid, Node: node})
}

// JobCompleted implements core.Observer.
func (l *Writer) JobCompleted(at time.Duration, node overlay.NodeID, j *job.Job) {
	l.emit(Event{
		Kind: KindCompleted, At: at.Seconds(), UUID: j.UUID, Node: node,
		WaitSec: j.WaitingTime().Seconds(), ExecSec: j.ExecutionTime().Seconds(),
	})
}

// JobFailed implements core.Observer.
func (l *Writer) JobFailed(at time.Duration, initiator overlay.NodeID, uuid job.UUID, reason string) {
	l.emit(Event{Kind: KindFailed, At: at.Seconds(), UUID: uuid, Node: initiator, Reason: reason})
}

// TraceSpan implements core.TraceObserver, streaming trace-plane events
// into the same JSONL log as the lifecycle events.
func (l *Writer) TraceSpan(ev core.TraceEvent) {
	l.emit(Event{
		Kind: KindSpan, At: ev.At.Seconds(), UUID: ev.UUID, Node: ev.Node,
		Span: ev.Kind, SpanID: ev.Span, Parent: ev.Parent,
		Msg: msgName(ev.Msg), Hop: ev.Hop, TTL: ev.TTL, Fanout: ev.Fanout,
		Seq: ev.Seq, Origin: ev.Origin, Peer: ev.Peer,
		Cost: float64(ev.Cost), OldCost: float64(ev.OldCost), Attempt: ev.Attempt,
		Reason: ev.Reason,
	})
}

// msgName renders a message type, leaving the zero value empty so the JSON
// field is omitted for non-flood spans.
func msgName(t core.MsgType) string {
	if t == 0 {
		return ""
	}
	return t.String()
}

// TraceEvent converts a logged span event back into the engine's form, for
// feeding a parsed log to trace.Check or trace.Forest. Returns false for
// non-span events.
func (e Event) TraceEvent() (core.TraceEvent, bool) {
	if e.Kind != KindSpan {
		return core.TraceEvent{}, false
	}
	return core.TraceEvent{
		At:   time.Duration(e.At * float64(time.Second)),
		Node: e.Node, Kind: e.Span, UUID: e.UUID,
		Span: e.SpanID, Parent: e.Parent,
		Msg: msgType(e.Msg), Hop: e.Hop, TTL: e.TTL, Fanout: e.Fanout,
		Seq: e.Seq, Origin: e.Origin, Peer: e.Peer,
		Cost: sched.Cost(e.Cost), OldCost: sched.Cost(e.OldCost), Attempt: e.Attempt,
		Reason: e.Reason,
	}, true
}

// msgType parses the wire name written by msgName.
func msgType(s string) core.MsgType {
	for t := core.MsgRequest; t.Valid(); t++ {
		if t.String() == s {
			return t
		}
	}
	return 0
}

// Read parses a JSONL event stream, preserving order.
func Read(r io.Reader) ([]Event, error) {
	var out []Event
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := scanner.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("eventlog line %d: %w", lineNo, err)
		}
		out = append(out, e)
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("eventlog read: %w", err)
	}
	return out, nil
}

// Tee fans events out to several observers. Every member implements all of
// core.Observer, so each method forwards unconditionally; only TraceSpan
// filters, because tracing is the one opt-in extension.
type Tee []core.Observer

var _ core.Observer = Tee{}

// JobSubmitted implements core.Observer.
func (t Tee) JobSubmitted(at time.Duration, initiator overlay.NodeID, p job.Profile) {
	for _, o := range t {
		o.JobSubmitted(at, initiator, p)
	}
}

// JobAssigned implements core.Observer.
func (t Tee) JobAssigned(at time.Duration, uuid job.UUID, from, to overlay.NodeID, cost sched.Cost, rescheduled bool) {
	for _, o := range t {
		o.JobAssigned(at, uuid, from, to, cost, rescheduled)
	}
}

// JobStarted implements core.Observer.
func (t Tee) JobStarted(at time.Duration, node overlay.NodeID, uuid job.UUID) {
	for _, o := range t {
		o.JobStarted(at, node, uuid)
	}
}

// JobCompleted implements core.Observer.
func (t Tee) JobCompleted(at time.Duration, node overlay.NodeID, j *job.Job) {
	for _, o := range t {
		o.JobCompleted(at, node, j)
	}
}

// JobFailed implements core.Observer.
func (t Tee) JobFailed(at time.Duration, initiator overlay.NodeID, uuid job.UUID, reason string) {
	for _, o := range t {
		o.JobFailed(at, initiator, uuid, reason)
	}
}

// TraceSpan implements core.TraceObserver, forwarding to the members that
// implement it. The Tee always advertises the extension; members that do
// not trace simply never see span events.
func (t Tee) TraceSpan(ev core.TraceEvent) {
	for _, o := range t {
		if tobs, ok := o.(core.TraceObserver); ok {
			tobs.TraceSpan(ev)
		}
	}
}

// AssignRetried implements core.DeliveryObserver.
func (t Tee) AssignRetried(at time.Duration, node overlay.NodeID, uuid job.UUID, attempt int) {
	for _, o := range t {
		o.AssignRetried(at, node, uuid, attempt)
	}
}

// AssignRecovered implements core.DeliveryObserver.
func (t Tee) AssignRecovered(at time.Duration, node overlay.NodeID, uuid job.UUID) {
	for _, o := range t {
		o.AssignRecovered(at, node, uuid)
	}
}

// PeerSuspected implements core.MembershipObserver.
func (t Tee) PeerSuspected(at time.Duration, node, peer overlay.NodeID) {
	for _, o := range t {
		o.PeerSuspected(at, node, peer)
	}
}

// PeerRefuted implements core.MembershipObserver.
func (t Tee) PeerRefuted(at time.Duration, node, peer overlay.NodeID) {
	for _, o := range t {
		o.PeerRefuted(at, node, peer)
	}
}

// PeerDead implements core.MembershipObserver.
func (t Tee) PeerDead(at time.Duration, node, peer overlay.NodeID) {
	for _, o := range t {
		o.PeerDead(at, node, peer)
	}
}

// LinkRepaired implements core.MembershipObserver.
func (t Tee) LinkRepaired(at time.Duration, node, dead, replacement overlay.NodeID) {
	for _, o := range t {
		o.LinkRepaired(at, node, dead, replacement)
	}
}

// FloodEscalated implements core.MembershipObserver.
func (t Tee) FloodEscalated(at time.Duration, node overlay.NodeID, uuid job.UUID, attempt, ttl int) {
	for _, o := range t {
		o.FloodEscalated(at, node, uuid, attempt, ttl)
	}
}

// NodeRecovered implements core.RecoveryObserver.
func (t Tee) NodeRecovered(at time.Duration, node overlay.NodeID, jobsRecovered, replayRecords int, snapshotAge time.Duration) {
	for _, o := range t {
		o.NodeRecovered(at, node, jobsRecovered, replayRecords, snapshotAge)
	}
}

// DirectoryHit implements core.DirectoryObserver.
func (t Tee) DirectoryHit(at time.Duration, node overlay.NodeID, uuid job.UUID, probes int) {
	for _, o := range t {
		o.DirectoryHit(at, node, uuid, probes)
	}
}

// DirectoryMiss implements core.DirectoryObserver.
func (t Tee) DirectoryMiss(at time.Duration, node overlay.NodeID, uuid job.UUID) {
	for _, o := range t {
		o.DirectoryMiss(at, node, uuid)
	}
}

// DirectoryFallback implements core.DirectoryObserver.
func (t Tee) DirectoryFallback(at time.Duration, node overlay.NodeID, uuid job.UUID, offers int) {
	for _, o := range t {
		o.DirectoryFallback(at, node, uuid, offers)
	}
}

// DirectoryEvicted implements core.DirectoryObserver.
func (t Tee) DirectoryEvicted(at time.Duration, node, subject overlay.NodeID, reason string) {
	for _, o := range t {
		o.DirectoryEvicted(at, node, subject, reason)
	}
}

// CommitSent implements core.SharedStateObserver.
func (t Tee) CommitSent(at time.Duration, node overlay.NodeID, uuid job.UUID, target overlay.NodeID, attempt int) {
	for _, o := range t {
		o.CommitSent(at, node, uuid, target, attempt)
	}
}

// CommitConflict implements core.SharedStateObserver.
func (t Tee) CommitConflict(at time.Duration, node overlay.NodeID, uuid job.UUID, target overlay.NodeID, reason string, attempt int) {
	for _, o := range t {
		o.CommitConflict(at, node, uuid, target, reason, attempt)
	}
}

// CommitGranted implements core.SharedStateObserver.
func (t Tee) CommitGranted(at time.Duration, node overlay.NodeID, uuid job.UUID, target overlay.NodeID, attempts int) {
	for _, o := range t {
		o.CommitGranted(at, node, uuid, target, attempts)
	}
}

// CommitFallback implements core.SharedStateObserver.
func (t Tee) CommitFallback(at time.Duration, node overlay.NodeID, uuid job.UUID, attempts int) {
	for _, o := range t {
		o.CommitFallback(at, node, uuid, attempts)
	}
}

// RequestShed implements core.OverloadObserver.
func (t Tee) RequestShed(at time.Duration, node overlay.NodeID, uuid job.UUID, depth int) {
	for _, o := range t {
		o.RequestShed(at, node, uuid, depth)
	}
}

// AssignShed implements core.OverloadObserver.
func (t Tee) AssignShed(at time.Duration, node overlay.NodeID, uuid job.UUID, depth int) {
	for _, o := range t {
		o.AssignShed(at, node, uuid, depth)
	}
}

// ShedRedispatched implements core.OverloadObserver.
func (t Tee) ShedRedispatched(at time.Duration, node overlay.NodeID, uuid job.UUID, reflooded bool) {
	for _, o := range t {
		o.ShedRedispatched(at, node, uuid, reflooded)
	}
}

// PeerBusy implements core.OverloadObserver.
func (t Tee) PeerBusy(at time.Duration, node, peer overlay.NodeID) {
	for _, o := range t {
		o.PeerBusy(at, node, peer)
	}
}

// SubmitRejected implements core.OverloadObserver.
func (t Tee) SubmitRejected(at time.Duration, node overlay.NodeID, uuid job.UUID, pending int) {
	for _, o := range t {
		o.SubmitRejected(at, node, uuid, pending)
	}
}
