package transport

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/resource"
	"github.com/smartgrid/aria/internal/sched"
)

// wireVersion is the first payload byte. A payload that starts with anything
// else — a JSON frame from a pre-binary daemon starts with '{' — is refused
// as ErrFrameEncoding, which is how a mixed-version grid shows up.
const wireVersion = 1

// Payload layout (PROTOCOL.md §10): version byte, type byte, uvarint field
// mask, From, the job profile (every type but PING and PONG), then the
// masked fields in bit order. Signed integers and durations are zigzag
// varints, counters uvarints, Cost eight little-endian bytes, the UUID its 16
// raw bytes. A zero field costs one mask bit instead of a key and a value,
// so each message type pays only for the fields it sets.
const (
	hasCost uint64 = 1 << iota
	hasTTL
	hasFanout
	hasSeq
	hasVia
	hasHop
	hasSpan // bits 0-6: a flood REQUEST's mask is one byte
	hasNotify
	hasRe
	hasConflict
	hasInc
	hasPeers
	hasDir
	hasDeadline
	hasPriority
	hasKnownART
	hasEarliestStart
	maskLimit // first unassigned bit
)

// uuidBytes is the wire size of a job UUID: its 32 hex digits as raw bytes.
const uuidBytes = 16

// fieldMask names the fields of m that are not zero.
func fieldMask(m *core.Message) uint64 {
	var mask uint64
	set := func(cond bool, bit uint64) {
		if cond {
			mask |= bit
		}
	}
	set(m.Cost != 0, hasCost)
	set(m.TTL != 0, hasTTL)
	set(m.Fanout != 0, hasFanout)
	set(m.Seq != 0, hasSeq)
	set(m.Via != 0, hasVia)
	set(m.Hop != 0, hasHop)
	set(m.Span != 0, hasSpan)
	set(m.Notify != 0, hasNotify)
	set(m.Re != 0, hasRe)
	set(m.Conflict != 0, hasConflict)
	set(m.Inc != 0, hasInc)
	set(len(m.Peers) != 0, hasPeers)
	set(len(m.Dir) != 0, hasDir)
	set(m.Job.Deadline != 0, hasDeadline)
	set(m.Job.Priority != 0, hasPriority)
	set(m.Job.KnownART != 0, hasKnownART)
	set(m.Job.EarliestStart != 0, hasEarliestStart)
	return mask
}

// carriesJob reports whether messages of type t have a job profile on the
// wire: everything but the membership probes.
func carriesJob(t core.MsgType) bool {
	return t != core.MsgPing && t != core.MsgPong
}

// appendPayload appends the binary payload of m, which the caller has
// validated (so the UUID is 32 hex digits and a probe has no job).
func appendPayload(b []byte, m *core.Message) []byte {
	mask := fieldMask(m)
	b = append(b, wireVersion, byte(m.Type))
	b = binary.AppendUvarint(b, mask)
	b = binary.AppendVarint(b, int64(m.From))
	if carriesJob(m.Type) {
		p := &m.Job
		b = append(b, make([]byte, uuidBytes)...)
		// Validate vouched for the digits, so this cannot fail.
		_, _ = hex.Decode(b[len(b)-uuidBytes:], []byte(p.UUID))
		b = binary.AppendVarint(b, int64(p.Req.Arch))
		b = binary.AppendVarint(b, int64(p.Req.OS))
		b = binary.AppendVarint(b, int64(p.Req.MinMemoryGB))
		b = binary.AppendVarint(b, int64(p.Req.MinDiskGB))
		b = binary.AppendVarint(b, int64(p.ERT))
		b = binary.AppendVarint(b, int64(p.Class))
		b = binary.AppendVarint(b, int64(p.SubmittedAt))
	}
	if mask&hasCost != 0 {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(float64(m.Cost)))
	}
	if mask&hasTTL != 0 {
		b = binary.AppendVarint(b, int64(m.TTL))
	}
	if mask&hasFanout != 0 {
		b = binary.AppendVarint(b, int64(m.Fanout))
	}
	if mask&hasSeq != 0 {
		b = binary.AppendUvarint(b, m.Seq)
	}
	if mask&hasVia != 0 {
		b = binary.AppendVarint(b, int64(m.Via))
	}
	if mask&hasHop != 0 {
		b = binary.AppendVarint(b, int64(m.Hop))
	}
	if mask&hasSpan != 0 {
		b = binary.AppendUvarint(b, m.Span)
	}
	if mask&hasNotify != 0 {
		b = binary.AppendVarint(b, int64(m.Notify))
	}
	if mask&hasRe != 0 {
		b = binary.AppendVarint(b, int64(m.Re))
	}
	if mask&hasConflict != 0 {
		b = binary.AppendVarint(b, int64(m.Conflict))
	}
	if mask&hasInc != 0 {
		b = binary.AppendUvarint(b, m.Inc)
	}
	if mask&hasPeers != 0 {
		b = binary.AppendUvarint(b, uint64(len(m.Peers)))
		for _, id := range m.Peers {
			b = binary.AppendVarint(b, int64(id))
		}
	}
	if mask&hasDir != 0 {
		b = binary.AppendUvarint(b, uint64(len(m.Dir)))
		b = append(b, m.Dir...)
	}
	if mask&hasDeadline != 0 {
		b = binary.AppendVarint(b, int64(m.Job.Deadline))
	}
	if mask&hasPriority != 0 {
		b = binary.AppendVarint(b, int64(m.Job.Priority))
	}
	if mask&hasKnownART != 0 {
		b = binary.AppendVarint(b, int64(m.Job.KnownART))
	}
	if mask&hasEarliestStart != 0 {
		b = binary.AppendVarint(b, int64(m.Job.EarliestStart))
	}
	return b
}

// payloadReader consumes a payload front to back. The first malformed or
// truncated field sets bad and empties the input, so later reads return zero
// and decodePayload checks once at the end.
type payloadReader struct {
	b   []byte
	bad bool
}

func (r *payloadReader) fail() {
	r.b, r.bad = nil, true
}

func (r *payloadReader) take(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *payloadReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *payloadReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// int reads a signed field into the platform int, refusing what does not fit.
func (r *payloadReader) int() int {
	v := r.varint()
	if int64(int(v)) != v {
		r.fail()
	}
	return int(v)
}

func (r *payloadReader) nodeID() overlay.NodeID {
	v := r.varint()
	if v < math.MinInt32 || v > math.MaxInt32 {
		r.fail()
	}
	return overlay.NodeID(v)
}

func (r *payloadReader) duration() time.Duration { return time.Duration(r.varint()) }

// decodePayload parses a binary payload. The result shares no memory with
// payload, so the caller may reuse the buffer. It does not validate the
// message; every structural refusal is an ErrFrameEncoding.
func decodePayload(payload []byte) (core.Message, error) {
	if len(payload) < 2 || payload[0] != wireVersion {
		return core.Message{}, fmt.Errorf("%w: payload does not start with version byte %d", ErrFrameEncoding, wireVersion)
	}
	var m core.Message
	m.Type = core.MsgType(payload[1])
	r := payloadReader{b: payload[2:]}
	mask := r.uvarint()
	if mask >= maskLimit {
		return core.Message{}, fmt.Errorf("%w: unknown field mask bits %#x", ErrFrameEncoding, mask)
	}
	m.From = r.nodeID()
	if carriesJob(m.Type) {
		p := &m.Job
		if raw := r.take(uuidBytes); raw != nil {
			var digits [2 * uuidBytes]byte
			hex.Encode(digits[:], raw)
			p.UUID = job.UUID(digits[:])
		}
		p.Req.Arch = resource.Architecture(r.int())
		p.Req.OS = resource.OS(r.int())
		p.Req.MinMemoryGB = r.int()
		p.Req.MinDiskGB = r.int()
		p.ERT = r.duration()
		p.Class = job.Class(r.int())
		p.SubmittedAt = r.duration()
	}
	if mask&hasCost != 0 {
		if raw := r.take(8); raw != nil {
			m.Cost = sched.Cost(math.Float64frombits(binary.LittleEndian.Uint64(raw)))
		}
	}
	if mask&hasTTL != 0 {
		m.TTL = r.int()
	}
	if mask&hasFanout != 0 {
		m.Fanout = r.int()
	}
	if mask&hasSeq != 0 {
		m.Seq = r.uvarint()
	}
	if mask&hasVia != 0 {
		m.Via = r.nodeID()
	}
	if mask&hasHop != 0 {
		m.Hop = r.int()
	}
	if mask&hasSpan != 0 {
		m.Span = r.uvarint()
	}
	if mask&hasNotify != 0 {
		m.Notify = core.NotifyKind(r.int())
	}
	if mask&hasRe != 0 {
		m.Re = core.MsgType(r.int())
	}
	if mask&hasConflict != 0 {
		m.Conflict = core.ConflictKind(r.int())
	}
	if mask&hasInc != 0 {
		m.Inc = r.uvarint()
	}
	if mask&hasPeers != 0 {
		// Every ID takes at least one byte, so a count beyond what is left
		// is refused before anything is allocated for it.
		if n := r.uvarint(); n > uint64(len(r.b)) {
			r.fail()
		} else if n > 0 {
			m.Peers = make([]overlay.NodeID, n)
			for i := range m.Peers {
				m.Peers[i] = r.nodeID()
			}
		}
	}
	if mask&hasDir != 0 {
		if raw := r.take(r.uvarint()); len(raw) > 0 {
			m.Dir = append([]byte(nil), raw...)
		}
	}
	if mask&hasDeadline != 0 {
		m.Job.Deadline = r.duration()
	}
	if mask&hasPriority != 0 {
		m.Job.Priority = r.int()
	}
	if mask&hasKnownART != 0 {
		m.Job.KnownART = r.duration()
	}
	if mask&hasEarliestStart != 0 {
		m.Job.EarliestStart = r.duration()
	}
	switch {
	case r.bad:
		return core.Message{}, fmt.Errorf("%w: truncated or malformed field", ErrFrameEncoding)
	case len(r.b) != 0:
		return core.Message{}, fmt.Errorf("%w: %d trailing bytes", ErrFrameEncoding, len(r.b))
	}
	return m, nil
}
