package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/smartgrid/aria/internal/core"
)

// maxWireMessage bounds inbound frames; real ARiA messages are well under
// 200 bytes, so this is generous while still refusing hostile frames.
const maxWireMessage = 1 << 20

// wireHeaderSize is the frame header: a 4-byte big-endian payload length
// followed by a 4-byte big-endian CRC-32 (IEEE) of the payload. The CRC is
// what lets a receiver reject wire corruption deterministically instead of
// feeding mangled bytes to the payload decoder and hoping it chokes.
const wireHeaderSize = 8

// frameBufferSize is what a frame reader holds per connection (a process
// hosting a thousand inbound connections pays it a thousand times). Frames
// are tens of bytes, so one read(2) into it returns every frame that
// arrived since the last wake-up; a frame that does not fit borrows a
// buffer of its own for as long as it takes to decode.
const frameBufferSize = 4 << 10

// frameReadTimeout bounds how long the remainder of a frame may trail its
// first byte. Senders write a frame in one piece, so on a healthy link the
// gap is microseconds; after wire damage the gap is the failure itself — a
// corrupted length prefix that stays under the size bound leaves the reader
// blocked mid-payload, silently swallowing every later frame on the
// connection into the phantom read. On a low-traffic link that is an
// unbounded one-way blackhole (observed live: ~10 s of lost NOTIFYs minted
// duplicate executions). The deadline turns the stall into a closed
// connection, which the sender's redial-and-retransmit layers recover from
// in milliseconds. Var, not const, so tests can shorten it.
var frameReadTimeout = 5 * time.Second

// readDeadliner is the optional deadline hook on the reader (net.Conn
// implements it); plain readers — buffers, files, fuzz inputs — read
// without one.
type readDeadliner interface{ SetReadDeadline(time.Time) error }

// Typed frame-rejection errors. Callers (and tests) can distinguish a
// hostile or corrupted length prefix from payload damage with errors.Is.
var (
	// ErrFrameOversize means the length prefix exceeds maxWireMessage (or
	// is zero). It is returned before any payload allocation, so a
	// corrupted or hostile prefix can never trigger a huge make().
	ErrFrameOversize = errors.New("frame length outside limits")

	// ErrFrameChecksum means the payload did not match the header CRC —
	// bytes were corrupted in flight.
	ErrFrameChecksum = errors.New("frame checksum mismatch")

	// ErrFrameEncoding means the payload passed the CRC but is not a
	// version-1 binary message: a missing or foreign version byte (a peer
	// still speaking the JSON wire), a truncated field, an unknown mask
	// bit or trailing bytes.
	ErrFrameEncoding = errors.New("frame payload not decodable")

	// ErrFrameInvalid means the payload decoded but fails structural
	// message validation.
	ErrFrameInvalid = errors.New("frame message invalid")

	// ErrMessageInvalid means the sender refused to frame a message that
	// fails validation (or would exceed the frame limit). It is a local
	// error: nothing was written, and the peer is not at fault.
	ErrMessageInvalid = errors.New("message not sendable")
)

// wireRejects counts rejected inbound frames by reason, process-wide. The
// daemon surfaces them via expvar (aria.wire) so a soak can prove corrupted
// frames were both injected and cleanly refused.
var wireRejects struct {
	oversize atomic.Uint64
	checksum atomic.Uint64
	encoding atomic.Uint64
	invalid  atomic.Uint64
}

// WireRejects snapshots the process-wide frame-rejection counters.
func WireRejects() map[string]uint64 {
	return map[string]uint64{
		"oversize": wireRejects.oversize.Load(),
		"checksum": wireRejects.checksum.Load(),
		"encoding": wireRejects.encoding.Load(),
		"invalid":  wireRejects.invalid.Load(),
	}
}

// appendFrame appends m framed — length, CRC-32, binary payload — to b. A
// message that fails validation is refused with ErrMessageInvalid and b
// comes back unchanged.
func appendFrame(b []byte, m *core.Message) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return b, fmt.Errorf("%w: %v", ErrMessageInvalid, err)
	}
	start := len(b)
	b = append(b, make([]byte, wireHeaderSize)...)
	b = appendPayload(b, m)
	payload := b[start+wireHeaderSize:]
	if len(payload) > maxWireMessage {
		return b[:start], fmt.Errorf("%w: %d bytes exceed the frame limit", ErrMessageInvalid, len(payload))
	}
	binary.BigEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(b[start+4:], crc32.ChecksumIEEE(payload))
	return b, nil
}

// frameBuffers recycles encode buffers (WriteMessage, the per-peer send
// queues) and frame readers' scratch between uses, so a steady flow of
// frames allocates nothing.
var frameBuffers = sync.Pool{New: func() any {
	b := make([]byte, 0, frameBufferSize)
	return &b
}}

// WriteMessage frames m — a 4-byte big-endian length, a 4-byte CRC-32
// (IEEE) of the payload, then the binary payload — and hands the frame to
// w in a single Write.
func WriteMessage(w io.Writer, m core.Message) error {
	bp := frameBuffers.Get().(*[]byte)
	defer frameBuffers.Put(bp)
	b, err := appendFrame((*bp)[:0], &m)
	if err != nil {
		return err
	}
	*bp = b
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("write frame: %w", err)
	}
	return nil
}

// ReadMessage reads exactly one framed message from r — never a byte of the
// frame behind it, so callers may hold r across calls — verifies its
// checksum, and validates it structurally. Every rejection returns a typed
// error (see ErrFrame*) and bumps the matching WireRejects counter; the
// length bound is enforced before the payload buffer is allocated, so a
// corrupted length prefix costs nothing.
func ReadMessage(r io.Reader) (core.Message, error) {
	bp := frameBuffers.Get().(*[]byte)
	defer frameBuffers.Put(bp)
	fr := frameReader{src: r, buf: (*bp)[:cap(*bp)], exact: true}
	fr.dl, _ = r.(readDeadliner)
	defer fr.disarm() // a frame that failed half-read leaves its deadline behind
	return fr.next()
}

// frameReader pulls frames off one connection through a fixed buffer: each
// read(2) takes whatever has arrived, and frames are decoded in place.
type frameReader struct {
	src io.Reader
	dl  readDeadliner // nil when src has no deadlines
	buf []byte
	r   int // buf[r:w] is read but not yet decoded
	w   int

	// exact limits each read to the frame being assembled (ReadMessage's
	// contract); off, reads fill the buffer.
	exact bool

	// armed: a frameReadTimeout deadline is set on the source, for the
	// frame being assembled.
	armed bool
}

func newFrameReader(src io.Reader) *frameReader {
	fr := &frameReader{src: src, buf: make([]byte, frameBufferSize)}
	fr.dl, _ = src.(readDeadliner)
	return fr
}

// next returns the next frame's message. io.EOF passes through bare when the
// stream ends between frames, for clean shutdown.
func (fr *frameReader) next() (core.Message, error) {
	if err := fr.fill(wireHeaderSize); err != nil {
		return core.Message{}, err
	}
	header := fr.buf[fr.r : fr.r+wireHeaderSize]
	size := binary.BigEndian.Uint32(header[0:4])
	sum := binary.BigEndian.Uint32(header[4:8])
	if size == 0 || size > maxWireMessage {
		wireRejects.oversize.Add(1)
		return core.Message{}, fmt.Errorf("frame of %d bytes: %w", size, ErrFrameOversize)
	}
	total := wireHeaderSize + int(size)
	if total > len(fr.buf) {
		return fr.nextLarge(total, sum)
	}
	if err := fr.fill(total); err != nil {
		return core.Message{}, fmt.Errorf("read frame payload: %w", err)
	}
	payload := fr.buf[fr.r+wireHeaderSize : fr.r+total]
	fr.r += total
	fr.disarm()
	return openFrame(payload, sum)
}

// nextLarge assembles a frame that does not fit the fixed buffer in one of
// its own, dropped once decoded.
func (fr *frameReader) nextLarge(total int, sum uint32) (core.Message, error) {
	big := make([]byte, total)
	n := copy(big, fr.buf[fr.r:fr.w])
	fr.r, fr.w = 0, 0
	fr.arm()
	if _, err := io.ReadFull(fr.src, big[n:]); err != nil {
		return core.Message{}, fmt.Errorf("read frame payload: %w", err)
	}
	fr.disarm()
	return openFrame(big[wireHeaderSize:], sum)
}

// fill blocks until need bytes of the current frame are buffered. It waits
// without a deadline only while the link is idle between frames: from a
// frame's first byte the rest must arrive within frameReadTimeout or the
// stream is presumed desynced.
func (fr *frameReader) fill(need int) error {
	for fr.w-fr.r < need {
		if fr.r == fr.w {
			fr.r, fr.w = 0, 0
		} else {
			if fr.r+need > len(fr.buf) {
				fr.w = copy(fr.buf, fr.buf[fr.r:fr.w])
				fr.r = 0
			}
			fr.arm()
		}
		limit := len(fr.buf)
		if fr.exact {
			limit = fr.r + need
		}
		n, err := fr.src.Read(fr.buf[fr.w:limit])
		fr.w += n
		if err != nil && fr.w-fr.r < need {
			if err == io.EOF && fr.w > fr.r {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// arm gives the frame being assembled its deadline, once. Only a frame that
// arrives in pieces gets this far; whole frames cost no deadline at all.
func (fr *frameReader) arm() {
	if fr.dl != nil && !fr.armed {
		_ = fr.dl.SetReadDeadline(time.Now().Add(frameReadTimeout))
		fr.armed = true
	}
}

// disarm clears the deadline once its frame is complete, so the idle wait
// for the next one is unbounded.
func (fr *frameReader) disarm() {
	if fr.armed {
		_ = fr.dl.SetReadDeadline(time.Time{})
		fr.armed = false
	}
}

// openFrame checks a payload against its header CRC, decodes and validates
// it. The message shares no memory with payload.
func openFrame(payload []byte, sum uint32) (core.Message, error) {
	if crc32.ChecksumIEEE(payload) != sum {
		wireRejects.checksum.Add(1)
		return core.Message{}, ErrFrameChecksum
	}
	m, err := decodePayload(payload)
	if err != nil {
		wireRejects.encoding.Add(1)
		return core.Message{}, err
	}
	if err := m.Validate(); err != nil {
		wireRejects.invalid.Add(1)
		return core.Message{}, fmt.Errorf("%w: %v", ErrFrameInvalid, err)
	}
	return m, nil
}
