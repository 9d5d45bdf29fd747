package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
)

// frame wraps payload in the codec's length + CRC-32 header.
func frame(payload []byte) []byte {
	var header [wireHeaderSize]byte
	binary.BigEndian.PutUint32(header[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(header[4:8], crc32.ChecksumIEEE(payload))
	return append(header[:], payload...)
}

// encodeJSON and decodeJSON are the wire's previous payload format, kept as
// the reference the binary layout is checked against: whatever survives a
// trip through them must survive the binary trip identically.
func encodeJSON(m core.Message) ([]byte, error) { return json.Marshal(m) }

func decodeJSON(payload []byte) (core.Message, error) {
	// json.Unmarshal silently repairs invalid UTF-8, which would let
	// damaged bytes decode into a mangled message.
	if !utf8.Valid(payload) {
		return core.Message{}, errors.New("payload is not valid UTF-8")
	}
	var m core.Message
	err := json.Unmarshal(payload, &m)
	return m, err
}

// mustFrame frames a message the test knows to be valid.
func mustFrame(tb testing.TB, m core.Message) []byte {
	tb.Helper()
	b, err := appendFrame(nil, &m)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// sampleMessages is one valid message of each of the twelve types, carrying
// the fields the protocol sets on that type.
func sampleMessages(rng *rand.Rand) []core.Message {
	p := liveJob(rng, 90*time.Minute)
	p.SubmittedAt = 42 * time.Second
	dl := liveJob(rng, time.Hour)
	dl.Class, dl.Deadline = job.ClassDeadline, 3*time.Hour
	dl.Priority, dl.KnownART, dl.EarliestStart = -2, 61*time.Minute, 10*time.Minute
	dir := []byte{0xff, 0x00, '{', 0x80, 0xfe, 7}
	peers := []overlay.NodeID{1, 2, 4, 1 << 20}
	return []core.Message{
		{Type: core.MsgRequest, From: 3, Job: p, TTL: 8, Fanout: 4, Seq: 17, Via: 5, Hop: 2, Span: 3<<32 | 9},
		{Type: core.MsgAccept, From: 9, Job: p, Cost: 1234.5, Span: 9<<32 | 1, Dir: dir},
		{Type: core.MsgInform, From: 9, Job: dl, Cost: -0.25, TTL: 7, Fanout: 2, Seq: 99, Via: 9, Hop: 1, Dir: dir},
		{Type: core.MsgAssign, From: 3, Job: dl, Via: 3, Span: 1},
		{Type: core.MsgNotify, From: 4, Job: p, Notify: core.NotifyCompleted},
		{Type: core.MsgCancel, From: 3, Job: p},
		{Type: core.MsgAssignAck, From: 4, Job: p, Span: 7},
		{Type: core.MsgPing, From: 3, Seq: 5, Peers: peers, Dir: dir},
		{Type: core.MsgPong, From: 1 << 30, Seq: 1 << 40, Peers: peers[:1]},
		{Type: core.MsgBusy, From: 4, Job: p, Re: core.MsgAssign},
		{Type: core.MsgCommit, From: 3, Job: p, Inc: 1 << 50, Span: 5 << 33},
		{Type: core.MsgConflict, From: 4, Job: p, Conflict: core.ConflictLost},
	}
}

// malformedPayloads are binary payloads the decoder must refuse as
// ErrFrameEncoding, built from a valid PING and a valid REQUEST.
func malformedPayloads(tb testing.TB) map[string][]byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(47))
	msgs := sampleMessages(rng)
	request := mustFrame(tb, msgs[0])[wireHeaderSize:]
	ping := mustFrame(tb, core.Message{Type: core.MsgPing, From: 3})[wireHeaderSize:]
	withMask := func(mask uint64, tail ...byte) []byte {
		b := append([]byte{wireVersion, byte(core.MsgPing)}, binary.AppendUvarint(nil, mask)...)
		b = binary.AppendVarint(b, 3) // From
		return append(b, tail...)
	}
	jsonPayload, err := encodeJSON(msgs[0])
	if err != nil {
		tb.Fatal(err)
	}
	return map[string][]byte{
		"json payload":        jsonPayload,
		"bad version byte":    append([]byte{wireVersion + 1}, request[1:]...),
		"version byte only":   {wireVersion},
		"truncated uuid":      request[:10],
		"truncated field":     request[:len(request)-1],
		"trailing bytes":      append(append([]byte(nil), ping...), 0),
		"unknown mask bit":    withMask(maskLimit),
		"oversized peers":     withMask(hasPeers, 0xff, 0xff, 0x03, 1, 2),
		"oversized dir":       withMask(hasDir, 0xff, 0xff, 0xff, 0x7f, 1, 2),
		"unterminated varint": withMask(hasSeq, 0x80, 0x80),
		"node id past int32":  withMask(hasVia, binary.AppendVarint(nil, 1<<40)...),
	}
}

// negativeHopPing is a payload the layout reads but Validate refuses: a PING
// from node 1 with hop count -1.
var negativeHopPing = []byte{wireVersion, byte(core.MsgPing), byte(hasHop), 2, 1}

// FuzzReadMessage drives the wire codec with arbitrary frames: whatever the
// bytes, ReadMessage must either return a structurally valid message or an
// error — never a half-decoded message, a panic, or an unbounded allocation.
func FuzzReadMessage(f *testing.F) {
	rng := rand.New(rand.NewSource(42))
	for _, m := range sampleMessages(rng) {
		f.Add(mustFrame(f, m))
	}
	good := mustFrame(f, core.Message{Type: core.MsgAssign, From: 7, Job: liveJob(rng, 1000), Via: 3})
	// Truncated frame: the header promises more bytes than follow.
	f.Add(good[:len(good)-5])
	// Oversized length prefix beyond maxWireMessage.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, wireVersion, 4})
	// Zero-length frame.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	// Correct length, wrong checksum.
	f.Add([]byte{0, 0, 0, 2, 0xde, 0xad, 0xbe, 0xef, wireVersion, 4})
	// Well-framed payloads the layout refuses.
	for _, payload := range malformedPayloads(f) {
		f.Add(frame(payload))
	}
	// A well-formed payload that fails message validation.
	f.Add(frame(negativeHopPing))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Success implies structural validity and a round-trippable value.
		if verr := m.Validate(); verr != nil {
			t.Fatalf("ReadMessage returned invalid message %+v: %v", m, verr)
		}
		var buf bytes.Buffer
		if werr := WriteMessage(&buf, m); werr != nil {
			t.Fatalf("decoded message does not re-encode: %v", werr)
		}
	})
}

// FuzzCodecDifferential holds the binary layout to the JSON reference: for
// every message Validate accepts, decodeBinary(encodeBinary(m)) equals
// decodeJSON(encodeJSON(m)). The input is read as a binary payload and as a
// JSON document, so the fuzzer can reach messages through either grammar.
func FuzzCodecDifferential(f *testing.F) {
	rng := rand.New(rand.NewSource(42))
	for _, m := range sampleMessages(rng) {
		f.Add(mustFrame(f, m)[wireHeaderSize:])
		doc, err := encodeJSON(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	for _, payload := range malformedPayloads(f) {
		f.Add(payload)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := decodePayload(data); err == nil {
			checkAgainstJSON(t, m)
		}
		if m, err := decodeJSON(data); err == nil {
			checkAgainstJSON(t, m)
		}
	})
}

func checkAgainstJSON(t *testing.T, m core.Message) {
	t.Helper()
	if m.Validate() != nil {
		return
	}
	doc, err := encodeJSON(m)
	if err != nil {
		t.Fatalf("reference refuses a valid message %+v: %v", m, err)
	}
	want, err := decodeJSON(doc)
	if err != nil {
		t.Fatalf("reference cannot read back %s: %v", doc, err)
	}
	got, err := decodePayload(mustFrame(t, m)[wireHeaderSize:])
	if err != nil {
		t.Fatalf("binary round trip of %+v: %v", m, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trips differ\n binary %+v\n json   %+v", got, want)
	}
}

// TestCodecEveryTypeRoundTrips is the differential check on the seed corpus
// itself, so a plain `go test` covers all twelve types.
func TestCodecEveryTypeRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	msgs := sampleMessages(rng)
	seen := make(map[core.MsgType]bool)
	for _, m := range msgs {
		seen[m.Type] = true
		checkAgainstJSON(t, m)
		got, err := ReadMessage(bytes.NewReader(mustFrame(t, m)))
		if err != nil || !reflect.DeepEqual(got, m) {
			t.Fatalf("%v frame round trip: %v\n give %+v\n got  %+v", m.Type, err, m, got)
		}
	}
	for typ := core.MsgRequest; typ.Valid(); typ++ {
		if !seen[typ] {
			t.Errorf("no sample of %v", typ)
		}
	}
}

// TestReadMessageRejectsMalformedPayload pins the typed refusal of every
// well-framed payload the layout cannot read — among them a JSON payload,
// which is what a daemon from before the binary wire sends.
func TestReadMessageRejectsMalformedPayload(t *testing.T) {
	for name, payload := range malformedPayloads(t) {
		before := WireRejects()["encoding"]
		_, err := ReadMessage(bytes.NewReader(frame(payload)))
		if !errors.Is(err, ErrFrameEncoding) {
			t.Errorf("%s: got %v, want ErrFrameEncoding", name, err)
		}
		if after := WireRejects()["encoding"]; after != before+1 {
			t.Errorf("%s: encoding counter %d -> %d, want +1", name, before, after)
		}
	}
}

// TestReadMessageRejectsInvalidMessage pins the split between a payload that
// cannot be read (encoding) and one that reads into a bad message (invalid).
func TestReadMessageRejectsInvalidMessage(t *testing.T) {
	before := WireRejects()["invalid"]
	_, err := ReadMessage(bytes.NewReader(frame(negativeHopPing)))
	if !errors.Is(err, ErrFrameInvalid) {
		t.Fatalf("got %v, want ErrFrameInvalid", err)
	}
	if after := WireRejects()["invalid"]; after != before+1 {
		t.Fatalf("invalid counter %d -> %d, want +1", before, after)
	}
}

// TestWriteMessageRefusesInvalid: what the 16 raw UUID bytes cannot carry (a
// digit outside 0-9a-f) and what no receiver would accept never reach the
// writer, and the refusal is typed as local.
func TestWriteMessageRefusesInvalid(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	badUUID := core.Message{Type: core.MsgAssign, From: 1, Job: liveJob(rng, time.Hour)}
	badUUID.Job.UUID = job.UUID(strings.Repeat("0g", 16))
	for _, m := range []core.Message{badUUID, {Type: 99}, {Type: core.MsgPing, Hop: -1}} {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); !errors.Is(err, ErrMessageInvalid) {
			t.Errorf("WriteMessage(%+v) = %v, want ErrMessageInvalid", m, err)
		}
		if buf.Len() != 0 {
			t.Errorf("refused message still wrote %d bytes", buf.Len())
		}
	}
}

// TestCodecAllocationBudget pins what the layout bought: framing into a
// reused buffer allocates nothing, and a REQUEST decodes with two
// allocations at most (its UUID string is the one the layout cannot avoid).
func TestCodecAllocationBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	msgs := sampleMessages(rng)
	buf := make([]byte, 0, 1024)
	for _, m := range msgs {
		m := m
		if n := testing.AllocsPerRun(200, func() {
			var err error
			if buf, err = appendFrame(buf[:0], &m); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("framing %v into a reused buffer: %v allocs, want 0", m.Type, n)
		}
	}
	request := mustFrame(t, msgs[0])
	var r bytes.Reader
	if n := testing.AllocsPerRun(200, func() {
		r.Reset(request)
		if _, err := ReadMessage(&r); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("ReadMessage of a REQUEST: %v allocs, want at most 2", n)
	}
}

// TestReadMessageTruncatedFrame pins the short-read error path.
func TestReadMessageTruncatedFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	good := mustFrame(t, core.Message{Type: core.MsgAssign, From: 1, Job: liveJob(rng, 1000)})
	for cut := 1; cut < len(good); cut++ {
		if _, err := ReadMessage(bytes.NewReader(good[:len(good)-cut])); err == nil {
			t.Fatalf("ReadMessage accepted a frame truncated by %d bytes", cut)
		}
	}
}

// TestReadMessageHostileLengthPrefix pins the bounded-decode guarantee: a
// corrupted or hostile length prefix must return ErrFrameOversize before
// any payload allocation is attempted.
func TestReadMessageHostileLengthPrefix(t *testing.T) {
	hostile := [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, // 4 GiB claim
		{0x00, 0x10, 0x00, 0x01, 0, 0, 0, 0}, // just past the 1 MiB cap
		{0x00, 0x00, 0x00, 0x00, 0, 0, 0, 0}, // zero-length frame
	}
	for _, h := range hostile {
		before := WireRejects()["oversize"]
		_, err := ReadMessage(bytes.NewReader(h))
		if !errors.Is(err, ErrFrameOversize) {
			t.Fatalf("prefix %x: got %v, want ErrFrameOversize", h[:4], err)
		}
		if after := WireRejects()["oversize"]; after != before+1 {
			t.Fatalf("prefix %x: oversize counter %d -> %d, want +1", h[:4], before, after)
		}
	}
}

// TestReadMessageChecksumMismatch pins the CRC rejection path and its
// counter: flipping any payload byte must surface ErrFrameChecksum rather
// than reaching the payload decoder.
func TestReadMessageChecksumMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	good := mustFrame(t, core.Message{Type: core.MsgAssign, From: 1, Job: liveJob(rng, 1000)})
	for pos := wireHeaderSize; pos < len(good); pos += 7 {
		mut := append([]byte(nil), good...)
		mut[pos] ^= 0x01
		before := WireRejects()["checksum"]
		_, err := ReadMessage(bytes.NewReader(mut))
		if !errors.Is(err, ErrFrameChecksum) {
			t.Fatalf("flip at %d: got %v, want ErrFrameChecksum", pos, err)
		}
		if after := WireRejects()["checksum"]; after != before+1 {
			t.Fatalf("flip at %d: checksum counter did not advance", pos)
		}
	}
}

// FuzzFrameCorruption mutates single bytes of a valid frame — the exact
// damage the chaos fabric's Corrupt mode injects — and asserts the decoder
// never accepts it: a flip in the payload or CRC is always caught by the
// checksum (a one-byte error is within CRC-32's guaranteed burst
// detection), and a flip in the length prefix must error without a huge
// allocation or panic.
func FuzzFrameCorruption(f *testing.F) {
	rng := rand.New(rand.NewSource(46))
	goodBytes := mustFrame(f, sampleMessages(rng)[0])
	f.Add(uint32(0), byte(0x01))
	f.Add(uint32(4), byte(0xff))
	f.Add(uint32(wireHeaderSize), byte(0x80))   // the version byte
	f.Add(uint32(wireHeaderSize+2), byte(0x40)) // the field mask
	f.Add(uint32(wireHeaderSize+5), byte(0x0f)) // inside the UUID
	f.Add(uint32(len(goodBytes)-1), byte(0x20))

	f.Fuzz(func(t *testing.T, pos uint32, xor byte) {
		if xor == 0 {
			return // identity mutation: the frame stays valid by design
		}
		mut := append([]byte(nil), goodBytes...)
		idx := int(pos) % len(mut)
		mut[idx] ^= xor
		m, err := ReadMessage(bytes.NewReader(mut))
		if idx >= 4 && err == nil {
			// Any damage past the length prefix is CRC-covered (or, for
			// the CRC field itself, self-evident): decode must fail.
			t.Fatalf("single-byte corruption at %d decoded to %+v", idx, m)
		}
		if err == nil {
			// A length-prefix mutation that still decodes would need a
			// CRC-32 prefix collision; treat success as suspicious enough
			// to re-validate.
			if verr := m.Validate(); verr != nil {
				t.Fatalf("corrupted frame decoded into invalid message: %v", verr)
			}
		}
	})
}

// frameSources are the two ways frames come off a connection: ReadMessage
// (one frame per call, nothing read ahead) and the buffered reader behind
// serveConn. The frameReadTimeout contract is the same for both.
var frameSources = []struct {
	name string
	open func(net.Conn) func() (core.Message, error)
}{
	{"ReadMessage", func(c net.Conn) func() (core.Message, error) {
		return func() (core.Message, error) { return ReadMessage(c) }
	}},
	{"frameReader", func(c net.Conn) func() (core.Message, error) {
		return newFrameReader(c).next
	}},
}

// TestPartialFrameTimesOut pins the desync bound: a header whose length
// promises a payload that never arrives — the shape wire damage takes when a
// corrupted length prefix stays under the size bound — must error out within
// frameReadTimeout instead of blocking forever. Without the deadline the
// phantom read silently swallows every later frame on the connection, a
// one-way blackhole that live soaks caught minting duplicate executions.
func TestPartialFrameTimesOut(t *testing.T) {
	old := frameReadTimeout
	frameReadTimeout = 200 * time.Millisecond
	defer func() { frameReadTimeout = old }()
	for _, src := range frameSources {
		t.Run(src.name, func(t *testing.T) {
			client, server := net.Pipe()
			defer client.Close()
			defer server.Close()
			go func() {
				var hdr [wireHeaderSize]byte
				binary.BigEndian.PutUint32(hdr[0:4], 512)
				binary.BigEndian.PutUint32(hdr[4:8], 0xdeadbeef)
				_, _ = client.Write(hdr[:]) // header only; the 512-byte payload never comes
			}()
			next := src.open(server)
			done := make(chan error, 1)
			go func() {
				_, err := next()
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("partial frame decoded into a message")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("still blocked on a partial frame after 5s")
			}
		})
	}
}

// TestIdleLinkHasNoDeadline pins the other half of the bargain: the deadline
// arms per frame, not per connection, so a link that is merely quiet between
// frames — longer than frameReadTimeout — still delivers the next frame
// intact. The second frame arrives in two pieces, so the deadline is armed
// and must be cleared again before the next idle gap.
func TestIdleLinkHasNoDeadline(t *testing.T) {
	old := frameReadTimeout
	frameReadTimeout = 100 * time.Millisecond
	defer func() { frameReadTimeout = old }()
	gap := 4 * frameReadTimeout // idle gap well past the deadline
	msg := core.Message{Type: core.MsgPing, From: 3, Seq: 9}
	wire := mustFrame(t, msg)
	for _, src := range frameSources {
		t.Run(src.name, func(t *testing.T) {
			client, server := net.Pipe()
			defer client.Close()
			defer server.Close()
			go func() {
				_, _ = client.Write(wire)
				time.Sleep(gap)
				_, _ = client.Write(wire[:5])
				_, _ = client.Write(wire[5:])
				time.Sleep(gap)
				_, _ = client.Write(wire)
			}()
			next := src.open(server)
			for i := 0; i < 3; i++ {
				got, err := next()
				if err != nil {
					t.Fatalf("frame %d after idle gap: %v", i, err)
				}
				if !reflect.DeepEqual(got, msg) {
					t.Fatalf("frame %d decoded wrong: %+v", i, got)
				}
			}
		})
	}
}

// chunkReader hands out its stream in the given chunk sizes (then whatever
// is asked for), counting the reads it serves.
type chunkReader struct {
	data   []byte
	chunks []int
	reads  int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if len(c.chunks) > 0 {
		n, c.chunks = min(n, c.chunks[0]), c.chunks[1:]
	}
	n = copy(p[:min(n, len(c.data))], c.data)
	c.data = c.data[n:]
	c.reads++
	return n, nil
}

// TestFrameReaderOneReadManyFrames pins the read economy: frames that
// arrived together come out of a single Read, and frame boundaries falling
// anywhere inside a read — including a frame larger than the reader's own
// buffer — lose nothing.
func TestFrameReaderOneReadManyFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	base := sampleMessages(rng)
	var small []byte
	for _, m := range base {
		small = append(small, mustFrame(t, m)...)
	}
	big := core.Message{Type: core.MsgPong, From: 2, Dir: bytes.Repeat([]byte{0xab}, 3*frameBufferSize)}
	msgs := append(base[:len(base):len(base)], big, base[0])
	stream := append([]byte(nil), small...)
	for _, m := range msgs[len(base):] {
		stream = append(stream, mustFrame(t, m)...)
	}
	drain := func(src *chunkReader) {
		t.Helper()
		fr := newFrameReader(src)
		for i, want := range msgs {
			got, err := fr.next()
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("frame %d (%v): %v\n want %+v\n got  %+v", i, want.Type, err, want, got)
			}
		}
	}

	burst := &chunkReader{data: small}
	fr := newFrameReader(burst)
	for i := range base {
		if _, err := fr.next(); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if burst.reads != 1 {
		t.Errorf("%d small frames took %d reads, want 1", len(base), burst.reads)
	}

	drain(&chunkReader{data: stream})
	for trial := 0; trial < 200; trial++ {
		var chunks []int
		for n := 0; n < len(stream); {
			c := 1 + rng.Intn(1+rng.Intn(300))
			chunks = append(chunks, c)
			n += c
		}
		drain(&chunkReader{data: append([]byte(nil), stream...), chunks: chunks})
	}
}

// TestReadMessageReadsNoFurther pins ReadMessage's contract with callers
// that keep the reader: frames queued back to back come out one per call.
func TestReadMessageReadsNoFurther(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	msgs := sampleMessages(rng)
	var stream bytes.Buffer
	for _, m := range msgs {
		if err := WriteMessage(&stream, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := ReadMessage(&stream)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: %v\n want %+v\n got  %+v", i, err, want, got)
		}
	}
	if stream.Len() != 0 {
		t.Fatalf("%d bytes left after the last frame", stream.Len())
	}
}
