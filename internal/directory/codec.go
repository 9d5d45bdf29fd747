// Package directory implements the gossip-fed resource directory: a
// bounded, staleness-aware cache of remote node profiles that lets an
// initiator probe known-matching candidates by unicast before falling back
// to the classic REQUEST flood.
//
// Digests travel as a compact binary payload piggybacked on membership
// PING/PONG gossip and on ACCEPT/INFORM protocol traffic. The codec favors
// density over generality: profile enums fit one byte each, sizes and ages
// are uvarints, and the performance index is a 16-bit fixed-point fraction —
// a full digest is typically 8–12 bytes on the wire.
package directory

import (
	"encoding/binary"
	"fmt"
	"time"

	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/resource"
)

// Digest is one directory entry as exchanged on the wire: a node's identity,
// its resource profile, the incarnation that produced it (restart counter,
// for invalidation ordering), how stale the sender's knowledge already was
// at encode time, and the subject's load (running plus queued jobs) at that
// moment. Receivers age their copy by Age so a digest never gets fresher by
// traveling.
type Digest struct {
	Node        overlay.NodeID
	Profile     resource.Profile
	Incarnation uint64
	Age         time.Duration

	// Load is the subject's running+queued job count when the digest was
	// made — the hint directed discovery ranks candidates by. It is as
	// stale as Age says; live ACCEPT costs, not the hint, decide the
	// assignment.
	Load int
}

// codecVersion is the digest payload format version; decoders reject
// payloads from the future.
const codecVersion = 1

// MaxWireDigests bounds how many digests one payload may carry; decoders
// reject anything larger, so a hostile count cannot drive allocation.
const MaxWireDigests = 128

// maxSizeGB bounds the memory and disk fields on decode: far above any
// admissible profile, low enough that hostile uvarints cannot smuggle
// absurd capacities into the cache.
const maxSizeGB = 1 << 20

// maxAgeSec bounds the age field on decode (about 12 days): a hostile age
// simply makes the entry stale, but the bound keeps the duration arithmetic
// far from overflow.
const maxAgeSec = 1 << 20

// maxLoad bounds the load hint on decode: far above any plausible queue,
// low enough that a hostile value cannot skew ranking arithmetic.
const maxLoad = 1 << 20

// perfScale is the fixed-point denominator for PerfIndex: the index lives in
// [1,2), so (perf-1)·65536 always fits uint16 and decodes back into range.
const perfScale = 65536

// Encode packs digests into the wire payload, in one exactly-sized
// allocation. Entries beyond MaxWireDigests are dropped (callers gossip
// small samples; the cap is a codec guarantee, not a scheduling decision).
func Encode(ds []Digest) []byte {
	if len(ds) > MaxWireDigests {
		ds = ds[:MaxWireDigests]
	}
	// Gossip-sized payloads are built on the stack and copied out once;
	// a larger one spills to the heap while it is built.
	var stack [256]byte
	buf := append(stack[:0], codecVersion)
	buf = binary.AppendUvarint(buf, uint64(len(ds)))
	for _, d := range ds {
		buf = binary.AppendUvarint(buf, uint64(uint32(d.Node)))
		buf = append(buf, byte(d.Profile.Arch), byte(d.Profile.OS))
		buf = binary.AppendUvarint(buf, uint64(d.Profile.MemoryGB))
		buf = binary.AppendUvarint(buf, uint64(d.Profile.DiskGB))
		perf := d.Profile.PerfIndex - 1
		if perf < 0 {
			perf = 0
		}
		fixed := uint64(perf * perfScale)
		if fixed > perfScale-1 {
			fixed = perfScale - 1
		}
		buf = binary.AppendUvarint(buf, fixed)
		buf = binary.AppendUvarint(buf, d.Incarnation)
		// Wire ages are whole seconds, rounded UP: truncating down would
		// let every re-gossip hop shave up to a second off a digest's true
		// age, and under sub-second gossip a dead incarnation's digest can
		// then circulate forever without ever reaching the staleness TTL
		// (each hop's "fresher" copy refreshes the receiver's entry). Over-
		// aging by at most a second per hop errs toward expiry instead.
		age := int64((d.Age + time.Second - 1) / time.Second)
		if age < 0 {
			age = 0
		}
		if age > maxAgeSec {
			age = maxAgeSec
		}
		buf = binary.AppendUvarint(buf, uint64(age))
		load := d.Load
		if load < 0 {
			load = 0
		}
		if load > maxLoad {
			load = maxLoad
		}
		buf = binary.AppendUvarint(buf, uint64(load))
	}
	out := make([]byte, len(buf))
	copy(out, buf)
	return out
}

// Decode unpacks a digest payload, validating every field: unknown versions,
// truncated entries, out-of-range enums, absurd sizes, and hostile counts
// all fail cleanly. A nil or empty payload decodes to no digests.
func Decode(b []byte) ([]Digest, error) {
	return AppendDecode(nil, b)
}

// AppendDecode is Decode appending to dst, so a caller that folds each
// payload straight into its cache can reuse one buffer. The whole payload
// is validated before it returns; on error dst comes back unchanged.
func AppendDecode(dst []Digest, b []byte) ([]Digest, error) {
	if len(b) == 0 {
		return dst, nil
	}
	if b[0] != codecVersion {
		return dst, fmt.Errorf("directory digest version %d, want %d", b[0], codecVersion)
	}
	b = b[1:]
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return dst, fmt.Errorf("directory digest count unreadable")
	}
	if count > MaxWireDigests {
		return dst, fmt.Errorf("directory digest count %d exceeds cap %d", count, MaxWireDigests)
	}
	r := wireReader{b: b[n:]}
	out := dst
	if cap(out)-len(out) < int(count) {
		out = make([]Digest, len(dst), len(dst)+int(count))
		copy(out, dst)
	}
	for i := uint64(0); i < count; i++ {
		id := r.uvarint()
		if len(r.b) < 2 {
			return dst, fmt.Errorf("truncated directory digest")
		}
		arch, osKind := resource.Architecture(r.b[0]), resource.OS(r.b[1])
		r.b = r.b[2:]
		mem, disk, fixed := r.uvarint(), r.uvarint(), r.uvarint()
		inc, age, load := r.uvarint(), r.uvarint(), r.uvarint()
		if r.short {
			return dst, fmt.Errorf("truncated directory digest")
		}
		if id > 1<<31-1 {
			return dst, fmt.Errorf("directory digest node id %d out of range", id)
		}
		if fixed > perfScale-1 {
			return dst, fmt.Errorf("directory digest perf %d out of range", fixed)
		}
		if mem == 0 || mem > maxSizeGB || disk == 0 || disk > maxSizeGB {
			return dst, fmt.Errorf("directory digest sizes %d/%d GB out of range", mem, disk)
		}
		if age > maxAgeSec {
			return dst, fmt.Errorf("directory digest age %d out of range", age)
		}
		if load > maxLoad {
			return dst, fmt.Errorf("directory digest load %d out of range", load)
		}
		d := Digest{
			Node: overlay.NodeID(id),
			Profile: resource.Profile{
				Arch:      arch,
				OS:        osKind,
				MemoryGB:  int(mem),
				DiskGB:    int(disk),
				PerfIndex: 1 + float64(fixed)/perfScale,
			},
			Incarnation: inc,
			Age:         time.Duration(age) * time.Second,
			Load:        int(load),
		}
		if err := d.Profile.Validate(); err != nil {
			return dst, fmt.Errorf("directory digest: %w", err)
		}
		out = append(out, d)
	}
	if len(r.b) != 0 {
		return dst, fmt.Errorf("directory digest payload has %d trailing bytes", len(r.b))
	}
	return out, nil
}

// wireReader reads uvarints off a payload. A truncated or overlong field
// reads as zero and sets short, which the caller checks once per digest.
type wireReader struct {
	b     []byte
	short bool
}

func (r *wireReader) uvarint() uint64 {
	if b := r.b; len(b) > 0 && b[0] < 0x80 { // the common one-byte field
		r.b = b[1:]
		return uint64(b[0])
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.short, r.b = true, nil
		return 0
	}
	r.b = r.b[n:]
	return v
}
