package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// The CPU profile is decoded by hand (gzip + the handful of profile.proto
// fields needed for stacks) so the benchmark needs neither `go tool pprof`
// at run time nor a module dependency.

// stackSample is one profile sample: function names leaf first, and the CPU
// time the profiler charged to that stack.
type stackSample struct {
	stack []string
	value int64
}

// cpuProfiler accumulates samples over several profiled intervals of one
// run.
type cpuProfiler struct {
	samples []stackSample
}

// while profiles fn and keeps its samples.
func (p *cpuProfiler) while(fn func() error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("start cpu profile: %w", err)
	}
	ferr := fn()
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		return errors.Join(ferr, err)
	}
	p.samples = append(p.samples, samples...)
	return ferr
}

// protoField is one decoded field of a protobuf message: varint fields carry
// v, length-delimited ones carry b.
type protoField struct {
	num int
	v   uint64
	b   []byte
}

// protoFields splits one protobuf message into its fields.
func protoFields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad field key")
		}
		b = b[n:]
		f := protoField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return nil, errors.New("profile: bad varint")
			}
			f.v, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("profile: bad length")
			}
			f.b, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("profile: wire type %d", key&7)
		}
		out = append(out, f)
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// repeatedVarints reads a repeated integer field that may be packed.
func repeatedVarints(f protoField, dst []uint64) []uint64 {
	if f.b == nil {
		return append(dst, f.v)
	}
	for b := f.b; len(b) > 0; {
		v, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst
}

// decodeProfile turns a gzipped pprof CPU profile into stacks of function
// names. Field numbers are those of profile.proto: Profile{sample=2,
// location=4, function=5, string_table=6}, Sample{location_id=1, value=2},
// Location{id=1, line=4}, Line{function_id=1}, Function{id=1, name=2}.
func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := protoFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	locFuncs := map[uint64][]uint64{}
	type rawSample struct {
		locs []uint64
		val  int64
	}
	var raws []rawSample
	for _, f := range top {
		switch f.num {
		case 6:
			strs = append(strs, string(f.b))
		case 5:
			fs, err := protoFields(f.b)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, x := range fs {
				switch x.num {
				case 1:
					id = x.v
				case 2:
					name = x.v
				}
			}
			funcName[id] = name
		case 4:
			fs, err := protoFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, x := range fs {
				switch x.num {
				case 1:
					id = x.v
				case 4:
					ls, err := protoFields(x.b)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fns = append(fns, l.v)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 2:
			fs, err := protoFields(f.b)
			if err != nil {
				return nil, err
			}
			var s rawSample
			var vals []uint64
			for _, x := range fs {
				switch x.num {
				case 1:
					s.locs = repeatedVarints(x, s.locs)
				case 2:
					vals = repeatedVarints(x, vals)
				}
			}
			if len(vals) > 0 {
				s.val = int64(vals[len(vals)-1]) // last sample type: cpu nanoseconds
			}
			raws = append(raws, s)
		}
	}
	out := make([]stackSample, 0, len(raws))
	for _, r := range raws {
		s := stackSample{value: r.val}
		for _, loc := range r.locs {
			// A location lists inlined functions innermost first.
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					s.stack = append(s.stack, strs[idx])
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

const modulePrefix = "github.com/smartgrid/aria/internal/"

// layerOf maps a product package to the cpu.<layer>_share it is charged to.
var layerOf = map[string]string{
	"sim":         "sim",
	"transport":   "transport",
	"core":        "core",
	"sched":       "sched",
	"directory":   "directory",
	"sharedstate": "directory",
	"wal":         "wal",
	"overlay":     "overlay",
	"ctl":         "ctl",
	"eventlog":    "observers",
	"trace":       "observers",
	"metrics":     "observers",
}

// exclusiveBuckets are the cpu.*_share metrics that partition the profile.
var exclusiveBuckets = []string{
	"sim", "transport", "core", "sched", "directory", "wal", "overlay", "ctl",
	"observers", "other_pkgs", "gc", "syscall", "runtime_other", "harness",
}

func hasAnyPrefix(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// bucketOf charges one stack (leaf first) to exactly one bucket: the
// innermost frame inside a product package decides, so a layer's share is
// its self time plus the runtime and library work it caused. Stacks that
// never enter the module are the harness's, the collector's, the kernel
// interface's, or the rest of the runtime's.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, modulePrefix) {
			pkg := fn[len(modulePrefix):]
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			if layer, ok := layerOf[pkg]; ok {
				return layer
			}
			return "other_pkgs"
		}
		// The harness is package main in the benchmark binary and goes by
		// its import path in the test binary.
		if hasAnyPrefix(fn, "main.", "github.com/smartgrid/aria/bench.") {
			return "harness"
		}
	}
	for _, fn := range stack {
		if hasAnyPrefix(fn, "runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.(*gc") {
			return "gc"
		}
	}
	for _, fn := range stack {
		if hasAnyPrefix(fn, "syscall.", "internal/poll.", "net.", "internal/runtime/syscall.", "runtime/internal/syscall.", "runtime.netpoll") {
			return "syscall"
		}
	}
	return "runtime_other"
}

// cpuShares folds samples into the cpu.* metrics: the exclusive buckets sum
// to 1 (all 0 for an empty profile), the *_any_share cross-cuts count a
// sample whenever any frame matches and so overlap them.
func cpuShares(samples []stackSample) metrics {
	byBucket := map[string]int64{}
	var total, alloc, json, sys int64
	for _, s := range samples {
		total += s.value
		byBucket[bucketOf(s.stack)] += s.value
		var a, j, y bool
		for _, fn := range s.stack {
			a = a || hasAnyPrefix(fn, "runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice", "runtime.newarray")
			j = j || strings.HasPrefix(fn, "encoding/json.")
			y = y || hasAnyPrefix(fn, "syscall.", "internal/runtime/syscall.", "runtime/internal/syscall.")
		}
		if a {
			alloc += s.value
		}
		if j {
			json += s.value
		}
		if y {
			sys += s.value
		}
	}
	share := func(v int64) float64 {
		if total == 0 {
			return 0
		}
		return float64(v) / float64(total)
	}
	m := metrics{
		"cpu.alloc_any_share":   share(alloc),
		"cpu.json_any_share":    share(json),
		"cpu.syscall_any_share": share(sys),
	}
	for _, b := range exclusiveBuckets {
		m["cpu."+b+"_share"] = share(byBucket[b])
	}
	return m
}
