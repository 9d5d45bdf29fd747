package directory

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/resource"
)

// eviction is one OnEvict callback.
type eviction struct {
	node   overlay.NodeID
	reason string
}

// storePair is the real store and its reference oracle (reference_test.go)
// under one clock, each recording the evictions of the current call.
type storePair struct {
	real     *Store
	ref      *refStore
	ttl      time.Duration
	now      time.Duration
	realEv   []eviction
	refEv    []eviction
	expiries map[overlay.NodeID]time.Duration // ref entries' expiry before the call
}

func newStorePair(capacity int, ttl time.Duration) *storePair {
	p := &storePair{real: New(capacity, ttl), ref: newRefStore(capacity, ttl), ttl: ttl}
	p.real.OnEvict = func(node overlay.NodeID, reason string) { p.realEv = append(p.realEv, eviction{node, reason}) }
	p.ref.OnEvict = func(node overlay.NodeID, reason string) { p.refEv = append(p.refEv, eviction{node, reason}) }
	return p
}

// begin snapshots the oracle's expiry instants before a call.
func (p *storePair) begin() {
	p.realEv, p.refEv = p.realEv[:0], p.refEv[:0]
	p.expiries = make(map[overlay.NodeID]time.Duration, len(p.ref.entries))
	for id, e := range p.ref.entries {
		p.expiries[id] = e.learnedAt + p.ttl
	}
}

// check compares one call's eviction sets and the real store's documented
// sweep order: stale victims in (expiry instant, node) order.
func (p *storePair) check(t *testing.T, call string) {
	t.Helper()
	if p.real.Len() != p.ref.Len() {
		t.Fatalf("%s: Len %d, reference %d", call, p.real.Len(), p.ref.Len())
	}
	var stale []eviction
	for _, ev := range p.realEv {
		if ev.reason == EvictStale {
			stale = append(stale, ev)
		}
	}
	if !sort.SliceIsSorted(stale, func(i, k int) bool {
		ei, ek := p.expiries[stale[i].node], p.expiries[stale[k].node]
		return ei < ek || (ei == ek && stale[i].node < stale[k].node)
	}) {
		t.Fatalf("%s: stale evictions %v not in (expiry, node) order", call, stale)
	}
	bySet := func(evs []eviction) []eviction {
		out := append([]eviction(nil), evs...)
		sort.Slice(out, func(i, k int) bool {
			if out[i].node != out[k].node {
				return out[i].node < out[k].node
			}
			return out[i].reason < out[k].reason
		})
		return out
	}
	if got, want := bySet(p.realEv), bySet(p.refEv); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: evicted %v, reference %v", call, got, want)
	}
}

var fuzzProfiles = []resource.Profile{
	{Arch: resource.ArchAMD64, OS: resource.OSLinux, MemoryGB: 8, DiskGB: 8, PerfIndex: 1},
	{Arch: resource.ArchAMD64, OS: resource.OSLinux, MemoryGB: 16, DiskGB: 4, PerfIndex: 1.5},
	{Arch: resource.ArchAMD64, OS: resource.OSLinux, MemoryGB: 2, DiskGB: 32, PerfIndex: 1.25},
	{Arch: resource.ArchPOWER, OS: resource.OSBSD, MemoryGB: 8, DiskGB: 8, PerfIndex: 1.75},
	{Arch: resource.ArchAMD64, OS: resource.OSLinux, MemoryGB: 8, DiskGB: 8, PerfIndex: 1.999},
	{Arch: resource.ArchAMD64, OS: resource.OSLinux, MemoryGB: 0, DiskGB: 8, PerfIndex: 1.5}, // invalid
}

var fuzzReqs = []resource.Requirements{
	{Arch: resource.ArchAMD64, OS: resource.OSLinux, MinMemoryGB: 1, MinDiskGB: 1},
	{Arch: resource.ArchAMD64, OS: resource.OSLinux, MinMemoryGB: 8, MinDiskGB: 8},
	{Arch: resource.ArchPOWER, OS: resource.OSBSD, MinMemoryGB: 1, MinDiskGB: 1},
	{Arch: resource.ArchAMD64, OS: resource.OSLinux, MinMemoryGB: 64, MinDiskGB: 1},
}

// FuzzStoreDifferential drives the store and its pre-index reference
// through the same random operation sequence — Learn (random age,
// incarnation, load and profile), Evict, Invalidate, BumpLoad, ObserveCost,
// clock steps and jumps past the TTL, Candidates, Gossip and Snapshot —
// and requires every read to agree exactly and every call to evict the
// same set of entries. Node IDs span 0–15 against a capacity of 1–16, so
// refreshes, capacity displacement and tombstones all collide often.
//
// Cost observations land only on nodes 1 and 2: the reference sums the
// cost EWMAs of the matching set in map iteration order, and a float sum
// of more than two terms depends on that order, while the real store sums
// in node order. With at most two costed entries both sums are exact
// matches, so any ranking difference is a real bug.
func FuzzStoreDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 0, 0, 5, 0, 0, 1, 0, 0, 2, 0, 6, 1, 9, 3})
	// TTL 30 s: learn node 5 fresh at 38 s, then a higher incarnation of
	// it 25 s old at 48 s — its expiry moves from 68 s to 53 s — and read
	// at 58 s, when only the earlier expiry has passed.
	f.Add([]byte{1, 15, 7, 0, 19, 1, 7, 0, 19, 1, 0, 5, 0, 0, 0, 0, 7, 0, 10, 1, 0, 5, 0, 1, 25, 0, 7, 0, 10, 1, 11, 0})
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 48; i++ {
		b := make([]byte, 64+rng.Intn(512))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		ttl := []time.Duration{0, 30 * time.Second, 15 * time.Minute}[next()%3]
		p := newStorePair(1+next()%16, ttl)
		for len(data) > 0 {
			op := next() % 12
			node := overlay.NodeID(next() % 16)
			p.begin()
			var call string
			switch op {
			case 0, 1, 2: // Learn, the commonest call
				d := Digest{
					Node:        node,
					Profile:     fuzzProfiles[next()%len(fuzzProfiles)],
					Incarnation: uint64(next() % 4),
					Age:         time.Duration(next()%40) * time.Second,
					Load:        next() % 8,
				}
				call = fmt.Sprintf("Learn(%+v) at %v", d, p.now)
				if got, want := p.real.Learn(d, p.now), p.ref.Learn(d, p.now); got != want {
					t.Fatalf("%s = %v, reference %v", call, got, want)
				}
			case 3:
				reason := []string{EvictSuspect, EvictUnreachable, EvictBusy}[next()%3]
				call = fmt.Sprintf("Evict(%d, %s)", node, reason)
				p.real.Evict(node, reason)
				p.ref.Evict(node, reason)
			case 4:
				call = fmt.Sprintf("Invalidate(%d)", node)
				p.real.Invalidate(node)
				p.ref.Invalidate(node)
			case 5:
				delta := next()%7 - 3
				call = fmt.Sprintf("BumpLoad(%d, %d)", node, delta)
				p.real.BumpLoad(node, delta)
				p.ref.BumpLoad(node, delta)
			case 6:
				node = 1 + node%2
				cost := float64(next()) / 4
				call = fmt.Sprintf("ObserveCost(%d, %v)", node, cost)
				p.real.ObserveCost(node, cost)
				p.ref.ObserveCost(node, cost)
			case 7:
				step := time.Duration(next()%20) * time.Second
				if next()%4 == 0 {
					step += ttl
				}
				p.now += step
				call = fmt.Sprintf("clock +%v", step)
			case 8, 9:
				req, k := fuzzReqs[next()%len(fuzzReqs)], next()%6
				call = fmt.Sprintf("Candidates(%+v, %d) at %v", req, k, p.now)
				if got, want := p.real.Candidates(req, k, p.now), p.ref.Candidates(req, k, p.now); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s = %+v, reference %+v", call, got, want)
				}
			case 10:
				k := next() % 5
				call = fmt.Sprintf("Gossip(%d) at %v", k, p.now)
				if got, want := p.real.Gossip(k, p.now), p.ref.Gossip(k, p.now); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s = %+v, reference %+v", call, got, want)
				}
			case 11:
				call = fmt.Sprintf("Snapshot at %v", p.now)
				if got, want := p.real.Snapshot(p.now), p.ref.Snapshot(p.now); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s = %+v, reference %+v", call, got, want)
				}
			}
			p.check(t, call)
		}
	})
}
