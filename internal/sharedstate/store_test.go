package sharedstate

import (
	"fmt"
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/directory"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/resource"
)

func testProfile(perf float64) resource.Profile {
	return resource.Profile{
		Arch: resource.ArchAMD64, OS: resource.OSLinux,
		MemoryGB: 8, DiskGB: 8, PerfIndex: perf,
	}
}

func testReq() resource.Requirements {
	return resource.Requirements{
		Arch: resource.ArchAMD64, OS: resource.OSLinux,
		MinMemoryGB: 1, MinDiskGB: 1,
	}
}

func newView(t *testing.T, bound int, loads map[overlay.NodeID]int) *Store {
	t.Helper()
	cache := directory.New(64, 10*time.Minute)
	for id, load := range loads {
		if !cache.Learn(directory.Digest{Node: id, Profile: testProfile(1.5), Load: load}, 0) {
			t.Fatalf("learn node %d", id)
		}
	}
	return New(cache, bound)
}

func TestInflightReservationsConsumeSlots(t *testing.T) {
	// One provider, bound 2, cached load 0: two commits fit, a third pick
	// must go elsewhere (and here there is no elsewhere).
	v := newView(t, 2, map[overlay.NodeID]int{7: 0})
	for i := 0; i < 2; i++ {
		d, ok := v.Pick(testReq(), 0, nil)
		if !ok || d.Node != 7 {
			t.Fatalf("pick %d = %v, %v; want node 7", i, d.Node, ok)
		}
		v.CommitStarted(d.Node)
	}
	if d, ok := v.Pick(testReq(), 0, nil); ok {
		t.Fatalf("third pick = %v; want none, both slots reserved", d.Node)
	}
	v.CommitResolved(7)
	if _, ok := v.Pick(testReq(), 0, nil); !ok {
		t.Fatal("pick after resolve found nothing; reservation not released")
	}
	v.CommitResolved(7)
	if got := v.Inflight(7); got != 0 {
		t.Fatalf("inflight = %d after releasing both; want 0", got)
	}
}

func TestObserveBusySaturatesUntilFresherDigest(t *testing.T) {
	v := newView(t, 3, map[overlay.NodeID]int{5: 0})
	v.ObserveBusy(5)
	if d, ok := v.Pick(testReq(), 0, nil); ok {
		t.Fatalf("pick after busy = %v; want none", d.Node)
	}
	// A fresher digest proving a free slot re-admits the provider.
	if !v.Cache().Learn(directory.Digest{Node: 5, Profile: testProfile(1.5), Load: 1}, time.Second) {
		t.Fatal("fresher digest rejected")
	}
	d, ok := v.Pick(testReq(), time.Second, nil)
	if !ok || d.Node != 5 {
		t.Fatalf("pick after refresh = %v, %v; want node 5", d.Node, ok)
	}
}

func TestObserveStaleEvictsButReadmits(t *testing.T) {
	v := newView(t, 3, map[overlay.NodeID]int{9: 0})
	v.ObserveStale(9)
	if _, ok := v.Pick(testReq(), 0, nil); ok {
		t.Fatal("pick after stale eviction should find nothing")
	}
	// Unlike a dead tombstone, the same incarnation may return with an
	// honest digest.
	if !v.Cache().Learn(directory.Digest{Node: 9, Profile: testProfile(1.2), Load: 0}, time.Second) {
		t.Fatal("re-admission after stale eviction rejected")
	}
}

func TestTombstonedIncarnationStaysOut(t *testing.T) {
	v := newView(t, 3, nil)
	if !v.Cache().Learn(directory.Digest{Node: 4, Profile: testProfile(1.5), Incarnation: 2, Load: 0}, 0) {
		t.Fatal("initial learn rejected")
	}
	v.Cache().Invalidate(4)
	if v.Cache().Learn(directory.Digest{Node: 4, Profile: testProfile(1.5), Incarnation: 2, Load: 0}, time.Second) {
		t.Fatal("tombstoned incarnation re-admitted")
	}
	if _, ok := v.Pick(testReq(), time.Second, nil); ok {
		t.Fatal("pick found a tombstoned provider")
	}
	// A restarted instance (strictly greater incarnation) is the one
	// admissible comeback.
	if !v.Cache().Learn(directory.Digest{Node: 4, Profile: testProfile(1.5), Incarnation: 3, Load: 0}, time.Second) {
		t.Fatal("restarted incarnation rejected")
	}
}

func TestStalenessBoundExpiresView(t *testing.T) {
	cache := directory.New(64, time.Minute)
	if !cache.Learn(directory.Digest{Node: 1, Profile: testProfile(1.5), Load: 0}, 0) {
		t.Fatal("learn rejected")
	}
	v := New(cache, 4)
	if _, ok := v.Pick(testReq(), 30*time.Second, nil); !ok {
		t.Fatal("fresh entry not picked")
	}
	if d, ok := v.Pick(testReq(), 2*time.Minute, nil); ok {
		t.Fatalf("stale entry picked: %v", d.Node)
	}
}

// fullSortPick is the pick rule stated the long way, as Pick was first
// written: rank every matching entry with Candidates, then take the first
// that is not excluded and still has a believed free slot.
func fullSortPick(v *Store, req resource.Requirements, now time.Duration, excluded func(overlay.NodeID) bool) (directory.Digest, bool) {
	for _, d := range v.Cache().Candidates(req, v.Cache().Len(), now) {
		if excluded != nil && excluded(d.Node) {
			continue
		}
		if d.Load+v.Inflight(d.Node) >= v.Bound() {
			continue
		}
		return d, true
	}
	return directory.Digest{}, false
}

func TestPickTable(t *testing.T) {
	type provider struct {
		node overlay.NodeID
		perf float64
		load int
	}
	cases := []struct {
		name      string
		bound     int
		providers []provider
		inflight  []overlay.NodeID // one CommitStarted each
		resolved  []overlay.NodeID // one CommitResolved each, after inflight
		excluded  []overlay.NodeID
		want      overlay.NodeID
		wantOK    bool
	}{
		{name: "empty view", bound: 4},
		{name: "prefers the freest slot", bound: 4,
			providers: []provider{{1, 1.5, 3}, {2, 1.5, 0}, {3, 1.5, 2}}, want: 2, wantOK: true},
		{name: "fastest idle wins", bound: 4,
			providers: []provider{{1, 1.2, 0}, {2, 1.8, 0}, {3, 1.5, 0}}, want: 2, wantOK: true},
		{name: "load outweighs speed", bound: 4,
			providers: []provider{{1, 1.9, 2}, {2, 1.0, 0}}, want: 2, wantOK: true},
		{name: "equal scores break to the lowest node", bound: 4,
			providers: []provider{{9, 1.5, 1}, {4, 1.5, 1}, {6, 1.5, 1}}, want: 4, wantOK: true},
		{name: "honors exclusion", bound: 4,
			providers: []provider{{1, 1.5, 0}, {2, 1.5, 1}},
			excluded:  []overlay.NodeID{1}, want: 2, wantOK: true},
		{name: "every provider excluded", bound: 4,
			providers: []provider{{1, 1.9, 0}, {2, 1.5, 0}},
			excluded:  []overlay.NodeID{1, 2}},
		{name: "skips providers at the bound", bound: 2,
			providers: []provider{{1, 1.5, 2}, {2, 1.5, 5}}},
		{name: "the best at the bound passes to the next", bound: 2,
			providers: []provider{{1, 1.9, 2}, {2, 1.0, 1}}, want: 2, wantOK: true},
		{name: "in-flight reservations fill the best", bound: 2,
			providers: []provider{{1, 1.9, 0}, {2, 1.0, 0}},
			inflight:  []overlay.NodeID{1, 1}, want: 2, wantOK: true},
		{name: "a resolved reservation frees its slot", bound: 2,
			providers: []provider{{1, 1.9, 0}, {2, 1.0, 0}},
			inflight:  []overlay.NodeID{1, 1}, resolved: []overlay.NodeID{1}, want: 1, wantOK: true},
		{name: "reservations and load together reach the bound", bound: 3,
			providers: []provider{{1, 1.9, 2}, {2, 1.9, 2}},
			inflight:  []overlay.NodeID{1, 2}},
		{name: "tie broken among the usable only", bound: 2,
			providers: []provider{{3, 1.5, 1}, {5, 1.5, 1}, {7, 1.5, 1}},
			inflight:  []overlay.NodeID{3}, excluded: []overlay.NodeID{5}, want: 7, wantOK: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cache := directory.New(64, 10*time.Minute)
			for _, p := range c.providers {
				if !cache.Learn(directory.Digest{Node: p.node, Profile: testProfile(p.perf), Load: p.load}, 0) {
					t.Fatalf("learn node %d", p.node)
				}
			}
			v := New(cache, c.bound)
			for _, id := range c.inflight {
				v.CommitStarted(id)
			}
			for _, id := range c.resolved {
				v.CommitResolved(id)
			}
			excluded := func(id overlay.NodeID) bool {
				for _, x := range c.excluded {
					if x == id {
						return true
					}
				}
				return false
			}
			got, ok := v.Pick(testReq(), time.Second, excluded)
			if ok != c.wantOK || (ok && got.Node != c.want) {
				t.Fatalf("pick = %v, %v; want %v, %v", got.Node, ok, c.want, c.wantOK)
			}
			ref, refOK := fullSortPick(v, testReq(), time.Second, excluded)
			if ok != refOK || got != ref {
				t.Fatalf("pick = %+v, %v; full-sort winner %+v, %v", got, ok, ref, refOK)
			}
		})
	}
}

func TestObserveUnreachableEvictsButReadmits(t *testing.T) {
	var evicted []string
	v := newView(t, 3, map[overlay.NodeID]int{6: 0, 8: 1})
	v.Cache().OnEvict = func(node overlay.NodeID, reason string) {
		evicted = append(evicted, fmt.Sprintf("%d:%s", node, reason))
	}
	v.ObserveUnreachable(6)
	if len(evicted) != 1 || evicted[0] != "6:"+directory.EvictUnreachable {
		t.Fatalf("evictions %v; want [6:%s]", evicted, directory.EvictUnreachable)
	}
	if d, ok := v.Pick(testReq(), 0, nil); !ok || d.Node != 8 {
		t.Fatalf("pick = %v, %v; want node 8 with 6 evicted", d.Node, ok)
	}
	// No tombstone: the membership plane, not the commit path, decides
	// whether the node is dead, so a fresh digest re-admits it.
	if !v.Cache().Learn(directory.Digest{Node: 6, Profile: testProfile(1.5), Load: 0}, time.Second) {
		t.Fatal("re-admission after unreachable eviction rejected")
	}
	if d, ok := v.Pick(testReq(), time.Second, nil); !ok || d.Node != 6 {
		t.Fatalf("pick after re-admission = %v, %v; want node 6", d.Node, ok)
	}
}
