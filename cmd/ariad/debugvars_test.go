package main

import (
	"encoding/json"
	"expvar"
	"io"
	"log"
	"reflect"
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/core"
)

// planeSectionNames are the four /debug/vars sections fed by plane events.
var planeSectionNames = []string{"aria.membership", "aria.directory", "aria.overload", "aria.sharedstate"}

// feedPlaneEvents sends the chain one event of each plane kind, plus a second
// eviction and two more commit conflicts so the summed keys are pinned too.
// Each plane group is asserted separately: a chain whose plane is off may not
// implement it at all.
func feedPlaneEvents(obs core.Observer) {
	var o interface{} = obs
	if m, ok := o.(core.MembershipObserver); ok {
		m.PeerSuspected(time.Second, 0, 1)
		m.PeerRefuted(time.Second, 0, 1)
		m.PeerDead(time.Second, 0, 2)
		m.LinkRepaired(time.Second, 0, 2, 3)
		m.FloodEscalated(time.Second, 0, "u1", 1, 10)
	}
	if d, ok := o.(core.DirectoryObserver); ok {
		d.DirectoryHit(time.Second, 0, "u1", 3)
		d.DirectoryMiss(time.Second, 0, "u2")
		d.DirectoryFallback(time.Second, 0, "u1", 0)
		d.DirectoryEvicted(time.Second, 0, 2, "dead")
		d.DirectoryEvicted(time.Second, 0, 4, "stale")
	}
	if v, ok := o.(core.OverloadObserver); ok {
		v.RequestShed(time.Second, 0, "u3", 4)
		v.AssignShed(time.Second, 0, "u3", 4)
		v.ShedRedispatched(time.Second, 0, "u3", true)
		v.ShedRedispatched(time.Second, 0, "u4", false)
		v.PeerBusy(time.Second, 0, 5)
		v.SubmitRejected(time.Second, 0, "u5", 8)
	}
	if s, ok := o.(core.SharedStateObserver); ok {
		s.CommitSent(time.Second, 0, "u6", 7, 1)
		s.CommitConflict(time.Second, 0, "u6", 7, "busy", 1)
		s.CommitConflict(time.Second, 0, "u6", 7, "stale", 2)
		s.CommitConflict(time.Second, 0, "u6", 7, "timeout", 3)
		s.CommitGranted(time.Second, 0, "u6", 8, 4)
		s.CommitFallback(time.Second, 0, "u7", 3)
	}
}

// readPlaneSections reads the four plane sections back from expvar.
func readPlaneSections(t *testing.T) map[string]map[string]uint64 {
	t.Helper()
	out := make(map[string]map[string]uint64)
	for _, name := range planeSectionNames {
		v := expvar.Get(name)
		if v == nil {
			t.Fatalf("%s is not published", name)
		}
		var section map[string]uint64
		if err := json.Unmarshal([]byte(v.String()), &section); err != nil {
			t.Fatalf("%s = %s: %v", name, v.String(), err)
		}
		out[name] = section
	}
	return out
}

// TestDebugVarsPlaneSections pins the keys and values of the four plane
// sections of /debug/vars after one event of each plane kind: exact while
// the plane is armed, {} while it is off.
func TestDebugVarsPlaneSections(t *testing.T) {
	publishDebugVars()
	logger := log.New(io.Discard, "", 0)
	off := map[string]uint64{}

	feedPlaneEvents(daemonObservers(logger, core.DefaultConfig()))
	for name, got := range readPlaneSections(t) {
		if !reflect.DeepEqual(got, off) {
			t.Errorf("planes off: %s = %v, want {}", name, got)
		}
	}

	armed := core.DefaultConfig()
	armed.ProbeInterval = 2 * time.Second
	armed.ProbeTimeout = 500 * time.Millisecond
	armed.SuspectTimeout = 2 * time.Second
	armed.DirectedCandidates = 3
	armed.MaxQueuedJobs = 4
	armed.SharedStateBound = 4
	feedPlaneEvents(daemonObservers(logger, armed))
	want := map[string]map[string]uint64{
		"aria.membership": {"suspected": 1, "refuted": 1, "dead": 1, "repaired": 1, "refloods": 1},
		"aria.directory":  {"hits": 1, "misses": 1, "fallbacks": 1, "probes": 3, "evictions": 2},
		"aria.overload": {
			"requestsShed": 1, "assignsShed": 1, "reflooded": 1, "reenqueued": 1,
			"peersBusy": 1, "submitRejects": 1,
		},
		"aria.sharedstate": {"commits": 1, "conflicts": 2, "timeouts": 1, "granted": 1, "fallbacks": 1},
	}
	if got := readPlaneSections(t); !reflect.DeepEqual(got, want) {
		t.Errorf("planes armed:\n got %v\nwant %v", got, want)
	}

	// The overload section is armed by any of its three flags, not only
	// the queue bound.
	pendingOnly := core.DefaultConfig()
	pendingOnly.MaxPendingSubmits = 8
	feedPlaneEvents(daemonObservers(logger, pendingOnly))
	got := readPlaneSections(t)
	if got["aria.overload"]["submitRejects"] != 1 || !reflect.DeepEqual(got["aria.membership"], off) {
		t.Errorf("-max-pending alone: %v", got)
	}
}
