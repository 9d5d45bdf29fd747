package trace

import (
	"strings"
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/job"
)

const testUUID = job.UUID("aaaaaaaa-bbbb-cccc-dddd-eeeeeeeeeeee")

// cleanTrace fabricates the events of one uneventful job: submitted at node
// 1, discovered over a two-hop REQUEST flood, assigned to node 3, executed
// there. All invariants hold against the default protocol config.
func cleanTrace() []core.TraceEvent {
	cfg := core.DefaultConfig()
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	return []core.TraceEvent{
		{At: at(0), Node: 1, Kind: core.SpanSubmit, UUID: testUUID, Span: 0x101},
		{At: at(1), Node: 1, Kind: core.SpanFloodOrigin, UUID: testUUID, Span: 0x102, Parent: 0x101,
			Msg: core.MsgRequest, Hop: 0, TTL: cfg.RequestTTL, Fanout: 2, Seq: 1, Origin: 1},
		{At: at(2), Node: 2, Kind: core.SpanForward, UUID: testUUID, Span: 0x201, Parent: 0x102,
			Msg: core.MsgRequest, Hop: 1, TTL: cfg.RequestTTL - 1, Fanout: 2, Seq: 1, Origin: 1, Peer: 1},
		{At: at(3), Node: 3, Kind: core.SpanOffer, UUID: testUUID, Span: 0x301, Parent: 0x201,
			Msg: core.MsgRequest, Hop: 2, TTL: cfg.RequestTTL - 2, Seq: 1, Origin: 1, Peer: 1, Cost: 10},
		{At: at(4), Node: 2, Kind: core.SpanDuplicate, UUID: testUUID, Parent: 0x102,
			Msg: core.MsgRequest, Hop: 1, TTL: cfg.RequestTTL - 1, Seq: 1, Origin: 1, Peer: 1},
		{At: at(5), Node: 1, Kind: core.SpanOfferRecv, UUID: testUUID, Span: 0x103, Parent: 0x301, Peer: 3, Cost: 10},
		{At: at(6), Node: 1, Kind: core.SpanAssign, UUID: testUUID, Span: 0x104, Parent: 0x102, Peer: 3, Cost: 10},
		{At: at(7), Node: 3, Kind: core.SpanEnqueue, UUID: testUUID, Span: 0x302, Parent: 0x104, Peer: 1},
		{At: at(8), Node: 3, Kind: core.SpanStart, UUID: testUUID, Span: 0x303, Parent: 0x302},
		{At: at(9), Node: 3, Kind: core.SpanComplete, UUID: testUUID, Span: 0x304, Parent: 0x303},
	}
}

func TestCheckCleanTrace(t *testing.T) {
	rep := Check(cleanTrace(), Opts{Protocol: core.DefaultConfig()})
	if !rep.OK() {
		t.Fatalf("clean trace reported violations:\n%s", rep)
	}
	if rep.Jobs != 1 || rep.Events != 10 {
		t.Fatalf("got %d jobs %d events, want 1 and 10", rep.Jobs, rep.Events)
	}
	if rep.ByKind[core.SpanForward] != 1 || rep.ByKind[core.SpanDuplicate] != 1 {
		t.Fatalf("kind counts wrong: %v", rep.ByKind)
	}
}

// TestCheckCatchesViolations corrupts the clean trace in each of the ways a
// broken protocol build would, and asserts the checker names the breach.
// This is the guarantee that e.g. an engine that ignores the reschedule
// threshold cannot pass the invariant suite.
func TestCheckCatchesViolations(t *testing.T) {
	cfg := core.DefaultConfig()
	cases := []struct {
		name      string
		invariant string
		opts      Opts
		mutate    func(evs []core.TraceEvent) []core.TraceEvent
	}{
		{
			name: "ttl over budget", invariant: "flood-ttl",
			mutate: func(evs []core.TraceEvent) []core.TraceEvent {
				evs[2].TTL = cfg.RequestTTL + 1
				evs[2].Hop = -1
				return evs
			},
		},
		{
			name: "hop conservation broken", invariant: "hop-conservation",
			mutate: func(evs []core.TraceEvent) []core.TraceEvent {
				evs[2].Hop = 3 // should be 1 at ttl 8
				return evs
			},
		},
		{
			name: "fanout over budget", invariant: "flood-fanout",
			mutate: func(evs []core.TraceEvent) []core.TraceEvent {
				evs[1].Fanout = cfg.RequestFanout + 1
				return evs
			},
		},
		{
			name: "duplicate re-forwarded", invariant: "double-forward",
			mutate: func(evs []core.TraceEvent) []core.TraceEvent {
				// The old bug: a node's own re-receipt counted as a forward.
				dup := evs[2]
				dup.Span = 0x202
				return append(evs, dup)
			},
		},
		{
			name: "reschedule at exactly the threshold", invariant: "reschedule-threshold",
			mutate: func(evs []core.TraceEvent) []core.TraceEvent {
				return append(evs, core.TraceEvent{
					Node: 3, Kind: core.SpanReschedule, UUID: testUUID, Span: 0x305,
					Parent: 0x302, Peer: 2, OldCost: 1000, Cost: 1000 - 180,
				}, core.TraceEvent{
					Node: 2, Kind: core.SpanEnqueue, UUID: testUUID, Span: 0x203, Parent: 0x305,
				})
			},
		},
		{
			name: "assign retries exhausted budget", invariant: "retry-bound",
			mutate: func(evs []core.TraceEvent) []core.TraceEvent {
				return append(evs, core.TraceEvent{
					Node: 1, Kind: core.SpanRetry, UUID: testUUID, Span: 0x105,
					Parent: 0x104, Peer: 3, Attempt: cfg.AssignMaxRetries + 1,
				})
			},
		},
		{
			name: "assign without consequence", invariant: "orphaned-assign",
			mutate: func(evs []core.TraceEvent) []core.TraceEvent {
				evs[7].Parent = 0x302 // detach the enqueue from the assign
				return evs
			},
		},
		{
			name: "double execution", invariant: "exactly-one-start",
			mutate: func(evs []core.TraceEvent) []core.TraceEvent {
				return append(evs, core.TraceEvent{
					Node: 2, Kind: core.SpanStart, UUID: testUUID, Span: 0x204, Parent: 0x302,
				})
			},
		},
		{
			name: "job silently dropped", invariant: "exactly-one-start",
			mutate: func(evs []core.TraceEvent) []core.TraceEvent {
				return evs[:8] // cut start and complete
			},
		},
		{
			name: "parent never emitted", invariant: "dangling-parent",
			mutate: func(evs []core.TraceEvent) []core.TraceEvent {
				evs[8].Parent = 0xdead
				return evs
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.Protocol = cfg
			rep := Check(tc.mutate(cleanTrace()), tc.opts)
			if rep.OK() {
				t.Fatalf("checker missed the %q breach", tc.invariant)
			}
			found := false
			for _, v := range rep.Violations {
				if v.Invariant == tc.invariant {
					found = true
				}
			}
			if !found {
				t.Fatalf("want a %q violation, got:\n%s", tc.invariant, rep)
			}
		})
	}
}

func TestCheckRelaxations(t *testing.T) {
	cfg := core.DefaultConfig()
	// An incomplete job passes only with AllowIncomplete.
	cut := cleanTrace()[:8]
	if rep := Check(cut, Opts{Protocol: cfg}); rep.OK() {
		t.Fatal("incomplete job passed a strict check")
	}
	if rep := Check(cut, Opts{Protocol: cfg, AllowIncomplete: true}); !rep.OK() {
		t.Fatalf("AllowIncomplete still failed:\n%s", rep)
	}
	// A duplicate start passes only with AllowDuplicateStarts.
	dup := append(cleanTrace(), core.TraceEvent{
		Node: 2, Kind: core.SpanStart, UUID: testUUID, Span: 0x204, Parent: 0x302,
	}, core.TraceEvent{
		Node: 2, Kind: core.SpanComplete, UUID: testUUID, Span: 0x205, Parent: 0x204,
	})
	if rep := Check(dup, Opts{Protocol: cfg}); rep.OK() {
		t.Fatal("duplicate start passed a strict check")
	}
	if rep := Check(dup, Opts{Protocol: cfg, AllowDuplicateStarts: true}); !rep.OK() {
		t.Fatalf("AllowDuplicateStarts still failed:\n%s", rep)
	}
}

func TestForestShape(t *testing.T) {
	forest := Forest(cleanTrace())
	roots := forest[testUUID]
	if len(roots) != 1 {
		t.Fatalf("got %d roots, want 1 (the submit span)", len(roots))
	}
	if roots[0].Event.Kind != core.SpanSubmit {
		t.Fatalf("root is %s, want submit", roots[0].Event.Kind)
	}
	// submit -> flood_origin -> {forward -> offer, duplicate, offer_recv?...}
	if len(roots[0].Children) != 1 || roots[0].Children[0].Event.Kind != core.SpanFloodOrigin {
		t.Fatalf("submit's child is not the flood origin")
	}
	out := FormatJob(cleanTrace(), testUUID)
	for _, want := range []string{"submit", "flood_origin", "forward", "offer", "assign", "enqueue", "start", "complete"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted tree missing %q:\n%s", want, out)
		}
	}
	// Depth increases with causality: the forward is indented under the origin.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 10 {
		t.Fatalf("got %d lines, want 10:\n%s", len(lines), out)
	}
	if FormatJob(cleanTrace(), "no-such-uuid") != "" {
		t.Fatal("unknown uuid should format to empty")
	}
}

func TestCollector(t *testing.T) {
	c := NewCollector()
	for _, ev := range cleanTrace() {
		c.TraceSpan(ev)
	}
	if c.Len() != 10 {
		t.Fatalf("len %d, want 10", c.Len())
	}
	if got := len(c.ByUUID(testUUID)); got != 10 {
		t.Fatalf("ByUUID returned %d events, want 10", got)
	}
	if got := len(c.ByUUID("other")); got != 0 {
		t.Fatalf("ByUUID for unknown job returned %d events", got)
	}
}

func TestRing(t *testing.T) {
	r := NewRing(4)
	evs := cleanTrace()
	for _, ev := range evs {
		r.TraceSpan(ev)
	}
	if r.Total() != 10 {
		t.Fatalf("total %d, want 10", r.Total())
	}
	kept := r.Events()
	if len(kept) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(kept))
	}
	// Oldest-first: the last four emitted events in order.
	for i, ev := range kept {
		if ev.Span != evs[6+i].Span {
			t.Fatalf("ring order wrong at %d: got span %#x want %#x", i, ev.Span, evs[6+i].Span)
		}
	}
	if r.Counts()[core.SpanSubmit] != 1 {
		t.Fatalf("lifetime counts lost evicted events: %v", r.Counts())
	}
}

// TestCheckMembershipInvariants exercises the three invariants the
// membership plane added: escalated re-floods stay within their TTL grant,
// nobody addresses a peer it has itself declared dead, and overlay repair
// respects the degree bound.
func TestCheckMembershipInvariants(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.ReFloodTTLStep = 2
	cfg.MaxDegree = 4
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

	// A clean trace with membership activity layered on: a suspicion that
	// is later confirmed dead, a legal repair, and a legally escalated
	// re-flood whose forwards exceed the base RequestTTL budget.
	clean := func() []core.TraceEvent {
		evs := cleanTrace()
		extra := []core.TraceEvent{
			{At: at(20), Node: 2, Kind: core.SpanSuspect, Span: 0x210, Peer: 5},
			{At: at(21), Node: 2, Kind: core.SpanPeerDead, Span: 0x211, Parent: 0x210, Peer: 5},
			{At: at(22), Node: 2, Kind: core.SpanRepair, Span: 0x212, Parent: 0x211,
				Peer: 6, Origin: 5, Fanout: 3},
			// Re-flood attempt 1: TTL escalated to RequestTTL+2, forwarded
			// one hop. Hop conservation must use the escalated budget.
			{At: at(30), Node: 1, Kind: core.SpanFloodOrigin, UUID: testUUID, Span: 0x110, Parent: 0x101,
				Msg: core.MsgRequest, Hop: 0, TTL: cfg.RequestTTL + 2, Fanout: 2, Seq: 2, Origin: 1, Attempt: 1},
			{At: at(31), Node: 2, Kind: core.SpanForward, UUID: testUUID, Span: 0x213, Parent: 0x110,
				Msg: core.MsgRequest, Hop: 1, TTL: cfg.RequestTTL + 1, Fanout: 2, Seq: 2, Origin: 1, Peer: 1},
		}
		return append(evs, extra...)
	}

	if rep := Check(clean(), Opts{Protocol: cfg}); !rep.OK() {
		t.Fatalf("clean membership trace reported violations:\n%s", rep)
	}

	cases := []struct {
		name      string
		invariant string
		mutate    func(evs []core.TraceEvent) []core.TraceEvent
	}{
		{
			name: "re-flood exceeds escalation grant", invariant: "reflood-ttl",
			mutate: func(evs []core.TraceEvent) []core.TraceEvent {
				return append(evs, core.TraceEvent{
					At: at(40), Node: 1, Kind: core.SpanFloodOrigin, UUID: testUUID, Span: 0x111,
					Parent: 0x101, Msg: core.MsgRequest, Hop: 0,
					TTL:    cfg.RequestTTL + 2*cfg.ReFloodTTLStep + 1,
					Fanout: 2, Seq: 3, Origin: 1, Attempt: 2,
				})
			},
		},
		{
			name: "assign targets a dead peer", invariant: "dead-peer-send",
			mutate: func(evs []core.TraceEvent) []core.TraceEvent {
				return append(evs,
					core.TraceEvent{At: at(40), Node: 1, Kind: core.SpanPeerDead, Span: 0x112, Peer: 3},
					core.TraceEvent{At: at(41), Node: 1, Kind: core.SpanAssign, UUID: testUUID,
						Span: 0x113, Parent: 0x102, Peer: 3, Cost: 10},
					core.TraceEvent{At: at(42), Node: 3, Kind: core.SpanEnqueue, UUID: testUUID,
						Span: 0x310, Parent: 0x113, Peer: 1})
			},
		},
		{
			name: "repair reconnects a dead peer", invariant: "dead-peer-send",
			mutate: func(evs []core.TraceEvent) []core.TraceEvent {
				return append(evs, core.TraceEvent{
					At: at(40), Node: 2, Kind: core.SpanRepair, Span: 0x214, Parent: 0x211,
					Peer: 5, Origin: 5, Fanout: 3,
				})
			},
		},
		{
			name: "repair exceeds degree bound", invariant: "repair-degree",
			mutate: func(evs []core.TraceEvent) []core.TraceEvent {
				return append(evs, core.TraceEvent{
					At: at(40), Node: 2, Kind: core.SpanRepair, Span: 0x215, Parent: 0x211,
					Peer: 7, Origin: 5, Fanout: cfg.MaxDegree + 1,
				})
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := Check(tc.mutate(clean()), Opts{Protocol: cfg})
			if rep.OK() {
				t.Fatalf("checker missed the %q breach", tc.invariant)
			}
			found := false
			for _, v := range rep.Violations {
				if v.Invariant == tc.invariant {
					found = true
				} else {
					t.Errorf("collateral violation: %v", v)
				}
			}
			if !found {
				t.Fatalf("want a %q violation, got:\n%s", tc.invariant, rep)
			}
		})
	}
}

// TestCheckInFlightCut: a job the horizon cut while queued or running is
// not lost. Naming it in InFlight silences exactly its completeness codes;
// naming another job silences nothing, and a job completed twice is still
// caught.
func TestCheckInFlightCut(t *testing.T) {
	cfg := core.DefaultConfig()
	held := Opts{Protocol: cfg, InFlight: map[job.UUID]bool{testUUID: true}}
	other := Opts{Protocol: cfg, InFlight: map[job.UUID]bool{"another-job": true}}
	cases := []struct {
		name      string
		invariant string
		events    []core.TraceEvent
		clean     bool // with testUUID in flight
	}{
		{"queued at the cut", "exactly-one-start", cleanTrace()[:8], true},
		{"running at the cut", "exactly-one-complete", cleanTrace()[:9], true},
		{"completed twice", "exactly-one-complete", append(cleanTrace(),
			core.TraceEvent{Node: 3, Kind: core.SpanComplete, UUID: testUUID, Span: 0x305, Parent: 0x303}), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := invariantCodes(Check(tc.events, other)); got != tc.invariant {
				t.Fatalf("another job in flight: fired [%s], want exactly [%s]", got, tc.invariant)
			}
			rep := Check(tc.events, held)
			if tc.clean && !rep.OK() {
				t.Fatalf("job in flight still reported:\n%s", rep)
			}
			if got := invariantCodes(rep); !tc.clean && got != tc.invariant {
				t.Fatalf("job in flight: fired [%s], want exactly [%s]", got, tc.invariant)
			}
		})
	}
}
