package trace

import (
	"testing"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/overlay"
)

// directedConfig arms directed discovery: two probes a round, and a round
// with fewer than one remote offer falls back to the flood.
func directedConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.DirectedCandidates = 2
	cfg.MinDirectedOffers = 1
	return cfg
}

// directedRound fabricates one directed round at initiator node 1: two
// TTL-0 probes, an offer from node 3, the assignment to node 3, and the
// job's run there. Every invariant holds against directedConfig.
func directedRound() []core.TraceEvent {
	return []core.TraceEvent{
		{Node: 1, Kind: core.SpanSubmit, UUID: testUUID, Span: 0x101},
		{Node: 1, Kind: core.SpanDirectedProbe, UUID: testUUID, Span: 0x102, Parent: 0x101,
			Msg: core.MsgRequest, Hop: 0, TTL: 1, Fanout: 2, Seq: 1, Origin: 1},
		offerAt(3, 0x301, 0x102, 1, 0, 1),
		{Node: 1, Kind: core.SpanOfferRecv, UUID: testUUID, Span: 0x103, Parent: 0x301, Peer: 3, Cost: 10},
		{Node: 1, Kind: core.SpanAssign, UUID: testUUID, Span: 0x104, Parent: 0x102, Peer: 3, Cost: 10},
		{Node: 3, Kind: core.SpanEnqueue, UUID: testUUID, Span: 0x302, Parent: 0x104, Peer: 1},
		{Node: 3, Kind: core.SpanStart, UUID: testUUID, Span: 0x303, Parent: 0x302},
		{Node: 3, Kind: core.SpanComplete, UUID: testUUID, Span: 0x304, Parent: 0x303},
	}
}

// offerAt is node's offer to initiator 1 on wave seq, received at hop with
// ttl hops left.
func offerAt(node overlay.NodeID, span, parent uint64, hop, ttl int, seq uint64) core.TraceEvent {
	return core.TraceEvent{Node: node, Kind: core.SpanOffer, UUID: testUUID, Span: span, Parent: parent,
		Msg: core.MsgRequest, Hop: hop, TTL: ttl, Seq: seq, Origin: 1, Peer: 1, Cost: 10}
}

// starvedRound is the directed round with the given events (the round's
// offers) after the probe, closed by the flood fallback; the flood places
// the job on node 3.
func starvedRound(offers ...core.TraceEvent) []core.TraceEvent {
	cfg := directedConfig()
	evs := append(directedRound()[:2:2], offers...)
	return append(evs,
		core.TraceEvent{Node: 1, Kind: core.SpanDirectoryFallback, UUID: testUUID, Span: 0x105, Parent: 0x102},
		core.TraceEvent{Node: 1, Kind: core.SpanFloodOrigin, UUID: testUUID, Span: 0x106, Parent: 0x105,
			Msg: core.MsgRequest, Hop: 0, TTL: cfg.RequestTTL, Fanout: 2, Seq: 2, Origin: 1},
		core.TraceEvent{Node: 1, Kind: core.SpanAssign, UUID: testUUID, Span: 0x107, Parent: 0x106, Peer: 3, Cost: 10},
		core.TraceEvent{Node: 3, Kind: core.SpanEnqueue, UUID: testUUID, Span: 0x302, Parent: 0x107, Peer: 1},
		core.TraceEvent{Node: 3, Kind: core.SpanStart, UUID: testUUID, Span: 0x303, Parent: 0x302},
		core.TraceEvent{Node: 3, Kind: core.SpanComplete, UUID: testUUID, Span: 0x304, Parent: 0x303},
	)
}

// selfAssigned is the directed round closed by the initiator assigning the
// job to itself, with the given events (the round's offers) after the
// probe.
func selfAssigned(offers ...core.TraceEvent) []core.TraceEvent {
	evs := append(directedRound()[:2:2], offers...)
	return append(evs,
		core.TraceEvent{Node: 1, Kind: core.SpanAssign, UUID: testUUID, Span: 0x104, Parent: 0x102, Peer: 1},
		core.TraceEvent{Node: 1, Kind: core.SpanEnqueue, UUID: testUUID, Span: 0x105, Parent: 0x104, Peer: 1},
		core.TraceEvent{Node: 1, Kind: core.SpanStart, UUID: testUUID, Span: 0x106, Parent: 0x105},
		core.TraceEvent{Node: 1, Kind: core.SpanComplete, UUID: testUUID, Span: 0x107, Parent: 0x106},
	)
}

// editEvent returns evs with one event changed.
func editEvent(evs []core.TraceEvent, i int, f func(ev *core.TraceEvent)) []core.TraceEvent {
	f(&evs[i])
	return evs
}

// TestCheckDirectedInvariants gives every add site of the directed
// invariants a minimal span sequence that fires exactly that code, and a
// clean twin one edit away that fires nothing.
func TestCheckDirectedInvariants(t *testing.T) {
	cfg := directedConfig()
	received := directedRound()[2:4]
	fourthOffer := offerAt(4, 0x401, 0x102, 1, 0, 1)
	cases := []struct {
		name      string
		invariant string
		violating []core.TraceEvent
		clean     []core.TraceEvent
	}{
		{
			name: "round probes past the budget", invariant: "directed-budget",
			violating: editEvent(directedRound(), 1, func(ev *core.TraceEvent) { ev.Fanout = cfg.DirectedCandidates + 1 }),
			clean:     directedRound(),
		},
		{
			name: "probe wave yields more offers than probes", invariant: "directed-budget",
			violating: editEvent(append(directedRound(), fourthOffer), 1, func(ev *core.TraceEvent) { ev.Fanout = 1 }),
			clean:     append(directedRound(), fourthOffer),
		},
		{
			name: "fallback although offers arrived", invariant: "directed-fallback",
			violating: starvedRound(received...),
			clean:     starvedRound(),
		},
		{
			name: "starved round closed without the fallback", invariant: "directed-fallback",
			violating: selfAssigned(),
			clean:     selfAssigned(received...),
		},
		{
			name: "round never closed", invariant: "directed-fallback",
			// The assignment parents to the submission, not the probe, so
			// nothing closes the round.
			violating: editEvent(directedRound(), 4, func(ev *core.TraceEvent) { ev.Parent = 0x101 }),
			clean:     directedRound(),
		},
		{
			name: "assignment to a node that never offered", invariant: "directed-assign-match",
			violating: editEvent(editEvent(directedRound(), 4, func(ev *core.TraceEvent) { ev.Peer = 4 }),
				5, func(ev *core.TraceEvent) { ev.Node = 4 }),
			clean: directedRound(),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if rep := Check(tc.clean, Opts{Protocol: cfg}); !rep.OK() {
				t.Fatalf("clean twin reported violations:\n%s", rep)
			}
			rep := Check(tc.violating, Opts{Protocol: cfg})
			if got := invariantCodes(rep); got != tc.invariant {
				t.Fatalf("fired [%s], want exactly [%s]:\n%s", got, tc.invariant, rep)
			}
		})
	}
}

// shedRound fabricates a shed ASSIGN: node 1 floods, assigns to node 3,
// node 3 is saturated and answers BUSY, node 1 sheds the job into a fresh
// flood and places it on node 2. Every invariant holds.
func shedRound() []core.TraceEvent {
	cfg := core.DefaultConfig()
	flood := func(span, parent, seq uint64) core.TraceEvent {
		return core.TraceEvent{Node: 1, Kind: core.SpanFloodOrigin, UUID: testUUID, Span: span, Parent: parent,
			Msg: core.MsgRequest, Hop: 0, TTL: cfg.RequestTTL, Fanout: 2, Seq: seq, Origin: 1}
	}
	return []core.TraceEvent{
		{Node: 1, Kind: core.SpanSubmit, UUID: testUUID, Span: 0x101},
		flood(0x102, 0x101, 1),
		offerAt(3, 0x301, 0x102, 1, cfg.RequestTTL-1, 1),
		{Node: 1, Kind: core.SpanOfferRecv, UUID: testUUID, Span: 0x103, Parent: 0x301, Peer: 3, Cost: 10},
		{Node: 1, Kind: core.SpanAssign, UUID: testUUID, Span: 0x104, Parent: 0x102, Peer: 3, Cost: 10},
		{Node: 3, Kind: core.SpanBusy, UUID: testUUID, Span: 0x302, Parent: 0x104, Msg: core.MsgAssign, Peer: 1},
		{Node: 1, Kind: core.SpanShed, UUID: testUUID, Span: 0x105, Parent: 0x302, Peer: 3},
		flood(0x106, 0x105, 2),
		offerAt(2, 0x201, 0x106, 1, cfg.RequestTTL-1, 2),
		{Node: 1, Kind: core.SpanOfferRecv, UUID: testUUID, Span: 0x107, Parent: 0x201, Peer: 2, Cost: 10},
		{Node: 1, Kind: core.SpanAssign, UUID: testUUID, Span: 0x108, Parent: 0x106, Peer: 2, Cost: 10},
		{Node: 2, Kind: core.SpanEnqueue, UUID: testUUID, Span: 0x202, Parent: 0x108, Peer: 1},
		{Node: 2, Kind: core.SpanStart, UUID: testUUID, Span: 0x203, Parent: 0x202},
		{Node: 2, Kind: core.SpanComplete, UUID: testUUID, Span: 0x204, Parent: 0x203},
	}
}

// TestCheckShedAndCompletionInvariants gives every add site of shed-assign
// and exactly-one-complete a minimal span sequence that fires exactly that
// code, and a clean twin one edit away that fires nothing.
func TestCheckShedAndCompletionInvariants(t *testing.T) {
	cfg := core.DefaultConfig()
	cases := []struct {
		name      string
		invariant string
		violating []core.TraceEvent
		clean     []core.TraceEvent
	}{
		{
			name: "BUSY never answered by a shed", invariant: "shed-assign",
			violating: editEvent(shedRound(), 6, func(ev *core.TraceEvent) { ev.Parent = 0x104 }),
			clean:     shedRound(),
		},
		{
			name: "shed with no re-dispatch", invariant: "shed-assign",
			violating: editEvent(shedRound(), 7, func(ev *core.TraceEvent) { ev.Parent = 0x302 }),
			clean:     shedRound(),
		},
		{
			name: "completed twice", invariant: "exactly-one-complete",
			violating: append(cleanTrace(), core.TraceEvent{Node: 3, Kind: core.SpanComplete, UUID: testUUID, Span: 0x305, Parent: 0x303}),
			clean:     cleanTrace(),
		},
		{
			name: "started but never completed", invariant: "exactly-one-complete",
			violating: cleanTrace()[:9],
			clean:     cleanTrace(),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if rep := Check(tc.clean, Opts{Protocol: cfg}); !rep.OK() {
				t.Fatalf("clean twin reported violations:\n%s", rep)
			}
			rep := Check(tc.violating, Opts{Protocol: cfg})
			if got := invariantCodes(rep); got != tc.invariant {
				t.Fatalf("fired [%s], want exactly [%s]:\n%s", got, tc.invariant, rep)
			}
		})
	}
}
