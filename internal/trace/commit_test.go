package trace

import (
	"sort"
	"strings"
	"testing"

	"github.com/smartgrid/aria/internal/core"
)

// commitRound fabricates one optimistic-commit round at initiator node 1: a
// commit to node 5 that draws a busy CONFLICT, then a retry commit to node 6
// that node 6 grants (enqueues). Every invariant holds.
func commitRound() []core.TraceEvent {
	return []core.TraceEvent{
		{Node: 1, Kind: core.SpanCommit, UUID: testUUID, Span: 0x11, Peer: 5, Attempt: 1},
		{Node: 1, Kind: core.SpanConflict, UUID: testUUID, Span: 0x12, Parent: 0x11, Peer: 5, Reason: "busy", Attempt: 1},
		{Node: 1, Kind: core.SpanCommit, UUID: testUUID, Span: 0x13, Parent: 0x12, Peer: 6, Attempt: 2},
		{Node: 6, Kind: core.SpanEnqueue, UUID: testUUID, Span: 0x61, Parent: 0x13, Peer: 1},
	}
}

// withEvents returns the commit round with extra events appended.
func withEvents(extra ...core.TraceEvent) []core.TraceEvent {
	return append(commitRound(), extra...)
}

// edit returns the commit round with one event changed.
func edit(i int, f func(ev *core.TraceEvent)) []core.TraceEvent {
	evs := commitRound()
	f(&evs[i])
	return evs
}

// TestCheckCommitInvariants gives each shared-state commit invariant a
// minimal span sequence that fires exactly that code, and a clean twin one
// edit away that fires nothing.
func TestCheckCommitInvariants(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.SharedStateRetries = 3
	over := cfg.SharedStateRetries + 1
	fallback := func(attempt int, parent uint64) core.TraceEvent {
		return core.TraceEvent{Node: 1, Kind: core.SpanCommitFallback, UUID: testUUID, Span: 0x14, Parent: parent, Attempt: attempt}
	}
	timeout := func(attempt int) core.TraceEvent {
		return core.TraceEvent{Node: 1, Kind: core.SpanConflict, UUID: testUUID, Span: 0x15, Parent: 0x11, Peer: 5, Reason: "timeout", Attempt: attempt}
	}
	cases := []struct {
		name      string
		invariant string
		violating []core.TraceEvent
		clean     []core.TraceEvent
	}{
		{
			name: "retry commit over budget", invariant: "commit-retry-bound",
			violating: edit(2, func(ev *core.TraceEvent) { ev.Attempt = over }),
			clean:     edit(2, func(ev *core.TraceEvent) { ev.Attempt = cfg.SharedStateRetries }),
		},
		{
			name: "timeout verdict over budget", invariant: "commit-retry-bound",
			violating: withEvents(timeout(over)),
			clean:     withEvents(timeout(1)),
		},
		{
			name: "fallback over budget", invariant: "commit-retry-bound",
			violating: withEvents(fallback(over, 0x12)),
			clean:     withEvents(fallback(cfg.SharedStateRetries, 0x12)),
		},
		{
			name: "retry commit without a conflict", invariant: "commit-chain",
			violating: edit(2, func(ev *core.TraceEvent) { ev.Parent = 0x11 }),
			clean:     commitRound(),
		},
		{
			name: "fallback without a conflict", invariant: "commit-chain",
			violating: withEvents(fallback(2, 0x13)),
			clean:     withEvents(fallback(2, 0x12)),
		},
		{
			name: "second provider conflict", invariant: "commit-conflict-once",
			violating: withEvents(core.TraceEvent{Node: 1, Kind: core.SpanConflict, UUID: testUUID, Span: 0x15, Parent: 0x11, Peer: 5, Reason: "stale", Attempt: 1}),
			// One provider reply plus one initiator timeout verdict on the
			// same commit is legal: at most once per side.
			clean: withEvents(timeout(1)),
		},
		{
			name: "second timeout verdict", invariant: "commit-conflict-once",
			violating: withEvents(timeout(1), core.TraceEvent{Node: 1, Kind: core.SpanConflict, UUID: testUUID, Span: 0x16, Parent: 0x11, Peer: 5, Reason: "timeout", Attempt: 1}),
			clean:     withEvents(timeout(1)),
		},
		{
			name: "commit without consequence", invariant: "orphaned-commit",
			violating: commitRound()[:3],
			clean:     commitRound(),
		},
		{
			name: "two live granted copies", invariant: "commit-exactly-one",
			violating: withEvents(core.TraceEvent{Node: 5, Kind: core.SpanEnqueue, UUID: testUUID, Span: 0x51, Parent: 0x11, Peer: 1}),
			// The initiator revoking the first grant leaves one live copy.
			clean: withEvents(
				core.TraceEvent{Node: 5, Kind: core.SpanEnqueue, UUID: testUUID, Span: 0x51, Parent: 0x11, Peer: 1},
				core.TraceEvent{Node: 1, Kind: core.SpanCancel, UUID: testUUID, Span: 0x17, Parent: 0x11, Peer: 5},
			),
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

// invariantCodes lists the distinct invariant codes a report fired.
func invariantCodes(rep Report) string {
	seen := make(map[string]bool)
	var codes []string
	for _, v := range rep.Violations {
		if !seen[v.Invariant] {
			seen[v.Invariant] = true
			codes = append(codes, v.Invariant)
		}
	}
	sort.Strings(codes)
	return strings.Join(codes, " ")
}
