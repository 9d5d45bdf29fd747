package trace

import (
	"testing"

	"github.com/smartgrid/aria/internal/core"
)

// assigneeRecovery fabricates a crash-restart at assignee node 3: the job
// node 1 assigned starts there, the node crashes mid-execution, and the
// restarted node replays its journal and runs the job again from scratch.
// Every invariant holds (two starts are a legal crash rerun).
func assigneeRecovery() []core.TraceEvent {
	return []core.TraceEvent{
		{Node: 1, Kind: core.SpanAssign, UUID: testUUID, Span: 0x104, Peer: 3},
		{Node: 3, Kind: core.SpanEnqueue, UUID: testUUID, Span: 0x302, Parent: 0x104, Peer: 1},
		{Node: 3, Kind: core.SpanStart, UUID: testUUID, Span: 0x303, Parent: 0x302},
		{Node: 3, Kind: core.SpanLost, UUID: testUUID, Span: 0x304, Parent: 0x303},
		{Node: 3, Kind: core.SpanRestart, Span: 0x305, Fanout: 1},
		{Node: 3, Kind: core.SpanRecovered, UUID: testUUID, Span: 0x306, Parent: 0x303, Msg: core.MsgAssign, Peer: 1},
		{Node: 3, Kind: core.SpanStart, UUID: testUUID, Span: 0x307, Parent: 0x306},
		{Node: 3, Kind: core.SpanComplete, UUID: testUUID, Span: 0x308, Parent: 0x307},
	}
}

// initiatorRecovery fabricates a crash-restart at initiator node 1 after it
// assigned the job to node 3: the replay re-arms the watchdog (a recovered
// NOTIFY span) while node 3 runs the job to completion. Every invariant
// holds.
func initiatorRecovery() []core.TraceEvent {
	return []core.TraceEvent{
		{Node: 1, Kind: core.SpanAssign, UUID: testUUID, Span: 0x104, Peer: 3},
		{Node: 3, Kind: core.SpanEnqueue, UUID: testUUID, Span: 0x302, Parent: 0x104, Peer: 1},
		{Node: 1, Kind: core.SpanRestart, Span: 0x105, Fanout: 1},
		{Node: 1, Kind: core.SpanRecovered, UUID: testUUID, Span: 0x106, Parent: 0x104, Msg: core.MsgNotify, Peer: 3},
		{Node: 3, Kind: core.SpanStart, UUID: testUUID, Span: 0x303, Parent: 0x302},
		{Node: 3, Kind: core.SpanComplete, UUID: testUUID, Span: 0x304, Parent: 0x303},
	}
}

// TestCheckRecoveryInvariants gives each recovery invariant a minimal span
// sequence that fires exactly that code, and a clean twin one edit away
// that fires nothing. These are the trace oracle for Recover.
func TestCheckRecoveryInvariants(t *testing.T) {
	cfg := core.DefaultConfig()
	// Crash reruns start a job twice; recovery-double-exec must stay armed
	// regardless.
	opts := Opts{Protocol: cfg, AllowDuplicateStarts: true}
	reflood := func(span, parent uint64) core.TraceEvent {
		return core.TraceEvent{Node: 1, Kind: core.SpanFloodOrigin, UUID: testUUID, Span: span, Parent: parent,
			Msg: core.MsgRequest, Hop: 0, TTL: cfg.RequestTTL, Fanout: 2, Seq: 9, Origin: 1}
	}
	// The re-opened ASSIGN handshake variant: the recovered span marks a
	// live handshake instead of a re-armed watchdog.
	handshake := func(evs []core.TraceEvent) []core.TraceEvent {
		evs[3].Msg = core.MsgAssignAck
		return evs
	}
	with := func(evs []core.TraceEvent, extra ...core.TraceEvent) []core.TraceEvent {
		return append(evs, extra...)
	}
	edit := func(evs []core.TraceEvent, i int, f func(ev *core.TraceEvent)) []core.TraceEvent {
		f(&evs[i])
		return evs
	}
	cases := []struct {
		name      string
		invariant string
		violating []core.TraceEvent
		clean     []core.TraceEvent
	}{
		{
			name: "replayed span without a pre-crash parent", invariant: "recovered-parent",
			violating: edit(assigneeRecovery(), 5, func(ev *core.TraceEvent) { ev.Parent = 0 }),
			clean:     assigneeRecovery(),
		},
		{
			name: "replay reruns a completed job", invariant: "recovery-double-exec",
			// The job completed before the crash, yet replay started it again.
			violating: edit(assigneeRecovery(), 3, func(ev *core.TraceEvent) { ev.Kind = core.SpanComplete }),
			clean:     assigneeRecovery(),
		},
		{
			name: "replay reruns a job that was never lost", invariant: "recovery-double-exec",
			violating: append(assigneeRecovery()[:3:3], assigneeRecovery()[4:]...),
			clean:     assigneeRecovery(),
		},
		{
			name: "re-flood behind a recovered watchdog", invariant: "recovery-reflood",
			violating: with(initiatorRecovery(), reflood(0x107, 0x106)),
			// A traced watchdog resubmission may re-flood.
			clean: with(initiatorRecovery(),
				core.TraceEvent{Node: 1, Kind: core.SpanResubmit, UUID: testUUID, Span: 0x107, Peer: 3, Attempt: 1},
				reflood(0x108, 0x107)),
		},
		{
			name: "re-flood behind a recovered handshake", invariant: "recovery-reflood",
			violating: with(handshake(initiatorRecovery()), reflood(0x107, 0x106)),
			// The handshake's delivery fallback may re-flood.
			clean: with(handshake(initiatorRecovery()),
				core.TraceEvent{Node: 1, Kind: core.SpanFallback, UUID: testUUID, Span: 0x107, Parent: 0x106, Peer: 3},
				reflood(0x108, 0x107)),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if rep := Check(tc.clean, opts); !rep.OK() {
				t.Fatalf("clean twin reported violations:\n%s", rep)
			}
			rep := Check(tc.violating, opts)
			if got := invariantCodes(rep); got != tc.invariant {
				t.Fatalf("fired [%s], want exactly [%s]:\n%s", got, tc.invariant, rep)
			}
		})
	}
}
