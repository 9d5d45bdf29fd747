package trace

import (
	"fmt"
	"sort"
	"strings"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/sched"
)

// Opts configures an invariant check. Protocol carries the configuration
// the traced deployment ran with; the bound invariants (TTL, fanout,
// threshold, retry budgets) come from it, so a sweep that raises RequestTTL
// is checked against its own limits, not the paper defaults.
type Opts struct {
	Protocol core.Config

	// AllowDuplicateStarts tolerates more than one start (and complete)
	// per job: legitimate under multi-assign racing and under failsafe
	// resubmission, where a presumed-dead assignee may still finish.
	AllowDuplicateStarts bool

	// AllowIncomplete tolerates jobs that never reach a terminal state
	// within the trace: crash/churn scenarios lose work on purpose, and
	// live traces are cut off mid-flight.
	AllowIncomplete bool

	// InFlight names the jobs still queued or running where the trace was
	// cut (a simulation horizon, a live capture). The completeness audit
	// skips exactly these: their start or completion lies beyond the cut.
	InFlight map[job.UUID]bool

	// AllowLoss tolerates assignment spans with no observable follow-up:
	// without the AssignAck handshake a lossy link can swallow an ASSIGN
	// leaving no child event. With the handshake on, leave this false even
	// for lossy runs — retries and fallbacks are traced, so every assign
	// still has a consequence.
	AllowLoss bool
}

// Violation is one invariant breach, anchored to the event exposing it.
type Violation struct {
	Invariant string         // short code, e.g. "flood-ttl"
	UUID      job.UUID       // affected job
	Node      overlay.NodeID // node whose event exposed the breach (0 if job-level)
	Span      uint64         // offending span (0 if job-level)
	Detail    string         // human-readable specifics
}

func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] job %s", v.Invariant, v.UUID.Short())
	if v.Span != 0 {
		fmt.Fprintf(&b, " node %d span %#x", v.Node, v.Span)
	}
	fmt.Fprintf(&b, ": %s", v.Detail)
	return b.String()
}

// Report is the result of one invariant check.
type Report struct {
	Events     int
	Jobs       int
	ByKind     map[core.SpanKind]int
	Violations []Violation
}

// OK reports whether no invariant was violated.
func (r Report) OK() bool { return len(r.Violations) == 0 }

// String summarizes the report; violations are listed one per line.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events, %d jobs, %d violations", r.Events, r.Jobs, len(r.Violations))
	kinds := make([]string, 0, len(r.ByKind))
	for k := range r.ByKind {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "\n  %-14s %d", k, r.ByKind[core.SpanKind(k)])
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "\n  VIOLATION %s", v)
	}
	return b.String()
}

// waveKey names one flood wave, mirroring the engine's dedup key.
type waveKey struct {
	uuid   job.UUID
	msg    core.MsgType
	origin overlay.NodeID
	seq    uint64
}

// nodeWave names one node's participation in one wave.
type nodeWave struct {
	wave waveKey
	node overlay.NodeID
}

// Check audits a run's span events against the protocol invariants:
//
//   - flood-ttl / flood-fanout: REQUEST floods respect RequestTTL and
//     RequestFanout, INFORM floods InformTTL and InformFanout.
//   - hop-conservation: Hop+TTL is invariant along a wave (equal to the
//     configured TTL budget), so hop counts are trustworthy.
//   - double-forward: a node forwards a given wave at most once; duplicate
//     receipts are suppressed, not re-forwarded.
//   - reschedule-threshold: every reschedule improves the job's cost by
//     strictly more than RescheduleThreshold.
//   - retry-bound: ASSIGN retransmissions stay within AssignMaxRetries and
//     watchdog resubmissions within MaxRequestRetries.
//   - orphaned-assign: every assignment or reschedule handoff has an
//     observable consequence — an enqueue at the target, a retry, or a
//     fallback (relaxed by AllowLoss).
//   - exactly-one-start / exactly-one-complete: each submitted job starts
//     and completes exactly once (relaxed by AllowDuplicateStarts /
//     AllowIncomplete; a job in InFlight may still be waiting to).
//   - dangling-parent: every parent reference resolves to an emitted span.
//   - reflood-ttl: watchdog re-floods may escalate the TTL, but never beyond
//     RequestTTL + attempt·ReFloodTTLStep.
//   - dead-peer-send: once a node declares a peer dead (terminal), none of
//     its later protocol steps target that peer. Restarts relax this on
//     both sides: a rebooted observer forgets its verdicts (the journal
//     holds scheduler state only), and a verdict against a peer that ever
//     reboots is incarnation-ambiguous — spans carry no incarnation number,
//     so reconnecting to the revenant is re-admission, not a breach.
//   - repair-degree: overlay repair never pushes a node past MaxDegree.
//   - recovered-parent: every replayed span links into the pre-crash causal
//     tree (a recovery that cannot name what it recovered replayed garbage).
//   - recovery-reflood: a recovered tracked job or in-flight handshake must
//     not originate a fresh REQUEST flood while its pre-crash ASSIGN is
//     still live — only a traced watchdog resubmission or delivery fallback
//     may re-flood it.
//   - recovery-double-exec: a start caused by journal replay must not
//     re-execute a job the same node already ran (started without a crash,
//     or completed). This stays armed even under AllowDuplicateStarts:
//     failsafe races may double-start across nodes, but replay re-running
//     finished local work means the journal lied.
//   - directed-budget: a directed discovery round probes at most
//     DirectedCandidates nodes, and no directed wave collects more offers
//     than it sent probes (a probe never propagates beyond its target).
//   - directed-fallback: the flood fallback fires exactly when a directed
//     round starves — a round with fewer than MinDirectedOffers remote
//     offers must close with the fallback (or a crash loss), and a round
//     with enough offers must never fall back.
//   - directed-assign-match: a directed round's assignment targets the
//     initiator itself or a node that actually offered during the round —
//     an offer is the proof the target's live profile satisfies the job,
//     so no directed ASSIGN ever lands on a non-satisfying (or corpse)
//     profile the cache merely remembered.
//   - shed-assign: a shed ASSIGN is never orphaned. The provider's BUSY
//     reply must be answered by a shed re-dispatch at the sender (relaxed
//     by AllowLoss and AllowIncomplete: a lost BUSY falls back to the
//     retry ladder, and a crashed sender loses the handshake), and every
//     shed span must have a re-dispatch child — the engine re-homes the
//     job in the same step, so a childless shed means it dropped the job.
//   - commit-retry-bound: optimistic-commit attempts stay within
//     SharedStateRetries — on every commit span, every timeout verdict,
//     and the fallback escalation.
//   - commit-chain: a retry commit (attempt ≥ 2) and the flood fallback
//     each parent to a conflict span — the view is re-consulted only as
//     the consequence of a typed CONFLICT (or a timeout verdict), never
//     speculatively.
//   - commit-conflict-once: each commit attempt resolves at most once per
//     side — at most one provider CONFLICT reply and at most one
//     initiator timeout verdict per commit span.
//   - orphaned-commit: every commit span has an observable consequence —
//     a conflict, a grant's enqueue at the provider, a duplicate
//     re-grant, a revoking cancel, or a crash loss (relaxed by AllowLoss
//     and AllowIncomplete).
//   - commit-exactly-one: concurrent optimistic commits place at most one
//     live copy — per job, granted commit spans (an enqueue child, no
//     revoking cancel) never exceed one plus the traced resubmissions.
func Check(events []core.TraceEvent, opts Opts) Report {
	rep := Report{
		Events: len(events),
		ByKind: make(map[core.SpanKind]int),
	}
	add := func(inv string, ev core.TraceEvent, format string, args ...interface{}) {
		rep.Violations = append(rep.Violations, Violation{
			Invariant: inv, UUID: ev.UUID, Node: ev.Node, Span: ev.Span,
			Detail: fmt.Sprintf(format, args...),
		})
	}

	cfg := opts.Protocol
	spans := make(map[uint64]bool, len(events))
	jobs := make(map[job.UUID]*jobState)
	forwards := make(map[nodeWave]int)
	js := func(u job.UUID) *jobState {
		s := jobs[u]
		if s == nil {
			s = &jobState{}
			jobs[u] = s
		}
		return s
	}

	// TTL-budget prepass: escalated re-floods legitimately carry a larger
	// hop budget than cfg.RequestTTL, so hop conservation must be checked
	// against each wave's own budget, read off its origin event (hop 0).
	// Directed probe waves carry a budget of 1 (one unicast hop, nothing to
	// forward), so their receivers' offer events share the same audit.
	waveBudget := make(map[waveKey]int)
	directedWaves := make(map[waveKey]int) // probe count per directed wave
	kindOf := make(map[uint64]core.SpanKind, len(events))
	for _, ev := range events {
		if ev.Kind == core.SpanFloodOrigin || ev.Kind == core.SpanDirectedProbe {
			k := waveKey{uuid: ev.UUID, msg: ev.Msg, origin: ev.Origin, seq: ev.Seq}
			waveBudget[k] = ev.Hop + ev.TTL
			if ev.Kind == core.SpanDirectedProbe {
				directedWaves[k] = ev.Fanout
			}
		}
		if ev.Span != 0 {
			kindOf[ev.Span] = ev.Kind
		}
	}
	waveOffers := make(map[waveKey]int)

	// Optimistic-commit state: conflict replies and timeout verdicts per
	// commit span, for the at-most-once resolution audit.
	provConflicts := make(map[uint64]int)
	timeoutConflicts := make(map[uint64]int)

	// dead-peer-send state: pairs (observer, peer) with a terminal dead
	// verdict. Events arrive in emission order, so a plain forward scan
	// respects each node's local causality.
	type nodePeer struct{ node, peer overlay.NodeID }
	dead := make(map[nodePeer]bool)

	// Restart prepass: dead verdicts against a node that reboots at any
	// point are incarnation-ambiguous and exempt from dead-peer-send.
	restarted := make(map[overlay.NodeID]bool)
	for _, ev := range events {
		if ev.Kind == core.SpanRestart {
			restarted[ev.Node] = true
		}
	}

	// Recovery-plane state. recoveredSpans lets a later start prove it was
	// caused by replay (its parent is a SpanRecovered span); liveAssign marks
	// (node, job) pairs whose recovered ASSIGN is still outstanding and so
	// must not re-flood; started/completed track each node's own execution
	// history for the replay double-run audit.
	type nodeJob struct {
		node overlay.NodeID
		uuid job.UUID
	}
	recoveredSpans := make(map[uint64]bool)
	liveAssign := make(map[nodeJob]bool)
	started := make(map[nodeJob]bool)
	completed := make(map[nodeJob]bool)

	// Directed-discovery state: at most one round is open per (initiator,
	// job) — the engine keys pending rounds the same way — so offer_recv
	// events at the initiator while its round is open are exactly the
	// offers the engine's fallback gate counted (including stale ACCEPTs
	// from slow candidates, which the gate counts too). The round closes
	// at the first child of the probe span: fallback, assign, retry
	// re-flood, fail, or a crash loss.
	type directedRound struct {
		open   core.TraceEvent // the directed-probe event
		offers int
		peers  map[overlay.NodeID]bool
	}
	openDirected := make(map[nodeJob]*directedRound)

	for _, ev := range events {
		rep.ByKind[ev.Kind]++
		if ev.Span != 0 {
			spans[ev.Span] = true
		}

		// Membership events carry no job; keep them out of the per-job
		// lifecycle audit.
		switch ev.Kind {
		case core.SpanSuspect:
			continue
		case core.SpanPeerDead:
			if !restarted[ev.Peer] {
				dead[nodePeer{ev.Node, ev.Peer}] = true
			}
			continue
		case core.SpanRepair:
			if dead[nodePeer{ev.Node, ev.Peer}] {
				add("dead-peer-send", ev, "repair reconnected to peer %d already declared dead", ev.Peer)
			}
			if cfg.MaxDegree > 0 && ev.Fanout > cfg.MaxDegree {
				add("repair-degree", ev, "repair left node at degree %d, bound %d", ev.Fanout, cfg.MaxDegree)
			}
			continue
		case core.SpanRestart:
			// Node-level recovery marker; carries no job. The journal holds
			// scheduler state only, so a restarted node comes back with no
			// memory of its membership verdicts: wipe the ones this
			// incarnation never made.
			for np := range dead {
				if np.node == ev.Node {
					delete(dead, np)
				}
			}
			continue
		case core.SpanRecovered:
			if ev.Parent == 0 {
				add("recovered-parent", ev, "replayed %s span has no pre-crash parent", ev.Msg)
			}
			recoveredSpans[ev.Span] = true
			if ev.Msg == core.MsgNotify || ev.Msg == core.MsgAssignAck {
				// A re-armed watchdog or re-opened handshake: the pre-crash
				// ASSIGN for this job is still live at this node.
				liveAssign[nodeJob{ev.Node, ev.UUID}] = true
			}
			continue
		case core.SpanOffer, core.SpanRetry, core.SpanAssign, core.SpanReschedule, core.SpanCommit:
			if dead[nodePeer{ev.Node, ev.Peer}] {
				add("dead-peer-send", ev, "%s targets peer %d already declared dead", ev.Kind, ev.Peer)
			}
		}
		s := js(ev.UUID)
		nk := nodeJob{ev.Node, ev.UUID}

		switch ev.Kind {
		case core.SpanSubmit:
			s.submits++
		case core.SpanStart:
			s.starts++
			if recoveredSpans[ev.Parent] && (started[nk] || completed[nk]) {
				add("recovery-double-exec", ev, "journal replay re-ran a job this node already executed")
			}
			started[nk] = true
		case core.SpanComplete:
			s.completes++
			completed[nk] = true
		case core.SpanFail:
			s.fails++
			delete(liveAssign, nk)
		case core.SpanLost:
			s.losses++
			// A crash wipes the node's execution; a post-recovery re-run of
			// the in-flight job is the protocol working as designed.
			delete(started, nk)
			delete(liveAssign, nk)
		case core.SpanFallback, core.SpanCancel:
			delete(liveAssign, nk)
		case core.SpanShed:
			// The shed re-dispatch (a re-flood or local re-enqueue) is the
			// legitimate continuation of a recovered handshake.
			delete(liveAssign, nk)
			s.sheds = append(s.sheds, ev)
		case core.SpanBusy:
			if ev.Msg == core.MsgAssign {
				s.busyAssigns = append(s.busyAssigns, ev)
			}
		case core.SpanResubmit:
			s.resubmits++
			delete(liveAssign, nk)
			if ev.Attempt > cfg.MaxRequestRetries {
				add("retry-bound", ev, "resubmission %d exceeds MaxRequestRetries %d", ev.Attempt, cfg.MaxRequestRetries)
			}
		case core.SpanRetry:
			if ev.Attempt > cfg.AssignMaxRetries {
				add("retry-bound", ev, "ASSIGN retry %d exceeds AssignMaxRetries %d", ev.Attempt, cfg.AssignMaxRetries)
			}
		case core.SpanAssign, core.SpanReschedule:
			s.assigns = append(s.assigns, ev)
		case core.SpanFloodOrigin:
			if ev.Attempt > cfg.MaxRequestRetries {
				add("retry-bound", ev, "REQUEST re-flood %d exceeds MaxRequestRetries %d", ev.Attempt, cfg.MaxRequestRetries)
			}
			if ev.Msg == core.MsgRequest && liveAssign[nk] {
				add("recovery-reflood", ev, "fresh REQUEST flood while the recovered ASSIGN for this job is still live")
			}
			if ev.Msg == core.MsgRequest {
				bound := cfg.RequestTTL + ev.Attempt*cfg.ReFloodTTLStep
				if ev.TTL > bound {
					add("reflood-ttl", ev, "re-flood %d carries TTL %d, bound %d (RequestTTL %d + %d·ReFloodTTLStep %d)",
						ev.Attempt, ev.TTL, bound, cfg.RequestTTL, ev.Attempt, cfg.ReFloodTTLStep)
				}
			}
		case core.SpanCommit:
			s.commits = append(s.commits, ev)
			if cfg.SharedStateRetries > 0 && ev.Attempt > cfg.SharedStateRetries {
				add("commit-retry-bound", ev, "commit attempt %d exceeds SharedStateRetries %d", ev.Attempt, cfg.SharedStateRetries)
			}
			if ev.Attempt > 1 && kindOf[ev.Parent] != core.SpanConflict {
				add("commit-chain", ev, "retry commit (attempt %d) parents a %s span, not the conflict that justified it", ev.Attempt, kindOf[ev.Parent])
			}
		case core.SpanConflict:
			if ev.Reason == "timeout" {
				// Initiator-side verdict: a silent provider, charged against
				// the same retry budget as a typed reply.
				if cfg.SharedStateRetries > 0 && ev.Attempt > cfg.SharedStateRetries {
					add("commit-retry-bound", ev, "timeout verdict %d exceeds SharedStateRetries %d", ev.Attempt, cfg.SharedStateRetries)
				}
				timeoutConflicts[ev.Parent]++
				if timeoutConflicts[ev.Parent] == 2 {
					add("commit-conflict-once", ev, "commit span %#x timed out twice", ev.Parent)
				}
			} else {
				provConflicts[ev.Parent]++
				if provConflicts[ev.Parent] == 2 {
					add("commit-conflict-once", ev, "commit span %#x drew a second CONFLICT reply", ev.Parent)
				}
			}
		case core.SpanCommitFallback:
			if ev.Attempt < 1 || (cfg.SharedStateRetries > 0 && ev.Attempt > cfg.SharedStateRetries) {
				add("commit-retry-bound", ev, "flood fallback after %d commit attempts, budget %d", ev.Attempt, cfg.SharedStateRetries)
			}
			if kindOf[ev.Parent] != core.SpanConflict {
				add("commit-chain", ev, "flood fallback parents a %s span, not the conflict that exhausted the round", kindOf[ev.Parent])
			}
		}

		// Directed-round lifecycle. The opening probe is budget-checked
		// against DirectedCandidates; every later event at the same
		// (node, job) either feeds the round (offer_recv) or closes it,
		// and a closer's kind must agree with the starvation verdict:
		// the fallback fires iff fewer than MinDirectedOffers arrived.
		switch ev.Kind {
		case core.SpanDirectedProbe:
			if cfg.DirectedCandidates > 0 && ev.Fanout > cfg.DirectedCandidates {
				add("directed-budget", ev, "directed round probed %d nodes, bound %d", ev.Fanout, cfg.DirectedCandidates)
			}
			openDirected[nk] = &directedRound{open: ev, peers: make(map[overlay.NodeID]bool)}
		default:
			if r := openDirected[nk]; r != nil {
				switch {
				case ev.Kind == core.SpanOfferRecv:
					r.offers++
					r.peers[ev.Peer] = true
				case ev.Parent != r.open.Span:
					// A child of some other span; not this round's closer.
				case ev.Kind == core.SpanLost:
					delete(openDirected, nk) // crash loses the round; no verdict
				case ev.Kind == core.SpanDirectoryFallback:
					if cfg.MinDirectedOffers > 0 && r.offers >= cfg.MinDirectedOffers {
						add("directed-fallback", ev, "flood fallback fired although %d offers arrived, min %d", r.offers, cfg.MinDirectedOffers)
					}
					delete(openDirected, nk)
				case ev.Kind == core.SpanAssign || ev.Kind == core.SpanFloodOrigin || ev.Kind == core.SpanFail:
					if cfg.MinDirectedOffers > 0 && r.offers < cfg.MinDirectedOffers {
						add("directed-fallback", ev, "%s closed a directed round with %d offers, min %d — the flood fallback never fired", ev.Kind, r.offers, cfg.MinDirectedOffers)
					}
					if ev.Kind == core.SpanAssign && ev.Peer != ev.Node && !r.peers[ev.Peer] {
						add("directed-assign-match", ev, "directed ASSIGN targets node %d, which never offered in the round", ev.Peer)
					}
					delete(openDirected, nk)
				}
			}
		}

		// Directed waves collect at most one offer per probe: a TTL-0
		// probe dies at its target, so more offers than probes means a
		// probe propagated.
		if ev.Kind == core.SpanOffer {
			k := waveKey{uuid: ev.UUID, msg: ev.Msg, origin: ev.Origin, seq: ev.Seq}
			if probes, ok := directedWaves[k]; ok {
				waveOffers[k]++
				if waveOffers[k] > probes {
					add("directed-budget", ev, "directed wave (origin %d seq %d) yielded %d offers from %d probes", ev.Origin, ev.Seq, waveOffers[k], probes)
				}
			}
		}

		// Flood-shape invariants, against the wave's own budget (escalated
		// re-floods carry a larger one than the configured default). The
		// message-type guard keeps non-flood duplicates (e.g. a suppressed
		// duplicate ASSIGN) out of the hop accounting.
		if isFloodEvent(ev.Kind) && (ev.Msg == core.MsgRequest || ev.Msg == core.MsgInform) {
			budgetTTL, budgetFan := cfg.RequestTTL, cfg.RequestFanout
			if ev.Msg == core.MsgInform {
				budgetTTL, budgetFan = cfg.InformTTL, cfg.InformFanout
			}
			if b, ok := waveBudget[waveKey{uuid: ev.UUID, msg: ev.Msg, origin: ev.Origin, seq: ev.Seq}]; ok {
				budgetTTL = b
			}
			if ev.Hop < 0 || ev.Hop > budgetTTL || ev.TTL < 0 || ev.TTL > budgetTTL {
				add("flood-ttl", ev, "%s %s hop %d ttl %d outside budget %d", ev.Msg, ev.Kind, ev.Hop, ev.TTL, budgetTTL)
			} else if ev.Hop+ev.TTL != budgetTTL {
				add("hop-conservation", ev, "%s %s hop %d + ttl %d != budget %d", ev.Msg, ev.Kind, ev.Hop, ev.TTL, budgetTTL)
			}
			if (ev.Kind == core.SpanFloodOrigin || ev.Kind == core.SpanForward) && ev.Fanout > budgetFan {
				add("flood-fanout", ev, "%s %s contacted %d neighbors, budget %d", ev.Msg, ev.Kind, ev.Fanout, budgetFan)
			}
			if ev.Kind == core.SpanForward && !cfg.DisableDuplicateSuppression {
				k := nodeWave{
					wave: waveKey{uuid: ev.UUID, msg: ev.Msg, origin: ev.Origin, seq: ev.Seq},
					node: ev.Node,
				}
				forwards[k]++
				if forwards[k] == 2 {
					add("double-forward", ev, "node forwarded wave (origin %d seq %d) more than once", ev.Origin, ev.Seq)
				}
			}
		}

		// Reschedule economics: the improvement must be strictly greater
		// than the threshold. The comparison replicates the engine's own
		// (identical float arithmetic), so exact comparison is sound.
		if ev.Kind == core.SpanReschedule {
			threshold := sched.Cost(cfg.RescheduleThreshold.Seconds())
			if ev.Cost >= ev.OldCost-threshold {
				add("reschedule-threshold", ev,
					"reschedule to node %d improves cost %.3f -> %.3f, not more than threshold %.3f",
					ev.Peer, float64(ev.OldCost), float64(ev.Cost), float64(threshold))
			}
		}
	}
	rep.Jobs = len(jobs)

	// Every directed round must reach a verdict within the trace: a round
	// left open means the decision timer's consequence (assign, fallback,
	// retry, fail) was never traced. Live traces cut off mid-flight relax
	// this the same way they relax job completion.
	if !opts.AllowIncomplete {
		open := make([]nodeJob, 0, len(openDirected))
		for nk := range openDirected {
			open = append(open, nk)
		}
		sort.Slice(open, func(i, k int) bool {
			if open[i].uuid != open[k].uuid {
				return open[i].uuid < open[k].uuid
			}
			return open[i].node < open[k].node
		})
		for _, nk := range open {
			r := openDirected[nk]
			rep.Violations = append(rep.Violations, Violation{
				Invariant: "directed-fallback", UUID: nk.uuid, Node: nk.node, Span: r.open.Span,
				Detail: fmt.Sprintf("directed round collected %d offers but never closed (no assign, fallback, retry, or loss)", r.offers),
			})
		}
	}

	// Parent references must resolve. Parent spans are emitted at the
	// sender before the message they ride can be received, so this holds
	// even under loss, duplication, and partitions.
	for _, ev := range events {
		if ev.Parent != 0 && !spans[ev.Parent] {
			add("dangling-parent", ev, "parent span %#x was never emitted", ev.Parent)
		}
	}

	// Children per span, for the orphaned-assign and commit audits. A
	// commit span's enqueue child is the provider's grant; a cancel child
	// is the initiator revoking a possibly-granted copy.
	children := make(map[uint64]int, len(events))
	enqKids := make(map[uint64]bool)
	cancelKids := make(map[uint64]bool)
	for _, ev := range events {
		if ev.Parent != 0 {
			children[ev.Parent]++
			switch ev.Kind {
			case core.SpanEnqueue:
				enqKids[ev.Parent] = true
			case core.SpanCancel:
				cancelKids[ev.Parent] = true
			}
		}
	}

	uuids := make([]job.UUID, 0, len(jobs))
	for u := range jobs {
		uuids = append(uuids, u)
	}
	sort.Slice(uuids, func(i, k int) bool { return uuids[i] < uuids[k] })
	for _, u := range uuids {
		s := jobs[u]
		jv := func(inv, format string, args ...interface{}) {
			rep.Violations = append(rep.Violations, Violation{
				Invariant: inv, UUID: u, Detail: fmt.Sprintf(format, args...),
			})
		}

		// Every assignment must have a consequence: the target enqueued
		// under it, a retry went out, or the fallback re-homed the job.
		if !opts.AllowLoss {
			for _, a := range s.assigns {
				if children[a.Span] == 0 {
					rep.Violations = append(rep.Violations, Violation{
						Invariant: "orphaned-assign", UUID: u, Node: a.Node, Span: a.Span,
						Detail: fmt.Sprintf("%s to node %d has no enqueue, retry, or fallback", a.Kind, a.Peer),
					})
				}
			}
		}

		// A shed ASSIGN must be re-dispatched, never orphaned. The BUSY-
		// answered half needs both relaxations off: AllowLoss covers a
		// swallowed BUSY, AllowIncomplete a sender crashing with the
		// handshake open. The shed-child half stays armed unconditionally:
		// the engine re-dispatches in the same critical section it emits
		// the shed span, so a childless shed means the job was dropped.
		if !opts.AllowLoss && !opts.AllowIncomplete {
			for _, b := range s.busyAssigns {
				if children[b.Span] == 0 {
					rep.Violations = append(rep.Violations, Violation{
						Invariant: "shed-assign", UUID: u, Node: b.Node, Span: b.Span,
						Detail: fmt.Sprintf("BUSY shedding an ASSIGN from node %d was never answered with a re-dispatch", b.Peer),
					})
				}
			}
		}
		for _, sh := range s.sheds {
			if children[sh.Span] == 0 {
				rep.Violations = append(rep.Violations, Violation{
					Invariant: "shed-assign", UUID: u, Node: sh.Node, Span: sh.Span,
					Detail: fmt.Sprintf("shed of the ASSIGN refused by node %d has no re-flood or re-enqueue child", sh.Peer),
				})
			}
		}

		// Every optimistic commit must resolve observably — a conflict, a
		// grant's enqueue, a duplicate re-grant, a revoking cancel, or a
		// crash loss — and the granted ones must place at most one live
		// copy beyond what traced resubmissions justify.
		if !opts.AllowLoss && !opts.AllowIncomplete {
			for _, c := range s.commits {
				if children[c.Span] == 0 {
					rep.Violations = append(rep.Violations, Violation{
						Invariant: "orphaned-commit", UUID: u, Node: c.Node, Span: c.Span,
						Detail: fmt.Sprintf("commit to node %d has no conflict, grant, cancel, or loss", c.Peer),
					})
				}
			}
		}
		liveGrants := 0
		for _, c := range s.commits {
			if enqKids[c.Span] && !cancelKids[c.Span] {
				liveGrants++
			}
		}
		if liveGrants > 1+s.resubmits {
			jv("commit-exactly-one", "%d live commit-granted copies, only %d resubmissions to justify them", liveGrants, s.resubmits)
		}

		// Execution counting. A job observed only mid-trace (no submit)
		// still must not start twice.
		if !opts.AllowDuplicateStarts {
			if s.starts > 1 {
				jv("exactly-one-start", "started %d times", s.starts)
			}
			if s.completes > 1 {
				jv("exactly-one-complete", "completed %d times", s.completes)
			}
		}
		if s.completes > 0 && s.starts == 0 {
			jv("exactly-one-start", "completed without a traced start")
		}
		if !opts.AllowIncomplete && s.submits > 0 && !opts.InFlight[u] {
			if s.starts == 0 && s.fails == 0 {
				jv("exactly-one-start", "submitted but never started or failed")
			}
			if s.starts > 0 && s.completes == 0 {
				jv("exactly-one-complete", "started but never completed")
			}
		}
	}
	return rep
}

// jobState accumulates one job's lifecycle counters during a check.
type jobState struct {
	submits     int
	starts      int
	completes   int
	fails       int
	losses      int
	resubmits   int
	assigns     []core.TraceEvent
	busyAssigns []core.TraceEvent
	sheds       []core.TraceEvent
	commits     []core.TraceEvent
}

func isFloodEvent(k core.SpanKind) bool {
	switch k {
	case core.SpanFloodOrigin, core.SpanForward, core.SpanDuplicate, core.SpanOffer:
		return true
	}
	return false
}
