package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/smartgrid/aria/internal/directory"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/resource"
	"github.com/smartgrid/aria/internal/sched"
	"github.com/smartgrid/aria/internal/sharedstate"
	"github.com/smartgrid/aria/internal/wal"
)

// seenTTL bounds how long flood-deduplication entries are retained; it only
// needs to exceed the lifetime of one flood wave (TTL × max hop latency).
const seenTTL = 5 * time.Minute

// Node is one ARiA protocol participant: it accepts job submissions as an
// initiator, answers REQUEST/INFORM floods with cost offers, queues and
// executes assigned jobs under its local scheduling policy, and advertises
// its queued jobs for dynamic rescheduling.
//
// All state is guarded by one mutex; the engine never blocks and spawns no
// goroutines, so it runs identically under the deterministic simulator and
// under concurrent live transports. Observer callbacks and Env calls are
// made while the lock is held and must not call back into the node.
type Node struct {
	id      overlay.NodeID
	profile resource.Profile
	env     Env
	cfg     Config
	obs     Observer
	tobs    TraceObserver // obs's optional trace extension, nil otherwise
	menv    MembershipEnv // env's optional overlay-surgery extension, nil otherwise
	art     job.ARTModel

	// journal is the optional write-ahead log of scheduler state
	// transitions (fail-recover extension); nil leaves the node fail-stop.
	// It outlives the node: a restarted replacement node replays it.
	journal *wal.Journal

	mu    sync.Mutex
	alive bool
	queue *sched.Queue

	// Execution slot (one job at a time, §III-A).
	running          *job.Job
	runningInitiator overlay.NodeID
	runningEstEnd    time.Duration
	runningTimer     Cancel

	// Initiator-side discovery state.
	pending map[job.UUID]*pendingJob

	// Initiator-side failsafe tracking (NotifyInitiator extension).
	tracked map[job.UUID]*trackedJob

	// Initiator-side multi-assign state (comparison protocol): the
	// assignees holding copies of a job, awaiting first-start revocation.
	multi map[job.UUID][]overlay.NodeID

	// Assignee-side record of each queued job's initiator address,
	// needed to stamp ASSIGN messages during rescheduling.
	initiators map[job.UUID]overlay.NodeID

	// Ack-gated resends (see outbox.go): ASSIGNs awaiting their ack,
	// completion NOTIFYs awaiting the initiator's, and crash-recovered
	// copies fenced until the initiator re-confirms them.
	outbox map[resendKey]*resend

	// Flood duplicate suppression, generational: lookups consult both
	// generations, inserts go to the current one, and every seenTTL the
	// previous generation is discarded wholesale. This gives O(1) inserts
	// with bounded memory — the old per-entry-expiry map re-scanned all
	// ~4k entries on every insert once full, which dominated whole-run
	// profiles at 10k nodes. An entry now suppresses duplicates for
	// between one and two TTLs (instead of exactly one), indistinguishable
	// in practice: waves live for seconds and retries bump Seq. Keys are
	// 64-bit flood fingerprints in an open-addressed set (see seenSet).
	seenCur, seenPrev seenSet
	seenRotateAt      time.Duration

	// Membership plane state (nil maps when the detector is disabled):
	// per-neighbor health records and the neighbor-of-neighbor lists
	// gossiped on PING/PONG, from which overlay repair draws candidates.
	peers       map[overlay.NodeID]*peerHealth
	nbrPeers    map[overlay.NodeID][]overlay.NodeID
	probeIdx    int
	probeCancel Cancel

	// Directory plane state (nil when directed discovery is disabled): the
	// gossip-fed profile cache and the restart counter stamped into the
	// node's own digest (encoded fresh per send, so the load hint is live),
	// plus the scratch digests gossip payloads are built and decoded in.
	dir         *directory.Store
	incarnation uint64
	dirScratch  []directory.Digest

	// Shared-state plane state (nil when the optimistic-commit arm is
	// disabled): the cluster view layered on the directory store, the open
	// commit rounds, and — provider side — the instant of the last granted
	// commit, which classifies a bound-hit conflict as lost-the-race versus
	// plain stale.
	view            *sharedstate.Store
	commits         map[job.UUID]*pendingCommit
	lastCommitGrant time.Duration

	// Trace plane bookkeeping (only maintained with a TraceObserver):
	// the span under which each queued job was enqueued, and the span of
	// the running job, so starts, completions, and crash losses parent
	// correctly in the causal tree.
	enqSpans    map[job.UUID]uint64
	runningSpan uint64

	seq          uint64
	spanSeq      uint64
	informCancel Cancel
	started      bool
}

// pendingJob is an initiator's bookkeeping for one discovery round.
type pendingJob struct {
	profile  job.Profile
	retries  int
	best     overlay.NodeID
	bestCost sched.Cost
	hasBest  bool
	timer    Cancel

	// span is the round's flood-origin (or directed-probe) span; decision
	// events parent to it.
	span uint64

	// offers collects every distinct offer when multi-assign is on.
	offers []offer

	// directed marks a directory-driven round of TTL-0 targeted probes;
	// directedOffers counts the remote ACCEPTs it collected, gating the
	// flood fallback against MinDirectedOffers.
	directed       bool
	directedOffers int
}

// offer is one candidate's bid.
type offer struct {
	node overlay.NodeID
	cost sched.Cost
}

// watchdogMaxDefers bounds how many times a firing watchdog stands down
// because the failure detector still vouches for the assignee. The bound
// keeps the failsafe live under a permanently asymmetric link (assignee
// provably up, its NOTIFYs never arriving): after it, the watchdog reverts
// to at-least-once resubmission.
const watchdogMaxDefers = 3

// trackedJob is an initiator's failsafe record of a delegated job.
type trackedJob struct {
	profile  job.Profile
	assignee overlay.NodeID
	resub    int
	// defers counts watchdog firings stood down on the failure detector's
	// word; transient — a recovered watchdog starts the budget afresh.
	defers int
	// expect is the assignment-time estimate of the job's completion
	// horizon (the winning ETTC offer for batch jobs); the watchdog
	// waits a grace multiple of it.
	expect   time.Duration
	watchdog Cancel
	// span is the assignment (or recovery) span the tracking was created
	// under; journaled so a post-restart watchdog firing links back to
	// the pre-crash causal tree.
	span uint64
}

// NewNode constructs a protocol node with the given identity, resources,
// local scheduling policy, and environment binding. A nil observer is
// replaced with NopObserver. The node is inert until Start is called.
func NewNode(
	id overlay.NodeID,
	profile resource.Profile,
	policy sched.Policy,
	env Env,
	cfg Config,
	obs Observer,
	art job.ARTModel,
) (*Node, error) {
	if err := profile.Validate(); err != nil {
		return nil, fmt.Errorf("node %v profile: %w", id, err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("node %v config: %w", id, err)
	}
	if err := art.Validate(); err != nil {
		return nil, fmt.Errorf("node %v art model: %w", id, err)
	}
	if env == nil {
		return nil, fmt.Errorf("node %v: nil environment", id)
	}
	queue, err := sched.New(policy, profile.PerfIndex)
	if err != nil {
		return nil, fmt.Errorf("node %v scheduler: %w", id, err)
	}
	if obs == nil {
		obs = NopObserver{}
	}
	tobs, _ := obs.(TraceObserver)
	menv, _ := env.(MembershipEnv)
	n := &Node{
		id:         id,
		profile:    profile,
		env:        env,
		cfg:        cfg,
		obs:        obs,
		tobs:       tobs,
		menv:       menv,
		art:        art,
		alive:      true,
		queue:      queue,
		pending:    make(map[job.UUID]*pendingJob),
		tracked:    make(map[job.UUID]*trackedJob),
		multi:      make(map[job.UUID][]overlay.NodeID),
		initiators: make(map[job.UUID]overlay.NodeID),
		outbox:     make(map[resendKey]*resend),
		enqSpans:   make(map[job.UUID]uint64),
	}
	if cfg.Membership() {
		// A non-nil peers map is the engine-wide membership gate.
		n.peers = make(map[overlay.NodeID]*peerHealth)
		n.nbrPeers = make(map[overlay.NodeID][]overlay.NodeID)
	}
	if cfg.Directory() || cfg.SharedState() {
		// A non-nil dir gates digest gossip and learning; directed probing
		// additionally requires cfg.Directory(). The shared-state arm runs
		// its cluster view on the same substrate even with directed
		// discovery off.
		n.dir = directory.New(cfg.DirectoryCapacity, cfg.DirectoryTTL)
		n.dir.OnEvict = func(subject overlay.NodeID, reason string) {
			n.obs.DirectoryEvicted(n.env.Now(), n.id, subject, reason)
		}
	}
	if cfg.SharedState() {
		// A non-nil view is the engine-wide optimistic-commit gate.
		n.view = sharedstate.New(n.dir, cfg.SharedStateBound)
		n.commits = make(map[job.UUID]*pendingCommit)
		n.lastCommitGrant = -1
	}
	return n, nil
}

// ID returns the node's overlay address.
func (n *Node) ID() overlay.NodeID { return n.id }

// Profile returns the node's resource profile.
func (n *Node) Profile() resource.Profile { return n.profile }

// Policy returns the local scheduling policy.
func (n *Node) Policy() sched.Policy { return n.queue.Policy() }

// Start arms the periodic INFORM advertiser (when rescheduling is enabled)
// and the membership probe loop (when the detector is enabled). Both fire
// first after a random phase within one interval so that node activity is
// staggered.
func (n *Node) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started || !n.alive {
		n.started = true
		return
	}
	n.started = true
	if n.cfg.Rescheduling() {
		phase := time.Duration(n.env.Rand().Int63n(int64(n.cfg.InformInterval)))
		n.informCancel = n.env.Schedule(phase+n.cfg.InformInterval, n.informTick)
	}
	if n.cfg.Membership() {
		phase := time.Duration(n.env.Rand().Int63n(int64(n.cfg.ProbeInterval)))
		n.probeCancel = n.env.Schedule(phase, n.probeTick)
	}
}

// Stop cancels the INFORM advertiser and the membership probe loop; queued
// and running work continues.
func (n *Node) Stop() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.informCancel != nil {
		n.informCancel()
		n.informCancel = nil
	}
	n.cancelMembershipTimers()
}

// Kill simulates a node crash: all timers are cancelled, queued and running
// jobs are lost, and the node ignores every subsequent message.
func (n *Node) Kill() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.alive = false
	if n.runningTimer != nil {
		n.runningTimer()
	}
	if n.informCancel != nil {
		n.informCancel()
	}
	// Discovery rounds die with their initiator; the sorted walk keeps the
	// emitted span order deterministic.
	pendUUIDs := make([]job.UUID, 0, len(n.pending))
	for uuid := range n.pending {
		pendUUIDs = append(pendUUIDs, uuid)
	}
	sort.Slice(pendUUIDs, func(i, k int) bool { return pendUUIDs[i] < pendUUIDs[k] })
	for _, uuid := range pendUUIDs {
		p := n.pending[uuid]
		if p.timer != nil {
			p.timer()
		}
		n.emitSpan(TraceEvent{Kind: SpanLost, UUID: uuid, Parent: p.span})
	}
	// Open optimistic-commit rounds die with their initiator too.
	commitUUIDs := make([]job.UUID, 0, len(n.commits))
	for uuid := range n.commits {
		commitUUIDs = append(commitUUIDs, uuid)
	}
	sort.Slice(commitUUIDs, func(i, k int) bool { return commitUUIDs[i] < commitUUIDs[k] })
	for _, uuid := range commitUUIDs {
		pc := n.commits[uuid]
		if pc.timer != nil {
			pc.timer()
		}
		n.emitSpan(TraceEvent{Kind: SpanLost, UUID: uuid, Parent: pc.span, Peer: pc.target})
	}
	for _, t := range n.tracked {
		if t.watchdog != nil {
			t.watchdog()
		}
	}
	for _, r := range n.sortedResends() {
		if r.timer != nil {
			r.timer()
		}
		// The crash abandons open handshakes and fenced copies: without
		// these events their spans would dangle with no observable
		// consequence. An unacked completion NOTIFY loses nothing — the
		// job completed — and the journal resends it on recovery.
		switch r.kind {
		case resendAssign:
			n.emitSpan(TraceEvent{Kind: SpanLost, UUID: r.profile.UUID, Parent: r.span, Peer: r.peer})
		case resendFenced:
			n.emitSpan(TraceEvent{Kind: SpanLost, UUID: r.profile.UUID, Parent: r.span})
		}
	}
	n.cancelMembershipTimers()
	if n.running != nil {
		n.emitSpan(TraceEvent{Kind: SpanLost, UUID: n.running.UUID, Parent: n.runningSpan})
	}
	n.running = nil
	n.runningSpan = 0
	n.pending = make(map[job.UUID]*pendingJob)
	if n.commits != nil {
		n.commits = make(map[job.UUID]*pendingCommit)
	}
	n.tracked = make(map[job.UUID]*trackedJob)
	n.outbox = make(map[resendKey]*resend)
	// A crash loses the local queue; the initiators' failsafe watchdogs
	// (when armed) are what recovers these jobs.
	for _, j := range n.queue.Jobs() {
		n.emitSpan(TraceEvent{Kind: SpanLost, UUID: j.UUID, Parent: n.enqSpans[j.UUID]})
		n.queue.Remove(j.UUID)
	}
	n.initiators = make(map[job.UUID]overlay.NodeID)
	n.enqSpans = make(map[job.UUID]uint64)
}

// Alive reports whether the node has not been killed.
func (n *Node) Alive() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alive
}

// QueueLen reports the number of jobs waiting in the local queue.
func (n *Node) QueueLen() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.queue.Len()
}

// Busy reports whether a job is currently executing.
func (n *Node) Busy() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.running != nil
}

// Idle reports whether the node has neither running nor queued jobs — the
// paper's definition of an idle node (§V-A).
func (n *Node) Idle() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.running == nil && n.queue.Len() == 0
}

// QueuedJobs lists the UUIDs of waiting jobs in scheduled (policy) order.
func (n *Node) QueuedJobs() []job.UUID {
	n.mu.Lock()
	defer n.mu.Unlock()
	jobs := n.queue.Jobs()
	out := make([]job.UUID, len(jobs))
	for i, j := range jobs {
		out[i] = j.UUID
	}
	return out
}

// Running reports the UUID of the executing job, if any.
func (n *Node) Running() (job.UUID, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.running == nil {
		return "", false
	}
	return n.running.UUID, true
}

// Offer evaluates the node's current cost for hosting p, reporting false
// when the node cannot host it (resource mismatch, class mismatch, or
// dead). This is the same evaluation the node performs on an incoming
// REQUEST; it is exposed for omniscient baseline schedulers and tooling.
func (n *Node) Offer(p job.Profile) (sched.Cost, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return 0, false
	}
	return n.selfOffer(p)
}

// Submit makes this node the initiator for job p: it floods a REQUEST
// across the overlay, collects ACCEPT offers for the configured timelapse,
// and delegates the job to the best offer.
func (n *Node) Submit(p job.Profile) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return fmt.Errorf("submit: node %v is dead", n.id)
	}
	if n.discoveryOpen(p.UUID) {
		return fmt.Errorf("submit: job %s already pending", p.UUID.Short())
	}
	// Admission control: past the pending bound the submission is bounced
	// before it counts as submitted, so the caller can redraw another
	// portal or push back on the client. Open commit rounds count — they
	// are discoveries in flight like any other.
	if inflight := len(n.pending) + len(n.commits); n.cfg.MaxPendingSubmits > 0 && inflight >= n.cfg.MaxPendingSubmits {
		n.obs.SubmitRejected(n.env.Now(), n.id, p.UUID, inflight)
		return fmt.Errorf("submit: node %v: %w", n.id, ErrOverloaded)
	}
	n.obs.JobSubmitted(n.env.Now(), n.id, p)
	root := n.emitSpan(TraceEvent{Kind: SpanSubmit, UUID: p.UUID})
	n.startDiscovery(p, 0, root)
	return nil
}

// startDiscovery opens a discovery round for p, trying the cheapest stage
// that can work: an optimistic commit against the cached cluster view
// (shared-state extension), then directed probes (directory extension),
// then the classic REQUEST flood. The cheap stages run on fresh rounds
// only — retries have already proven the cached knowledge insufficient for
// this job. Caller holds the lock.
func (n *Node) startDiscovery(p job.Profile, retries int, parent uint64) {
	if retries == 0 && n.view != nil && n.startCommit(p, parent) {
		return
	}
	if retries == 0 && n.cfg.Directory() && n.dir != nil && n.startDirected(p, parent) {
		return
	}
	n.startFlood(p, retries, parent)
}

// startFlood floods a REQUEST round for p and arms the decision timer.
// The round's flood-origin span parents to the given span (the submission,
// a retry, a watchdog resubmission, an assignment fallback, or a starved
// directed round's fallback). Caller holds the lock.
func (n *Node) startFlood(p job.Profile, retries int, parent uint64) {
	pend := &pendingJob{profile: p, retries: retries}
	// The initiator is itself a candidate when its resources match.
	if cost, ok := n.selfOffer(p); ok {
		pend.best, pend.bestCost, pend.hasBest = n.id, cost, true
		pend.offers = append(pend.offers, offer{node: n.id, cost: cost})
	}
	n.pending[p.UUID] = pend
	// Flood recovery: a retried round searches a degraded overlay
	// progressively deeper by escalating the TTL per attempt.
	ttl := n.cfg.RequestTTL
	if retries > 0 && n.cfg.ReFloodTTLStep > 0 {
		ttl += retries * n.cfg.ReFloodTTLStep
		n.obs.FloodEscalated(n.env.Now(), n.id, p.UUID, retries, ttl)
	}
	// The span rides the wire before the fan-out is known, so allocate it
	// up front and emit the origin event after sending.
	if n.tobs != nil {
		pend.span = n.nextSpanID()
	}
	msg := Message{
		Type:   MsgRequest,
		From:   n.id,
		Job:    p,
		Cost:   0,
		TTL:    ttl - 1,
		Fanout: n.cfg.RequestFanout,
		Seq:    n.nextSeq(),
		Via:    n.id,
		Hop:    1,
		Span:   pend.span,
	}
	n.markSeen(msg.floodFP())
	sent := n.forward(msg, n.cfg.RequestFanout)
	n.emitSpan(TraceEvent{
		Kind: SpanFloodOrigin, UUID: p.UUID, Span: pend.span, Parent: parent,
		Msg: MsgRequest, Hop: 0, TTL: ttl, Fanout: sent,
		Seq: msg.Seq, Origin: n.id, Attempt: retries,
	})
	uuid := p.UUID
	pend.timer = n.env.Schedule(n.cfg.AcceptTimeout, func() { n.decide(uuid) })
}

// selfOffer evaluates the node's own cost for p. A saturated node never
// offers — on REQUESTs, on INFORMs, or as its own discovery candidate — so
// load shedding starts at the bidding stage, not only at assignment time.
// Caller holds the lock.
func (n *Node) selfOffer(p job.Profile) (sched.Cost, bool) {
	if !n.profile.Satisfies(p.Req) {
		return 0, false
	}
	if n.overloaded() {
		return 0, false
	}
	cost, err := n.queue.OfferCost(p, n.env.Now(), n.estRemaining())
	if err != nil {
		return 0, false
	}
	return cost, true
}

// decide closes a discovery round: assign to the best offer, or retry.
func (n *Node) decide(uuid job.UUID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return
	}
	pend, ok := n.pending[uuid]
	if !ok {
		return
	}
	delete(n.pending, uuid)
	// A starved directed round escalates to the flood before any
	// assignment is considered: directed discovery must never narrow the
	// candidate pool a flood would have reached.
	if pend.directed && pend.directedOffers < n.cfg.MinDirectedOffers {
		n.directedFallback(pend)
		return
	}
	best, bestCost, hasBest := pend.best, pend.bestCost, pend.hasBest
	if hasBest && n.peerDead(best) {
		// The winner was confirmed dead during the collect window: re-scan
		// the surviving offers in arrival order (strict < preserves the
		// original first-wins tie-breaking).
		hasBest = false
		for _, o := range pend.offers {
			if o.node != n.id && n.peerDead(o.node) {
				continue
			}
			if !hasBest || o.cost < bestCost {
				best, bestCost, hasBest = o.node, o.cost, true
			}
		}
	}
	if !hasBest {
		if pend.retries < n.cfg.MaxRequestRetries {
			p, retries, parent := pend.profile, pend.retries+1, pend.span
			n.env.Schedule(n.retryDelay(retries), func() {
				n.mu.Lock()
				defer n.mu.Unlock()
				if !n.alive {
					return
				}
				if n.discoveryOpen(p.UUID) {
					return
				}
				n.startDiscovery(p, retries, parent)
			})
			return
		}
		n.emitSpan(TraceEvent{Kind: SpanFail, UUID: uuid, Parent: pend.span, Attempt: pend.retries})
		n.obs.JobFailed(n.env.Now(), n.id, uuid, "no candidate found")
		return
	}
	if n.cfg.MultiAssign > 1 {
		n.multiAssign(pend)
		return
	}
	n.obs.JobAssigned(n.env.Now(), uuid, n.id, best, bestCost, false)
	aspan := n.emitSpan(TraceEvent{
		Kind: SpanAssign, UUID: uuid, Parent: pend.span,
		Peer: best, Cost: bestCost,
	})
	n.trackAssignment(pend.profile, best, bestCost, aspan)
	if best == n.id {
		n.enqueueLocal(pend.profile, n.id, aspan)
		return
	}
	n.sendAssign(best, pend.profile, n.id, false, aspan)
}

// sendAssign dispatches an ASSIGN to a remote node and, when the AssignAck
// handshake is enabled, keeps resending it until acknowledged. Caller holds
// the lock.
func (n *Node) sendAssign(to overlay.NodeID, p job.Profile, initiator overlay.NodeID, reschedule bool, span uint64) {
	if n.dir != nil {
		// Optimistically bump the assignee's cached load hint: its queue
		// just grew, and waiting for gossip to say so would herd the next
		// directed round at the same node.
		n.dir.BumpLoad(to, 1)
	}
	if !n.cfg.AssignAck {
		n.env.Send(to, Message{Type: MsgAssign, From: initiator, Job: p, Via: n.id, Span: span})
		return
	}
	n.openResend(&resend{kind: resendAssign, profile: p, peer: to, initiator: initiator, reschedule: reschedule, span: span})
}

// assignFallback recovers an assignment whose every retransmission went
// unanswered: an initiator runs a fresh discovery round; a rescheduling
// assignee takes the job back into its own queue — the loss-safe handoff
// guarantee that a dropped ASSIGN never orphans a queued job. Caller holds
// the lock.
func (n *Node) assignFallback(oa *resend) {
	uuid := oa.profile.UUID
	if oa.reschedule {
		if _, queued := n.queue.Get(uuid); queued {
			return // already re-acquired (e.g. a duplicate ASSIGN loop)
		}
		if n.running != nil && n.running.UUID == uuid {
			return
		}
		fb := n.emitSpan(TraceEvent{Kind: SpanFallback, UUID: uuid, Parent: oa.span, Peer: oa.peer})
		n.enqueueLocal(oa.profile, oa.initiator, fb)
		n.obs.AssignRecovered(n.env.Now(), n.id, uuid)
		return
	}
	if n.discoveryOpen(uuid) {
		return
	}
	n.obs.AssignRecovered(n.env.Now(), n.id, uuid)
	fb := n.emitSpan(TraceEvent{Kind: SpanFallback, UUID: uuid, Parent: oa.span, Peer: oa.peer})
	n.startDiscovery(oa.profile, 0, fb)
}

// multiAssign implements the multiple-simultaneous-requests comparison
// protocol: the K cheapest distinct offers each receive a copy of the job;
// the first copy to start executing triggers revocation of the rest.
// Caller holds the lock.
func (n *Node) multiAssign(pend *pendingJob) {
	sort.SliceStable(pend.offers, func(i, k int) bool {
		return pend.offers[i].cost < pend.offers[k].cost
	})
	var targets []offer
	seen := make(map[overlay.NodeID]bool, n.cfg.MultiAssign)
	for _, o := range pend.offers {
		if seen[o.node] {
			continue
		}
		seen[o.node] = true
		targets = append(targets, o)
		if len(targets) == n.cfg.MultiAssign {
			break
		}
	}
	uuid := pend.profile.UUID
	assignees := make([]overlay.NodeID, 0, len(targets))
	for _, o := range targets {
		assignees = append(assignees, o.node)
	}
	n.multi[uuid] = assignees
	selfCopy := false
	var selfSpan uint64
	for i, o := range targets {
		// Only the first (cheapest) assignment is reported as the
		// job's placement; the rest are protocol overhead.
		if i == 0 {
			n.obs.JobAssigned(n.env.Now(), uuid, n.id, o.node, o.cost, false)
		}
		cspan := n.emitSpan(TraceEvent{
			Kind: SpanAssign, UUID: uuid, Parent: pend.span,
			Peer: o.node, Cost: o.cost,
		})
		if o.node == n.id {
			// Deferred below: a local copy can start (and trigger
			// revocation) synchronously, so every remote ASSIGN must
			// already be on the wire ahead of the CANCELs.
			selfCopy = true
			selfSpan = cspan
			continue
		}
		n.env.Send(o.node, Message{Type: MsgAssign, From: n.id, Job: pend.profile, Via: n.id, Span: cspan})
	}
	if selfCopy {
		n.enqueueLocal(pend.profile, n.id, selfSpan)
	}
}

// cancelCopies revokes every multi-assigned copy except the winner's.
// Caller holds the lock.
func (n *Node) cancelCopies(uuid job.UUID, p job.Profile, winner overlay.NodeID, parent uint64) {
	assignees, ok := n.multi[uuid]
	if !ok {
		return
	}
	delete(n.multi, uuid)
	for _, a := range assignees {
		if a == winner {
			continue
		}
		cspan := n.emitSpan(TraceEvent{Kind: SpanCancel, UUID: uuid, Parent: parent, Peer: a})
		if a == n.id {
			// Local copy: drop it from our own queue.
			if n.queue.Remove(uuid) {
				n.jlog(wal.Record{Type: wal.RecDequeue, UUID: uuid})
			}
			delete(n.initiators, uuid)
			delete(n.enqSpans, uuid)
			continue
		}
		n.env.Send(a, Message{Type: MsgCancel, From: n.id, Job: p, Span: cspan})
	}
}

// trackAssignment arms the failsafe watchdog for a delegated job. Caller
// holds the lock. Self-assignments are not tracked: a crash of this node
// loses the tracking state anyway.
func (n *Node) trackAssignment(p job.Profile, assignee overlay.NodeID, cost sched.Cost, span uint64) {
	if !n.cfg.NotifyInitiator || assignee == n.id {
		return
	}
	if prev, ok := n.tracked[p.UUID]; ok && prev.watchdog != nil {
		prev.watchdog()
	}
	t := &trackedJob{profile: p, assignee: assignee, span: span}
	if p.Class == job.ClassBatch && cost > 0 {
		// The winning ETTC offer is the expected relative completion.
		t.expect = time.Duration(float64(cost) * float64(time.Second))
	}
	if prev, ok := n.tracked[p.UUID]; ok {
		t.resub = prev.resub
		if prev.expect > t.expect {
			t.expect = prev.expect
		}
	}
	n.tracked[p.UUID] = t
	n.jlog(wal.Record{Type: wal.RecWatchdog, UUID: p.UUID, Profile: &p, Peer: assignee, Resub: t.resub, Expect: t.expect, Span: span})
	n.armWatchdog(t)
}

// armWatchdog (re)schedules the lost-job check for t. Caller holds the lock.
func (n *Node) armWatchdog(t *trackedJob) {
	uuid := t.profile.UUID
	t.watchdog = n.env.Schedule(n.watchdogDelay(t), func() { n.watchdogFire(uuid) })
}

// watchdogDelay estimates how long to wait before declaring a tracked job
// lost: a grace multiple of the job's expected completion horizon, doubled
// for every resubmission already performed. Premature firings are costly —
// they duplicate live work — so the delay errs long; an actually crashed
// assignee just means a late (not lost) recovery.
func (n *Node) watchdogDelay(t *trackedJob) time.Duration {
	p := t.profile
	base := p.ERT
	if t.expect > base {
		base = t.expect
	}
	if p.Class == job.ClassDeadline {
		if d := p.Deadline - n.env.Now() + p.ERT; d > base {
			base = d
		}
	}
	if p.EarliestStart > n.env.Now() {
		base += p.EarliestStart - n.env.Now()
	}
	backoff := float64(uint64(1) << uint(min(t.resub, 6)))
	return time.Duration(float64(base)*n.cfg.WatchdogGrace*backoff) + n.cfg.AcceptTimeout
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// watchdogFire re-submits a tracked job that went silent.
func (n *Node) watchdogFire(uuid job.UUID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return
	}
	t, ok := n.tracked[uuid]
	if !ok {
		return
	}
	if t.resub >= n.cfg.MaxRequestRetries {
		delete(n.tracked, uuid)
		n.jlog(wal.Record{Type: wal.RecTrackDone, UUID: uuid})
		n.emitSpan(TraceEvent{Kind: SpanFail, UUID: uuid, Attempt: t.resub})
		n.obs.JobFailed(n.env.Now(), n.id, uuid, "lost after resubmission limit")
		return
	}
	_, handshakeOpen := n.outbox[resendKey{uuid, resendAssign}]
	if t.defers < watchdogMaxDefers && (handshakeOpen || n.peerLive(t.assignee)) {
		// Stand down while another recovery mechanism still owns the job.
		// An open ASSIGN handshake means the retransmission loop is live:
		// it will either get the ack through or exhaust into its own
		// loss-safe fallback, and a parallel resubmission flood just races
		// it into a duplicate. Likewise when the failure detector still
		// vouches for the assignee: the silence is a partitioned or
		// delayed NOTIFY path, not a crash, and the assignee may well have
		// completed the job already — hold fire until the detector
		// convicts the peer or the deferral budget runs out, whichever is
		// first. A still-live NOTIFY retry loop gets that long to land.
		t.defers++
		n.armWatchdog(t)
		return
	}
	t.resub++
	t.watchdog = nil
	n.jlog(wal.Record{Type: wal.RecWatchdog, UUID: uuid, Profile: &t.profile, Peer: t.assignee, Resub: t.resub, Expect: t.expect, Span: t.span})
	if !n.discoveryOpen(uuid) {
		rs := n.emitSpan(TraceEvent{Kind: SpanResubmit, UUID: uuid, Peer: t.assignee, Attempt: t.resub})
		n.startDiscovery(t.profile, 0, rs)
	}
}

// HandleMessage is the transport entry point for inbound protocol traffic.
func (n *Node) HandleMessage(m Message) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return
	}
	switch m.Type {
	case MsgRequest:
		n.handleRequest(m)
	case MsgAccept:
		n.handleAccept(m)
	case MsgInform:
		n.handleInform(m)
	case MsgAssign:
		n.handleAssign(m)
	case MsgNotify:
		n.handleNotify(m)
	case MsgCancel:
		n.handleCancel(m)
	case MsgAssignAck:
		n.handleAssignAck(m)
	case MsgPing:
		n.handlePing(m)
	case MsgPong:
		n.handlePong(m)
	case MsgBusy:
		n.handleBusy(m)
	case MsgCommit:
		n.handleCommit(m)
	case MsgConflict:
		n.handleConflict(m)
	}
}

// handleAssignAck closes the handshake for an outstanding ASSIGN — or, on
// the shared-state arm, a commit grant: the provider's ASSIGN_ACK for an
// open commit round is the grant itself. Caller holds the lock.
func (n *Node) handleAssignAck(m Message) {
	if pc, ok := n.commits[m.Job.UUID]; ok && m.From == pc.target {
		n.commitGranted(pc, m)
		return
	}
	oa, ok := n.outbox[resendKey{m.Job.UUID, resendAssign}]
	if !ok || m.From != oa.peer {
		return // no open handshake, or an ack from a stale assignee
	}
	n.closeResend(m.Job.UUID, resendAssign)
	if oa.attempts > 0 {
		n.obs.AssignRecovered(n.env.Now(), n.id, m.Job.UUID)
	}
}

// handleCancel revokes a copy of a multi-assigned or resubmitted job:
// fenced (awaiting re-confirmation), queued, or running. Caller holds the
// lock.
func (n *Node) handleCancel(m Message) {
	if n.closeResend(m.Job.UUID, resendFenced) != nil {
		// The copy was journaled as enqueued at recovery, so its revocation
		// journals the matching dequeue.
		n.emitSpan(TraceEvent{Kind: SpanCancel, UUID: m.Job.UUID, Parent: m.Span, Peer: m.From})
		n.jlog(wal.Record{Type: wal.RecDequeue, UUID: m.Job.UUID})
		return
	}
	n.dropLocalCopy(m.Job.UUID, m.Span, m.From)
}

// dropLocalCopy removes this node's own queued or running copy of a job
// that has been revoked or completed elsewhere, reporting whether one was
// found. Caller holds the lock.
func (n *Node) dropLocalCopy(uuid job.UUID, parent uint64, peer overlay.NodeID) bool {
	if n.queue.Remove(uuid) {
		delete(n.initiators, uuid)
		n.emitSpan(TraceEvent{Kind: SpanCancel, UUID: uuid, Parent: parent, Peer: peer})
		delete(n.enqSpans, uuid)
		n.jlog(wal.Record{Type: wal.RecDequeue, UUID: uuid})
		return true
	}
	if n.running != nil && n.running.UUID == uuid {
		// A revoked execution in flight — a stale copy that lost a
		// completion race, or a recovered copy the initiator already
		// replaced. Abort it before it emits a duplicate completion;
		// RecDequeue tells replay the slot is clear again.
		if n.runningTimer != nil {
			n.runningTimer()
			n.runningTimer = nil
		}
		n.emitSpan(TraceEvent{Kind: SpanCancel, UUID: uuid, Parent: parent, Peer: peer})
		n.jlog(wal.Record{Type: wal.RecDequeue, UUID: uuid})
		n.running = nil
		n.runningSpan = 0
		delete(n.initiators, uuid)
		n.maybeStart()
		return true
	}
	return false
}

// handleRequest answers matching REQUESTs with an ACCEPT offer and forwards
// the flood otherwise (§III-C). Caller holds the lock.
func (n *Node) handleRequest(m Message) {
	if n.isDuplicate(m) {
		// A suppressed duplicate is bookkeeping, never a forward: it must
		// not inflate the wave's forward count (redundancy accounting).
		n.emitSpan(TraceEvent{
			Kind: SpanDuplicate, UUID: m.Job.UUID, Parent: m.Span,
			Msg: m.Type, Hop: m.Hop, TTL: m.TTL, Seq: m.Seq,
			Origin: m.From, Peer: m.Via,
		})
		return
	}
	// An initiator this node has confirmed dead gets no offer (it will
	// never collect it); the flood is still useful to relay.
	if !n.peerDead(m.From) {
		if n.overloaded() && n.profile.Satisfies(m.Job.Req) {
			// Saturated but matching: an advisory BUSY tells the initiator
			// not to count on this node (and to demote it in its directory)
			// while the flood still relays toward unsaturated candidates.
			depth := n.loadDepth()
			n.obs.RequestShed(n.env.Now(), n.id, m.Job.UUID, depth)
			bspan := n.emitSpan(TraceEvent{
				Kind: SpanBusy, UUID: m.Job.UUID, Parent: m.Span,
				Msg: MsgRequest, Peer: m.From, Fanout: depth,
			})
			n.env.Send(m.From, Message{Type: MsgBusy, From: n.id, Job: m.Job, Re: MsgRequest, Span: bspan})
			n.forwardFlood(m)
			return
		}
		if cost, ok := n.selfOffer(m.Job); ok {
			ospan := n.emitSpan(TraceEvent{
				Kind: SpanOffer, UUID: m.Job.UUID, Parent: m.Span,
				Msg: m.Type, Hop: m.Hop, TTL: m.TTL, Seq: m.Seq,
				Origin: m.From, Peer: m.From, Cost: cost,
			})
			n.env.Send(m.From, Message{Type: MsgAccept, From: n.id, Job: m.Job, Cost: cost, Span: ospan, Dir: n.selfDirPayload()})
			return
		}
	}
	n.forwardFlood(m)
}

// handleInform evaluates a rescheduling advertisement: a matching node
// replies to the current assignee only when it beats the advertised cost by
// the configured threshold; non-matching nodes forward the flood (§III-D).
// Caller holds the lock.
func (n *Node) handleInform(m Message) {
	if m.From == n.id {
		return // own advertisement looped back
	}
	if n.isDuplicate(m) {
		n.emitSpan(TraceEvent{
			Kind: SpanDuplicate, UUID: m.Job.UUID, Parent: m.Span,
			Msg: m.Type, Hop: m.Hop, TTL: m.TTL, Seq: m.Seq,
			Origin: m.From, Peer: m.Via,
		})
		return
	}
	// The INFORM's origin digest (carried through every forwarded copy)
	// teaches the flood's whole reach the assignee's profile.
	n.learnDigests(m)
	cost, ok := n.selfOffer(m.Job)
	if !ok || n.peerDead(m.From) {
		// Non-matching, or the advertising assignee is confirmed dead
		// (never reply to a dead peer): relay only.
		n.forwardFlood(m)
		return
	}
	threshold := sched.Cost(n.cfg.RescheduleThreshold.Seconds())
	// Strict: §III-D reschedules only when the improvement exceeds the
	// threshold; an improvement of exactly the threshold stays put.
	if cost < m.Cost-threshold {
		ospan := n.emitSpan(TraceEvent{
			Kind: SpanOffer, UUID: m.Job.UUID, Parent: m.Span,
			Msg: m.Type, Hop: m.Hop, TTL: m.TTL, Seq: m.Seq,
			Origin: m.From, Peer: m.From, Cost: cost,
		})
		n.env.Send(m.From, Message{Type: MsgAccept, From: n.id, Job: m.Job, Cost: cost, Span: ospan, Dir: n.selfDirPayload()})
	}
}

// handleAccept routes an ACCEPT to the right context: a discovery reply
// when this node is the job's initiator with an open round, otherwise a
// rescheduling offer for a job queued here. Caller holds the lock.
func (n *Node) handleAccept(m Message) {
	if n.peerDead(m.From) {
		return // stale offer from a confirmed-dead peer
	}
	// An ACCEPT proves its sender's willingness to host: the digest it
	// carries is the freshest profile knowledge the directory can get, and
	// its offered cost feeds the per-peer cost EWMA that demotes slow peers
	// in candidate ranking.
	n.learnDigests(m)
	if n.dir != nil {
		n.dir.ObserveCost(m.From, float64(m.Cost))
	}
	uuid := m.Job.UUID
	if pend, ok := n.pending[uuid]; ok {
		n.emitSpan(TraceEvent{
			Kind: SpanOfferRecv, UUID: uuid, Parent: m.Span,
			Peer: m.From, Cost: m.Cost,
		})
		if pend.directed {
			pend.directedOffers++
		}
		if !pend.hasBest || m.Cost < pend.bestCost {
			pend.best, pend.bestCost, pend.hasBest = m.From, m.Cost, true
		}
		pend.offers = append(pend.offers, offer{node: m.From, cost: m.Cost})
		return
	}
	n.handleRescheduleOffer(m)
}

// handleRescheduleOffer moves a queued job to a cheaper node (§III-D).
// The offer is re-validated against the job's current local cost, since the
// queue may have changed since the INFORM was sent. Caller holds the lock.
func (n *Node) handleRescheduleOffer(m Message) {
	uuid := m.Job.UUID
	if m.From == n.id {
		return
	}
	if _, queued := n.queue.Get(uuid); !queued {
		return // started, completed, or already rescheduled
	}
	current, ok := n.queue.QueuedCost(uuid, n.env.Now(), n.estRemaining())
	if !ok {
		return
	}
	threshold := sched.Cost(n.cfg.RescheduleThreshold.Seconds())
	// Strict, matching the INFORM-side check: the move must improve the
	// cost by MORE than the threshold, not by exactly the threshold.
	if m.Cost >= current-threshold {
		return // benefit no longer justifies the move
	}
	initiator, ok := n.initiators[uuid]
	if !ok {
		initiator = n.id
	}
	n.queue.Remove(uuid)
	delete(n.initiators, uuid)
	delete(n.enqSpans, uuid)
	n.jlog(wal.Record{Type: wal.RecDequeue, UUID: uuid})
	n.obs.JobAssigned(n.env.Now(), uuid, n.id, m.From, m.Cost, true)
	rspan := n.emitSpan(TraceEvent{
		Kind: SpanReschedule, UUID: uuid, Parent: m.Span,
		Peer: m.From, Cost: m.Cost, OldCost: current,
	})
	// With the handshake on, the job stays this node's responsibility
	// (an ASSIGN in the outbox) until the new assignee acknowledges; if the
	// ASSIGN is lost, the fallback re-enqueues it here.
	n.sendAssign(m.From, m.Job, initiator, true, rspan)
}

// handleAssign queues a delegated job. Accepted jobs may not be declined
// (§III-A). The profile is validated here because ASSIGN is the one
// message that creates durable node state; the TCP transport additionally
// validates every inbound frame. With the AssignAck handshake on, every
// delivery — including duplicates, whose earlier acknowledgement may have
// been lost — is re-acknowledged to the sending node (carried in Via).
// Caller holds the lock.
func (n *Node) handleAssign(m Message) {
	if m.Job.Validate() != nil {
		return
	}
	if n.absorbRedelivery(m, m.Via, n.cfg.AssignAck) {
		return
	}
	// A saturated provider refuses the job instead of queueing unbounded
	// work. Deliberately unacknowledged: the sender's handshake stays open
	// until the BUSY lands, so a lost BUSY is covered by ASSIGN retries.
	if n.overloaded() {
		n.shedAssign(m)
		return
	}
	if n.cfg.AssignAck {
		n.env.Send(m.Via, Message{Type: MsgAssignAck, From: n.id, Job: m.Job, Span: m.Span})
	}
	n.enqueueLocal(m.Job, m.From, m.Span)
}

// enqueueLocal places a job in the local queue and starts it when the
// execution slot is free. The enqueue span parents to the span that caused
// it (the incoming ASSIGN's, a local assignment decision's, or a fallback's)
// and is remembered so the eventual start or loss parents to it. Caller
// holds the lock.
func (n *Node) enqueueLocal(p job.Profile, initiator overlay.NodeID, parent uint64) {
	j := job.New(p)
	n.initiators[p.UUID] = initiator
	n.queue.Enqueue(j, n.env.Now())
	espan := n.emitSpan(TraceEvent{Kind: SpanEnqueue, UUID: p.UUID, Parent: parent, Peer: initiator})
	if n.tobs != nil {
		n.enqSpans[p.UUID] = espan
	}
	n.jlog(wal.Record{Type: wal.RecEnqueue, UUID: p.UUID, Profile: &p, Peer: initiator, Span: espan})
	if n.cfg.NotifyInitiator && initiator != n.id {
		n.env.Send(initiator, Message{Type: MsgNotify, From: n.id, Job: p, Notify: NotifyQueued, Span: espan})
	}
	n.maybeStart()
}

// handleNotify updates the initiator's failsafe tracking state and drives
// multi-assign revocation. Caller holds the lock.
func (n *Node) handleNotify(m Message) {
	switch m.Notify {
	case NotifyStarted:
		n.cancelCopies(m.Job.UUID, m.Job, m.From, m.Span)
		return
	case NotifyAck:
		n.closeResend(m.Job.UUID, resendNotify)
		return
	case NotifyResurfaced:
		n.handleResurfaced(m)
		return
	case NotifyConfirm:
		n.releaseFenced(m.Job.UUID)
		return
	case NotifyCompleted:
		// Acknowledge unconditionally, tracked or not: the assignee resends
		// until acked, and even an initiator that lost its tracking state
		// (a watchdog give-up, or a wiped restart) must silence the loop.
		n.env.Send(m.From, Message{Type: MsgNotify, From: n.id, Job: m.Job, Notify: NotifyAck, Span: m.Span})
		// The completion supersedes any ASSIGN handshake still open for the
		// job: retransmitting it could re-run the job at an assignee that no
		// longer remembers it.
		n.closeResend(m.Job.UUID, resendAssign)
		// Likewise any still-open optimistic-commit round: a grant racing
		// this completion would place (and re-run) a copy of a finished job.
		n.closeCommitOnComplete(m.Job.UUID)
		// It also supersedes any copy of the job this node still holds
		// itself — a watchdog resubmission that self-assigned races the
		// original assignee's recovery exactly like a remote replacement.
		n.dropLocalCopy(m.Job.UUID, m.Span, m.From)
	}
	if m.Notify == NotifyQueued {
		if pc, copen := n.commits[m.Job.UUID]; copen && pc.target == m.From {
			// The enqueue NOTIFY from the commit target outran (or replaced
			// a lost) grant ASSIGN_ACK: the enqueue is proof the commit was
			// granted. Close the round before the tracked-state update below
			// so the retry timer cannot place a second copy.
			n.commitGranted(pc, m)
		}
	}
	t, ok := n.tracked[m.Job.UUID]
	if !ok {
		return
	}
	switch m.Notify {
	case NotifyQueued:
		if t.resub > 0 {
			if pend, open := n.pending[m.Job.UUID]; open {
				// A pre-resubmission copy resurfaced (typically a crashed
				// assignee whose recovery re-enqueued the job) while the
				// replacement round is still collecting offers: keep the
				// live copy, abandon the round — letting it assign would
				// create a second live copy.
				if pend.timer != nil {
					pend.timer()
				}
				delete(n.pending, m.Job.UUID)
			} else if pc, copen := n.commits[m.Job.UUID]; copen && pc.target != m.From {
				// Same race on the shared-state arm: a replacement commit is
				// in flight while the pre-resubmission copy resurfaces. Keep
				// the live copy; abandon the round and chase the
				// possibly-granted commit with a CANCEL.
				n.closeCommitOnComplete(m.Job.UUID)
			} else if n.redundantCopy(m.Job.UUID, m.From) {
				// The replacement copy is already live elsewhere: revoke
				// this stale one before it runs.
				cspan := n.emitSpan(TraceEvent{Kind: SpanCancel, UUID: m.Job.UUID, Parent: m.Span, Peer: m.From})
				n.env.Send(m.From, Message{Type: MsgCancel, From: n.id, Job: m.Job, Span: cspan})
				return
			}
		}
		t.assignee = m.From
		if t.watchdog != nil {
			t.watchdog()
		}
		n.jlog(wal.Record{Type: wal.RecNotify, UUID: m.Job.UUID, Peer: m.From})
		n.armWatchdog(t)
	case NotifyCompleted:
		if t.watchdog != nil {
			t.watchdog()
		}
		delete(n.tracked, m.Job.UUID)
		n.jlog(wal.Record{Type: wal.RecTrackDone, UUID: m.Job.UUID})
		// A completion racing a watchdog resubmission: abandon the
		// still-open rediscovery round and revoke the stale copy before it
		// can run a second time.
		if pend, live := n.pending[m.Job.UUID]; live {
			if pend.timer != nil {
				pend.timer()
			}
			delete(n.pending, m.Job.UUID)
		}
		if t.resub > 0 && t.assignee != 0 && t.assignee != n.id && t.assignee != m.From {
			cspan := n.emitSpan(TraceEvent{Kind: SpanCancel, UUID: m.Job.UUID, Parent: m.Span, Peer: t.assignee})
			n.env.Send(t.assignee, Message{Type: MsgCancel, From: n.id, Job: m.Job, Span: cspan})
		}
	}
}

// redundantCopy reports whether a NOTIFY(queued) from 'from' concerns a
// stale copy of a resubmitted job — the initiator already placed (or is
// running) a replacement. trackAssignment updates the tracked assignee the
// moment the replacement ASSIGN goes out, so comparing against it is safe
// even before the replacement's own NOTIFY(queued) arrives. Caller holds
// the lock.
func (n *Node) redundantCopy(uuid job.UUID, from overlay.NodeID) bool {
	if oa, ok := n.outbox[resendKey{uuid, resendAssign}]; ok && oa.peer == from {
		return false // the replacement copy itself, confirming
	}
	if _, ok := n.queue.Get(uuid); ok {
		return true // replacement queued locally
	}
	if n.running != nil && n.running.UUID == uuid {
		return true // replacement running locally
	}
	t, ok := n.tracked[uuid]
	return ok && t.assignee != 0 && t.assignee != from
}

// handleResurfaced answers an assignee's post-recovery query about a
// crash-recovered copy. The initiator is the only party that knows whether
// that copy is still wanted: if the job is no longer tracked (it already
// completed, or this initiator restarted amnesiac and can never collect
// it) or a replacement copy is live elsewhere, the resurfaced copy is
// revoked; otherwise it is confirmed and the watchdog re-arms around it.
// Caller holds the lock.
func (n *Node) handleResurfaced(m Message) {
	uuid := m.Job.UUID
	t, tracked := n.tracked[uuid]
	if pend, open := n.pending[uuid]; tracked && open {
		// The watchdog's replacement round is still collecting offers:
		// keep the resurfaced copy, abandon the round.
		if pend.timer != nil {
			pend.timer()
		}
		delete(n.pending, uuid)
	} else if pc, copen := n.commits[uuid]; tracked && copen && pc.target != m.From {
		// A replacement commit round is in flight: keep the resurfaced
		// copy, abandon the round, and chase the possibly-granted commit
		// with a CANCEL.
		n.closeCommitOnComplete(uuid)
	} else if !tracked || n.redundantCopy(uuid, m.From) {
		cspan := n.emitSpan(TraceEvent{Kind: SpanCancel, UUID: uuid, Parent: m.Span, Peer: m.From})
		n.env.Send(m.From, Message{Type: MsgCancel, From: n.id, Job: m.Job, Span: cspan})
		return
	}
	t.assignee = m.From
	if t.watchdog != nil {
		t.watchdog()
	}
	n.jlog(wal.Record{Type: wal.RecNotify, UUID: uuid, Peer: m.From})
	n.armWatchdog(t)
	n.env.Send(m.From, Message{Type: MsgNotify, From: n.id, Job: m.Job, Notify: NotifyConfirm, Span: m.Span})
}

// maybeStart begins executing the next queued job when the execution slot
// is free. When every queued job is blocked behind an advance reservation,
// it arms a wake-up for the first eligibility instant. Caller holds the
// lock.
func (n *Node) maybeStart() {
	if n.running != nil || n.queue.Len() == 0 {
		return
	}
	now := n.env.Now()
	j := n.queue.Pop(now)
	if j == nil {
		if at, ok := n.queue.NextEligibleAt(now); ok {
			n.env.Schedule(at-now, func() {
				n.mu.Lock()
				defer n.mu.Unlock()
				if n.alive {
					n.maybeStart()
				}
			})
		}
		return
	}
	initiator, ok := n.initiators[j.UUID]
	if !ok {
		initiator = n.id
	}
	delete(n.initiators, j.UUID)
	j.State = job.StateRunning
	j.StartedAt = now
	n.running = j
	n.runningInitiator = initiator
	ertp := j.ERTOn(n.profile.PerfIndex)
	n.runningEstEnd = now + ertp
	sspan := n.emitSpan(TraceEvent{Kind: SpanStart, UUID: j.UUID, Parent: n.enqSpans[j.UUID]})
	delete(n.enqSpans, j.UUID)
	n.runningSpan = sspan
	// Write-ahead: journal the start before announcing it. If the append
	// fails and the journal's owner dies loudly, no observer saw a start
	// the log cannot prove.
	n.jlog(wal.Record{Type: wal.RecStart, UUID: j.UUID, Profile: &j.Profile, Peer: initiator, Span: sspan})
	n.obs.JobStarted(now, n.id, j.UUID)
	if n.cfg.MultiAssign > 1 {
		if initiator == n.id {
			// This node is the initiator and its own copy won.
			n.cancelCopies(j.UUID, j.Profile, n.id, sspan)
		} else {
			n.env.Send(initiator, Message{
				Type: MsgNotify, From: n.id, Job: j.Profile, Notify: NotifyStarted, Span: sspan,
			})
		}
	}
	actual := n.art.ART(j.ERT, ertp, n.env.Rand())
	if j.KnownART > 0 {
		// Trace replay: the recorded runtime, scaled to this node.
		actual = time.Duration(float64(j.KnownART) / n.profile.PerfIndex)
	}
	n.runningTimer = n.env.Schedule(actual, n.completeRunning)
}

// completeRunning finishes the running job and pulls the next one.
func (n *Node) completeRunning() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive || n.running == nil {
		return
	}
	j := n.running
	now := n.env.Now()
	j.State = job.StateCompleted
	j.CompletedAt = now
	n.running = nil
	n.runningTimer = nil
	cspan := n.emitSpan(TraceEvent{Kind: SpanComplete, UUID: j.UUID, Parent: n.runningSpan})
	n.runningSpan = 0
	// Write-ahead: journal the completion before emitting the observable
	// event. A crash between the two replays the job from scratch — a rerun,
	// which exactly-one tolerates; the reverse order could emit a completion
	// the journal never learned of and then run the job again after
	// recovery — a duplicate, which it does not.
	initiator := n.runningInitiator
	n.jlog(wal.Record{Type: wal.RecComplete, UUID: j.UUID, Span: cspan})
	if n.cfg.NotifyInitiator && initiator != n.id {
		// Same discipline for the completion notify: once the event is
		// observable, a crash must still resend the NOTIFY until acked, or
		// the initiator's watchdog would rerun an already-reported job.
		n.openResend(&resend{kind: resendNotify, profile: j.Profile, peer: initiator, span: cspan})
	}
	n.obs.JobCompleted(now, n.id, j)
	// Any ASSIGN handshake still open for this job (a resubmission that
	// self-assigned while the original ASSIGN awaits its ack) closes now.
	n.closeResend(j.UUID, resendAssign)
	if n.cfg.NotifyInitiator && initiator == n.id {
		// Local initiator: clear tracking directly.
		if t, ok := n.tracked[j.UUID]; ok {
			if t.watchdog != nil {
				t.watchdog()
			}
			delete(n.tracked, j.UUID)
			n.jlog(wal.Record{Type: wal.RecTrackDone, UUID: j.UUID})
		}
	}
	n.maybeStart()
}

// informTick advertises reschedulable jobs and re-arms itself.
func (n *Node) informTick() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return
	}
	now := n.env.Now()
	remaining := n.estRemaining()
	for _, cand := range n.queue.RescheduleCandidatesBy(n.cfg.InformSelection, n.cfg.InformJobs, now, remaining) {
		cost, ok := n.queue.QueuedCost(cand.UUID, now, remaining)
		if !ok {
			continue
		}
		var span uint64
		if n.tobs != nil {
			span = n.nextSpanID()
		}
		msg := Message{
			Type:   MsgInform,
			From:   n.id,
			Job:    cand.Profile,
			Cost:   cost,
			TTL:    n.cfg.InformTTL - 1,
			Fanout: n.cfg.InformFanout,
			Seq:    n.nextSeq(),
			Via:    n.id,
			Hop:    1,
			Span:   span,
			Dir:    n.selfDirPayload(),
		}
		n.markSeen(msg.floodFP())
		sent := n.forward(msg, n.cfg.InformFanout)
		n.emitSpan(TraceEvent{
			Kind: SpanFloodOrigin, UUID: cand.UUID, Span: span,
			Parent: n.enqSpans[cand.UUID], Msg: MsgInform,
			Hop: 0, TTL: n.cfg.InformTTL, Fanout: sent,
			Seq: msg.Seq, Origin: n.id, Cost: cost,
		})
	}
	n.informCancel = n.env.Schedule(n.cfg.InformInterval, n.informTick)
}

// forwardFlood relays a flood message one more hop if its TTL allows. The
// relayed copy decrements TTL, increments Hop (keeping their sum invariant
// along the wave), and carries a fresh span so downstream receipts parent
// under this relay. A forward event is emitted only when at least one copy
// actually went out — and a node reaches here at most once per wave, since
// duplicates are suppressed before forwarding. Caller holds the lock.
func (n *Node) forwardFlood(m Message) {
	if m.TTL <= 0 {
		return
	}
	next := m
	next.TTL--
	next.Hop++
	prev := m.Via
	next.Via = n.id
	if n.tobs != nil {
		next.Span = n.nextSpanID()
	}
	sent := n.forwardExcluding(next, m.Fanout, prev)
	if sent > 0 {
		n.emitSpan(TraceEvent{
			Kind: SpanForward, UUID: m.Job.UUID, Span: next.Span, Parent: m.Span,
			Msg: m.Type, Hop: m.Hop, TTL: m.TTL, Fanout: sent,
			Seq: m.Seq, Origin: m.From, Peer: m.Via,
		})
	}
}

// forward sends m to up to fanout random neighbors, returning the number of
// copies actually sent. Caller holds the lock.
func (n *Node) forward(m Message, fanout int) int {
	return n.forwardExcluding(m, fanout, n.id)
}

func (n *Node) forwardExcluding(m Message, fanout int, exclude overlay.NodeID) int {
	neighbors := n.env.Neighbors()
	if len(neighbors) == 0 || fanout <= 0 {
		return 0
	}
	candidates := neighbors[:0]
	for _, nb := range neighbors {
		if nb == exclude || nb == n.id || nb == m.From {
			continue
		}
		if n.peers != nil {
			// Never address a confirmed-dead neighbor; INFORMs (purely
			// advisory) additionally skip suspects rather than waste
			// rescheduling offers on a likely-dead assistant.
			if n.peerDead(nb) {
				continue
			}
			if m.Type == MsgInform && n.peerSuspect(nb) {
				continue
			}
		}
		candidates = append(candidates, nb)
	}
	if len(candidates) == 0 {
		return 0
	}
	rng := n.env.Rand()
	rng.Shuffle(len(candidates), func(i, k int) {
		candidates[i], candidates[k] = candidates[k], candidates[i]
	})
	if fanout > len(candidates) {
		fanout = len(candidates)
	}
	for _, to := range candidates[:fanout] {
		n.env.Send(to, m)
	}
	return fanout
}

// estRemaining is the node's belief about the running job's remaining time,
// based on the estimate (ERTp), not the hidden actual running time. Caller
// holds the lock.
func (n *Node) estRemaining() time.Duration {
	if n.running == nil {
		return 0
	}
	if rem := n.runningEstEnd - n.env.Now(); rem > 0 {
		return rem
	}
	return 0
}

// isDuplicate checks and marks flood deduplication state. Caller holds the
// lock.
func (n *Node) isDuplicate(m Message) bool {
	if n.cfg.DisableDuplicateSuppression {
		return false
	}
	fp := m.floodFP()
	n.rotateSeen(n.env.Now())
	if n.seenCur.contains(fp) || n.seenPrev.contains(fp) {
		return true
	}
	n.seenCur.insert(fp)
	return false
}

// markSeen records a flood fingerprint this node originated. Caller holds
// the lock.
func (n *Node) markSeen(fp uint64) {
	n.rotateSeen(n.env.Now())
	n.seenCur.insert(fp)
}

// rotateSeen ages the dedup generations: once per seenTTL the previous
// generation is dropped and the current one takes its place.
func (n *Node) rotateSeen(now time.Duration) {
	if now < n.seenRotateAt {
		return
	}
	if n.seenRotateAt == 0 {
		n.seenRotateAt = now + seenTTL
		return
	}
	n.seenPrev = n.seenCur
	n.seenCur = seenSet{}
	n.seenRotateAt = now + seenTTL
}

// nextSeq issues a fresh flood sequence number. Caller holds the lock.
func (n *Node) nextSeq() uint64 {
	n.seq++
	return n.seq
}

// nextSpanID issues a fresh span identifier: the node's address in the high
// 32 bits, a per-node counter in the low 32, so spans are unique across a
// run without coordination. Caller holds the lock.
func (n *Node) nextSpanID() uint64 {
	n.spanSeq++
	return uint64(uint32(n.id))<<32 | (n.spanSeq & 0xffffffff)
}

// emitSpan stamps and delivers one trace event, returning its span ID (zero
// when tracing is off). A pre-assigned ev.Span is respected so flood
// origins can put the span on the wire before the fan-out is known. Caller
// holds the lock.
func (n *Node) emitSpan(ev TraceEvent) uint64 {
	if n.tobs == nil {
		return 0
	}
	if ev.Span == 0 {
		ev.Span = n.nextSpanID()
	}
	ev.At = n.env.Now()
	ev.Node = n.id
	n.tobs.TraceSpan(ev)
	return ev.Span
}
