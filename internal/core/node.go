package core

import (
	"fmt"
	"maps"
	"slices"
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

	// Initiator-side discovery rounds, every stage in one table (round.go).
	rounds map[job.UUID]*round

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
	// disabled): the cluster view layered on the directory store and —
	// provider side — the instant of the last granted commit, which
	// classifies a bound-hit conflict as lost-the-race versus plain stale.
	view            *sharedstate.Store
	lastCommitGrant time.Duration

	// Trace plane bookkeeping (only maintained with a TraceObserver):
	// the span under which each queued job was enqueued, and the span of
	// the running job, so starts, completions, and crash losses parent
	// correctly in the causal tree.
	enqSpans    map[job.UUID]uint64
	runningSpan uint64

	seq     uint64
	spanSeq uint64
	started bool

	// INFORM advertiser (§III-D). It ticks on the phase-aligned schedule
	// informNext + k·InformInterval, but only while the queue holds a job:
	// RescheduleCandidatesBy draws from the queue alone, so a tick over an
	// empty queue could never send anything. Such a tick does not re-arm;
	// the advertiser goes dormant, and the next enqueue wakes it at the
	// first aligned instant strictly after now (wakeInform). Every tick
	// that remains fires at the instant it would have fired anyway, so
	// nothing observable moves. informNext is the due instant of the armed
	// tick, or of the last one while dormant. informFn and probeFn cache
	// the method values, which would otherwise allocate on every arm.
	informCancel  Cancel
	informNext    time.Duration
	informDormant bool
	informFn      func()
	probeFn       func()
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
		rounds:     make(map[job.UUID]*round),
		tracked:    make(map[job.UUID]*trackedJob),
		multi:      make(map[job.UUID][]overlay.NodeID),
		initiators: make(map[job.UUID]overlay.NodeID),
		outbox:     make(map[resendKey]*resend),
		enqSpans:   make(map[job.UUID]uint64),
	}
	n.informFn, n.probeFn = n.informTick, n.probeTick
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
// staggered. An advertiser with nothing queued starts dormant: it keeps its
// phase but arms no timer until the first enqueue.
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
		n.informNext = n.env.Now() + phase + n.cfg.InformInterval
		n.informDormant = true
		n.wakeInform() // arms now only if Recover already filled the queue
	}
	if n.cfg.Membership() {
		phase := time.Duration(n.env.Rand().Int63n(int64(n.cfg.ProbeInterval)))
		n.probeCancel = n.env.Schedule(phase, n.probeFn)
	}
}

// Stop cancels the INFORM advertiser and the membership probe loop; queued
// and running work continues.
func (n *Node) Stop() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stopInform()
	n.cancelMembershipTimers()
}

// stopInform cancels the advertiser for good, dormant or armed: no later
// enqueue wakes it. Caller holds the lock.
func (n *Node) stopInform() {
	if n.informCancel != nil {
		n.informCancel()
		n.informCancel = nil
	}
	n.informDormant = false
}

// wakeInform arms a dormant advertiser when the queue holds a job, at the
// first instant of its schedule strictly after now — the instant an
// advertiser that never slept would tick next. A no-op unless dormant.
// Caller holds the lock.
func (n *Node) wakeInform() {
	if !n.informDormant || n.queue.Len() == 0 {
		return
	}
	n.informDormant = false
	now, every := n.env.Now(), n.cfg.InformInterval
	if n.informNext <= now {
		n.informNext += ((now-n.informNext)/every + 1) * every
	}
	n.informCancel = n.env.Schedule(n.informNext-now, n.informFn)
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
	n.stopInform()
	// Discovery rounds die with their initiator; the sorted walk keeps the
	// emitted span order deterministic. A commit round's loss names its
	// target.
	for _, uuid := range slices.Sorted(maps.Keys(n.rounds)) {
		r := n.rounds[uuid]
		if r.timer != nil {
			r.timer()
		}
		n.emitSpan(TraceEvent{Kind: SpanLost, UUID: uuid, Parent: r.span, Peer: r.target})
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
	n.rounds = make(map[job.UUID]*round)
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
	if _, open := n.rounds[p.UUID]; open {
		return fmt.Errorf("submit: job %s already pending", p.UUID.Short())
	}
	// Admission control: past the pending bound the submission is bounced
	// before it counts as submitted, so the caller can redraw another
	// portal or push back on the client. Every open round counts, whatever
	// its stage.
	if inflight := len(n.rounds); n.cfg.MaxPendingSubmits > 0 && inflight >= n.cfg.MaxPendingSubmits {
		n.obs.SubmitRejected(n.env.Now(), n.id, p.UUID, inflight)
		return fmt.Errorf("submit: node %v: %w", n.id, ErrOverloaded)
	}
	n.obs.JobSubmitted(n.env.Now(), n.id, p)
	root := n.emitSpan(TraceEvent{Kind: SpanSubmit, UUID: p.UUID})
	n.startDiscovery(p, 0, root)
	return nil
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
	if _, open := n.rounds[uuid]; open {
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
func (n *Node) multiAssign(r *round) {
	sort.SliceStable(r.offers, func(i, k int) bool {
		return r.offers[i].cost < r.offers[k].cost
	})
	var targets []offer
	seen := make(map[overlay.NodeID]bool, n.cfg.MultiAssign)
	for _, o := range r.offers {
		if seen[o.node] {
			continue
		}
		seen[o.node] = true
		targets = append(targets, o)
		if len(targets) == n.cfg.MultiAssign {
			break
		}
	}
	uuid := r.profile.UUID
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
			Kind: SpanAssign, UUID: uuid, Parent: r.span,
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
		n.env.Send(o.node, Message{Type: MsgAssign, From: n.id, Job: r.profile, Via: n.id, Span: cspan})
	}
	if selfCopy {
		n.enqueueLocal(r.profile, n.id, selfSpan)
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
	if _, open := n.rounds[uuid]; !open {
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
	if r := n.commitRound(m.Job.UUID); r != nil && m.From == r.target {
		n.commitGranted(r, m)
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
// when this node is the job's initiator with a round open at a collect
// stage, otherwise a rescheduling offer for a job queued here. Caller holds
// the lock.
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
	if r := n.rounds[uuid]; r != nil && r.stage != stageCommit {
		n.emitSpan(TraceEvent{
			Kind: SpanOfferRecv, UUID: uuid, Parent: m.Span,
			Peer: m.From, Cost: m.Cost,
		})
		if r.stage == stageDirected {
			r.directedOffers++
		}
		if !r.hasBest || m.Cost < r.bestCost {
			r.best, r.bestCost, r.hasBest = m.From, m.Cost, true
		}
		r.offers = append(r.offers, offer{node: m.From, cost: m.Cost})
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
	n.wakeInform()
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
		if r := n.commitRound(m.Job.UUID); r != nil {
			n.abandonRound(r)
		}
		// It also supersedes any copy of the job this node still holds
		// itself — a watchdog resubmission that self-assigned races the
		// original assignee's recovery exactly like a remote replacement.
		n.dropLocalCopy(m.Job.UUID, m.Span, m.From)
	}
	if m.Notify == NotifyQueued {
		if r := n.commitRound(m.Job.UUID); r != nil && r.target == m.From {
			// The enqueue NOTIFY from the commit target outran (or replaced
			// a lost) grant ASSIGN_ACK: the enqueue is proof the commit was
			// granted. Close the round before the tracked-state update below
			// so the retry timer cannot place a second copy.
			n.commitGranted(r, m)
		}
	}
	t, ok := n.tracked[m.Job.UUID]
	if !ok {
		return
	}
	switch m.Notify {
	case NotifyQueued:
		if t.resub > 0 {
			if r, open := n.rounds[m.Job.UUID]; open {
				// A pre-resubmission copy resurfaced (typically a crashed
				// assignee whose recovery re-enqueued the job) while the
				// replacement round is still open — collecting offers, or
				// committing to another provider (a NOTIFY from the commit
				// target itself was the grant above): keep the live copy,
				// abandon the round — letting it place would create a
				// second live copy.
				n.abandonRound(r)
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
		if r, open := n.rounds[m.Job.UUID]; open {
			n.abandonRound(r)
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
	if r, open := n.rounds[uuid]; tracked && open && (r.stage != stageCommit || r.target != m.From) {
		// The watchdog's replacement round is still open — collecting
		// offers, or committing to another provider: keep the resurfaced
		// copy, abandon the round.
		n.abandonRound(r)
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

// informTick advertises reschedulable jobs and re-arms itself, or goes
// dormant when the queue is empty.
func (n *Node) informTick() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive || n.informCancel == nil {
		return // crashed, or stopped while a live timer was already firing
	}
	n.informCancel = nil
	now := n.env.Now()
	if n.queue.Len() == 0 {
		n.informDormant = true
		return
	}
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
	n.informNext = now + n.cfg.InformInterval
	n.informCancel = n.env.Schedule(n.cfg.InformInterval, n.informFn)
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
