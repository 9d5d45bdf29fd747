// Package transport binds the ARiA protocol engine to concrete execution
// environments: the deterministic discrete-event simulator, an in-process
// goroutine cluster, and a TCP wire transport.
package transport

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/faults"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/resource"
	"github.com/smartgrid/aria/internal/sched"
	"github.com/smartgrid/aria/internal/sim"
	"github.com/smartgrid/aria/internal/wal"
)

// TrafficFunc observes every message transmission (one call per hop).
type TrafficFunc func(at time.Duration, from, to overlay.NodeID, m *core.Message)

// SimCluster runs a set of protocol nodes on a discrete-event simulation
// kernel over an overlay graph with a latency model. It is the evaluation
// substrate for every scenario in the paper.
//
// Each node maps to its own kernel lane (lane id = node id): sends become
// cross-lane arrivals, node-local timers stay on the node's lane, and every
// node draws from its lane's random stream.
type SimCluster struct {
	engine  *sim.Engine
	graph   *overlay.Graph
	latency overlay.LatencyModel
	nodes   map[overlay.NodeID]*core.Node
	traffic TrafficFunc
	faults  *faults.LinkModel

	// nodesSorted caches Nodes() — at 10k+ nodes re-sorting per submission
	// draw dominates profiles. Callers must treat the slice as read-only.
	nodesSorted []*core.Node
	nodesDirty  bool

	// specs remembers each node's construction parameters so Restart can
	// rebuild it; journals holds each node's durable store (the "disk"
	// that survives a crash) once journaling is enabled; restarts counts
	// reboots per node, stamped on the replacement as its incarnation so
	// remote directory caches can order knowledge across restarts.
	specs    map[overlay.NodeID]nodeSpec
	journals map[overlay.NodeID]*wal.Journal
	restarts map[overlay.NodeID]uint64
}

// nodeSpec is everything needed to reconstruct a node after a crash.
type nodeSpec struct {
	profile resource.Profile
	policy  sched.Policy
	cfg     core.Config
	obs     core.Observer
	art     job.ARTModel
}

// NewSimCluster creates an empty cluster over the given kernel, graph, and
// latency model.
func NewSimCluster(engine *sim.Engine, graph *overlay.Graph, latency overlay.LatencyModel) *SimCluster {
	return &SimCluster{
		engine:   engine,
		graph:    graph,
		latency:  latency,
		nodes:    make(map[overlay.NodeID]*core.Node),
		specs:    make(map[overlay.NodeID]nodeSpec),
		restarts: make(map[overlay.NodeID]uint64),
	}
}

// EnableJournaling attaches an in-memory write-ahead journal to every node
// added from now on, making crashes recoverable via Restart. The journals
// live in the cluster — the simulated "disk" that survives a node crash.
func (c *SimCluster) EnableJournaling() {
	if c.journals == nil {
		c.journals = make(map[overlay.NodeID]*wal.Journal)
	}
}

// Journaling reports whether EnableJournaling was called.
func (c *SimCluster) Journaling() bool { return c.journals != nil }

// SetTraffic installs a hook observing every transmitted message.
func (c *SimCluster) SetTraffic(fn TrafficFunc) {
	c.traffic = fn
}

// SetFaults installs a link fault model consulted on every transmission;
// nil restores perfect delivery. The cluster uses keyed draws (PlanKeyed),
// so the fate of each transmission is a function of (link, transmission
// index) and not of how other nodes' traffic interleaves — call
// (*faults.LinkModel).SetKeySeed first to key the stream to the run.
func (c *SimCluster) SetFaults(lm *faults.LinkModel) {
	c.faults = lm
}

// Engine exposes the underlying simulation kernel.
func (c *SimCluster) Engine() *sim.Engine { return c.engine }

// Graph exposes the overlay graph.
func (c *SimCluster) Graph() *overlay.Graph { return c.graph }

// AddNode constructs a protocol node bound to this cluster and registers
// it. The node's overlay ID must already exist in the graph.
func (c *SimCluster) AddNode(
	id overlay.NodeID,
	profile resource.Profile,
	policy sched.Policy,
	cfg core.Config,
	obs core.Observer,
	art job.ARTModel,
) (*core.Node, error) {
	if !c.graph.HasNode(id) {
		return nil, fmt.Errorf("add node: %v not in overlay graph", id)
	}
	if _, dup := c.nodes[id]; dup {
		return nil, fmt.Errorf("add node: %v already registered", id)
	}
	env := &simEnv{cluster: c, id: id, lane: sim.Lane(id)}
	n, err := core.NewNode(id, profile, policy, env, cfg, obs, art)
	if err != nil {
		return nil, err
	}
	if c.journals != nil {
		j := wal.New(&wal.MemStore{}, wal.Options{})
		c.journals[id] = j
		n.AttachJournal(j)
	}
	c.nodes[id] = n
	c.nodesDirty = true
	c.specs[id] = nodeSpec{profile: profile, policy: policy, cfg: cfg, obs: obs, art: art}
	return n, nil
}

// Restart replaces a killed node with a fresh process on the same overlay
// address. With journaling enabled the replacement replays its journal —
// recovering queue, tracking tables, and open handshakes — before starting;
// without, it comes back amnesiac (the fail-stop baseline). The replacement
// receives all traffic addressed to the ID from the moment it is registered.
func (c *SimCluster) Restart(id overlay.NodeID) (*core.Node, error) {
	spec, ok := c.specs[id]
	if !ok {
		return nil, fmt.Errorf("restart: %v was never added", id)
	}
	if !c.graph.HasNode(id) {
		return nil, fmt.Errorf("restart: %v no longer in overlay graph", id)
	}
	if old, ok := c.nodes[id]; ok && old.Alive() {
		return nil, fmt.Errorf("restart: %v is still alive", id)
	}
	c.restarts[id]++
	env := &simEnv{
		cluster: c, id: id, lane: sim.Lane(id),
		// A fresh incarnation keys a fresh fault-draw stream.
		sendSeq: c.restarts[id] << 40,
	}
	n, err := core.NewNode(id, spec.profile, spec.policy, env, spec.cfg, spec.obs, spec.art)
	if err != nil {
		return nil, err
	}
	n.SetIncarnation(c.restarts[id])
	if j, ok := c.journals[id]; ok {
		n.AttachJournal(j)
		if _, err := n.Recover(); err != nil {
			return nil, err
		}
	}
	c.nodes[id] = n
	c.nodesDirty = true
	n.Start()
	return n, nil
}

// Node returns the registered node with the given ID, if any.
func (c *SimCluster) Node(id overlay.NodeID) (*core.Node, bool) {
	n, ok := c.nodes[id]
	return n, ok
}

// Nodes returns all registered nodes in ascending ID order. The returned
// slice is shared and must not be mutated; it stays valid until the next
// AddNode or Restart.
func (c *SimCluster) Nodes() []*core.Node {
	if !c.nodesDirty && c.nodesSorted != nil {
		return c.nodesSorted
	}
	ids := make([]overlay.NodeID, 0, len(c.nodes))
	for id := range c.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, k int) bool { return ids[i] < ids[k] })
	out := make([]*core.Node, len(ids))
	for i, id := range ids {
		out[i] = c.nodes[id]
	}
	c.nodesSorted, c.nodesDirty = out, false
	return out
}

// StartAll starts every registered node in ID order (deterministic).
func (c *SimCluster) StartAll() {
	for _, n := range c.Nodes() {
		n.Start()
	}
}

// IdleCount reports how many registered nodes are currently idle.
func (c *SimCluster) IdleCount() int {
	idle := 0
	for _, n := range c.nodes {
		if n.Idle() {
			idle++
		}
	}
	return idle
}

// simEnv adapts the cluster to core.Env for one node. The node's lane is
// its overlay ID.
type simEnv struct {
	cluster *SimCluster
	id      overlay.NodeID
	lane    sim.Lane

	// sendSeq counts this node-incarnation's transmissions; it keys fault
	// draws.
	sendSeq uint64
}

var _ core.Env = (*simEnv)(nil)

func (e *simEnv) Now() time.Duration { return e.cluster.engine.Now() }

func (e *simEnv) Schedule(delay time.Duration, fn func()) core.Cancel {
	return e.cluster.engine.ScheduleFrom(e.lane, e.lane, delay, fn).Cancel
}

func (e *simEnv) Send(to overlay.NodeID, m core.Message) {
	c := e.cluster
	now := e.Now()
	if c.traffic != nil {
		c.traffic(now, e.id, to, &m)
	}
	delay := c.latency.Delay(e.id, to)
	// One heap copy of the message, shared by every delivery closure;
	// HandleMessage takes its own stack copy at the call boundary.
	mp := &m
	deliver := func() {
		if dest, ok := c.nodes[to]; ok {
			dest.HandleMessage(*mp)
		}
	}
	if c.faults == nil {
		c.engine.ScheduleFrom(e.lane, sim.Lane(to), delay, deliver)
		return
	}
	// One scheduled delivery per surviving copy (zero copies = dropped).
	e.sendSeq++
	for _, extra := range c.faults.PlanKeyed(now, e.id, to, e.sendSeq).ExtraDelays {
		c.engine.ScheduleFrom(e.lane, sim.Lane(to), delay+extra, deliver)
	}
}

func (e *simEnv) Neighbors() []overlay.NodeID { return e.cluster.graph.Neighbors(e.id) }

func (e *simEnv) Rand() *rand.Rand {
	return e.cluster.engine.LaneRand(e.lane)
}

var _ core.MembershipEnv = (*simEnv)(nil)

// PruneLink implements core.MembershipEnv: the membership plane severs the
// overlay link to a confirmed-dead neighbor. The dead node itself stays in
// the graph (the harness, not the protocol, knows when a corpse is gone).
func (e *simEnv) PruneLink(peer overlay.NodeID) { e.cluster.graph.RemoveLink(e.id, peer) }

// Reconnect implements core.MembershipEnv: overlay repair adds a link to a
// neighbor-of-neighbor, bounded by maxDegree on both endpoints.
func (e *simEnv) Reconnect(peer overlay.NodeID, maxDegree int) bool {
	return e.cluster.graph.AddLinkCapped(e.id, peer, maxDegree)
}
