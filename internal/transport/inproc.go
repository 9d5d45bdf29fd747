package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/faults"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/resource"
	"github.com/smartgrid/aria/internal/sched"
	"github.com/smartgrid/aria/internal/wal"
)

// InprocCluster runs protocol nodes in one process under real time:
// deliveries and timers use the Go runtime, so nodes interact concurrently
// exactly as separate processes would. It demonstrates that the protocol
// engine is not simulator-bound and backs the live examples.
type InprocCluster struct {
	start   time.Time
	latency overlay.LatencyModel

	mu     sync.RWMutex
	graph  *overlay.Graph
	nodes  map[overlay.NodeID]*core.Node
	seed   int64
	faults *faults.LinkModel

	// specs remembers construction parameters for Restart; journals holds
	// each node's durable store once journaling is enabled; restarts
	// counts reboots per node, stamped on the replacement as its directory
	// incarnation.
	specs    map[overlay.NodeID]nodeSpec
	journals map[overlay.NodeID]*wal.Journal
	restarts map[overlay.NodeID]uint64
}

// NewInprocCluster creates an empty live cluster over a (possibly zero)
// latency model; nil latency means immediate delivery.
func NewInprocCluster(seed int64, latency overlay.LatencyModel) *InprocCluster {
	return &InprocCluster{
		start:    time.Now(),
		latency:  latency,
		graph:    overlay.NewGraph(),
		nodes:    make(map[overlay.NodeID]*core.Node),
		seed:     seed,
		specs:    make(map[overlay.NodeID]nodeSpec),
		restarts: make(map[overlay.NodeID]uint64),
	}
}

// EnableJournaling attaches an in-memory write-ahead journal to every node
// added from now on, making crashes recoverable via Restart.
func (c *InprocCluster) EnableJournaling() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journals == nil {
		c.journals = make(map[overlay.NodeID]*wal.Journal)
	}
}

// AddNode creates and registers a live node. Links are added separately via
// Connect. IDs must be non-negative: the overlay graph indexes by them.
func (c *InprocCluster) AddNode(
	id overlay.NodeID,
	profile resource.Profile,
	policy sched.Policy,
	cfg core.Config,
	obs core.Observer,
	art job.ARTModel,
) (*core.Node, error) {
	if id < 0 {
		return nil, fmt.Errorf("add node: negative ID %d", int32(id))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.nodes[id]; dup {
		return nil, fmt.Errorf("add node: %v already registered", id)
	}
	c.graph.AddNode(id)
	env := &inprocEnv{
		cluster: c,
		id:      id,
		rng:     rand.New(rand.NewSource(c.seed + int64(id)*7919)),
	}
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
	c.specs[id] = nodeSpec{profile: profile, policy: policy, cfg: cfg, obs: obs, art: art}
	return n, nil
}

// Restart replaces a killed node with a fresh one on the same address,
// replaying its journal when journaling is enabled (amnesiac otherwise).
// The replacement is started before being returned.
func (c *InprocCluster) Restart(id overlay.NodeID) (*core.Node, error) {
	c.mu.Lock()
	spec, ok := c.specs[id]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("restart: %v was never added", id)
	}
	if !c.graph.HasNode(id) {
		c.mu.Unlock()
		return nil, fmt.Errorf("restart: %v no longer in overlay graph", id)
	}
	if old, ok := c.nodes[id]; ok && old.Alive() {
		c.mu.Unlock()
		return nil, fmt.Errorf("restart: %v is still alive", id)
	}
	env := &inprocEnv{
		cluster: c,
		id:      id,
		rng:     rand.New(rand.NewSource(c.seed + int64(id)*7919 + 104729)),
	}
	n, err := core.NewNode(id, spec.profile, spec.policy, env, spec.cfg, spec.obs, spec.art)
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	j := c.journals[id]
	c.restarts[id]++
	n.SetIncarnation(c.restarts[id])
	// Register before recovering so recovery-time sends that loop back
	// (e.g. a NOTIFY to a local initiator) reach the new node; inbound
	// deliveries serialize on the node lock either way.
	c.nodes[id] = n
	c.mu.Unlock()
	if j != nil {
		n.AttachJournal(j)
		if _, err := n.Recover(); err != nil {
			return nil, err
		}
	}
	n.Start()
	return n, nil
}

// SetFaults installs a link fault model consulted on every transmission;
// nil restores perfect delivery. The LinkModel serializes its own draws, so
// one model can serve the whole concurrent cluster.
func (c *InprocCluster) SetFaults(lm *faults.LinkModel) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.faults = lm
}

// linkFaults reads the installed fault model under the cluster lock.
func (c *InprocCluster) linkFaults() *faults.LinkModel {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.faults
}

// Connect links two registered nodes in the overlay.
func (c *InprocCluster) Connect(a, b overlay.NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.graph.HasNode(a) || !c.graph.HasNode(b) {
		return fmt.Errorf("connect %v-%v: unknown node", a, b)
	}
	c.graph.AddLink(a, b)
	return nil
}

// Node returns the registered node with the given ID.
func (c *InprocCluster) Node(id overlay.NodeID) (*core.Node, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n, ok := c.nodes[id]
	return n, ok
}

// Nodes snapshots all registered nodes.
func (c *InprocCluster) Nodes() []*core.Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*core.Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		out = append(out, n)
	}
	return out
}

// StartAll starts every registered node.
func (c *InprocCluster) StartAll() {
	for _, n := range c.Nodes() {
		n.Start()
	}
}

// Close kills every node, cancelling their timers; in-flight deliveries
// drain harmlessly against dead nodes.
func (c *InprocCluster) Close() {
	for _, n := range c.Nodes() {
		n.Kill()
	}
}

// inprocEnv adapts the live cluster to core.Env for one node. The random
// source is per-node and only touched under the owning node's lock.
type inprocEnv struct {
	cluster *InprocCluster
	id      overlay.NodeID
	rng     *rand.Rand
}

var _ core.Env = (*inprocEnv)(nil)

func (e *inprocEnv) Now() time.Duration {
	return time.Since(e.cluster.start)
}

func (e *inprocEnv) Schedule(delay time.Duration, fn func()) core.Cancel {
	t := time.AfterFunc(delay, fn)
	return t.Stop
}

func (e *inprocEnv) Send(to overlay.NodeID, m core.Message) {
	var delay time.Duration
	if e.cluster.latency != nil {
		delay = e.cluster.latency.Delay(e.id, to)
	}
	deliver := func() {
		if dest, ok := e.cluster.Node(to); ok {
			dest.HandleMessage(m)
		}
	}
	extras := []time.Duration{0}
	if lm := e.cluster.linkFaults(); lm != nil {
		extras = lm.Plan(e.Now(), e.id, to).ExtraDelays
	}
	for _, extra := range extras {
		if delay+extra <= 0 {
			// Still asynchronous: Env.Send must never call back into the
			// sender's lock synchronously.
			go deliver()
			continue
		}
		time.AfterFunc(delay+extra, deliver)
	}
}

func (e *inprocEnv) Neighbors() []overlay.NodeID {
	e.cluster.mu.RLock()
	defer e.cluster.mu.RUnlock()
	return e.cluster.graph.Neighbors(e.id)
}

func (e *inprocEnv) Rand() *rand.Rand {
	return e.rng
}

var _ core.MembershipEnv = (*inprocEnv)(nil)

// PruneLink implements core.MembershipEnv.
func (e *inprocEnv) PruneLink(peer overlay.NodeID) {
	e.cluster.mu.Lock()
	defer e.cluster.mu.Unlock()
	e.cluster.graph.RemoveLink(e.id, peer)
}

// Reconnect implements core.MembershipEnv.
func (e *inprocEnv) Reconnect(peer overlay.NodeID, maxDegree int) bool {
	e.cluster.mu.Lock()
	defer e.cluster.mu.Unlock()
	if !e.cluster.graph.HasNode(peer) {
		return false
	}
	return e.cluster.graph.AddLinkCapped(e.id, peer, maxDegree)
}
