package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/faults"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/resource"
	"github.com/smartgrid/aria/internal/sched"
)

// TCPConfig describes one live grid node's network identity.
type TCPConfig struct {
	// ID is the node's overlay address.
	ID overlay.NodeID

	// Listen is the TCP address to bind (e.g. "127.0.0.1:7401").
	Listen string

	// Peers maps every known node ID (at least the neighbors plus any
	// node that may address this one) to its dialable address.
	Peers map[overlay.NodeID]string

	// Neighbors lists the node's overlay neighbors; floods fan out to a
	// random subset of these.
	Neighbors []overlay.NodeID

	// Seed drives the node's local randomness.
	Seed int64
}

// Validate reports the first structural problem.
func (c TCPConfig) Validate() error {
	switch {
	case c.Listen == "":
		return fmt.Errorf("tcp node %v: empty listen address", c.ID)
	case len(c.Peers) == 0:
		return fmt.Errorf("tcp node %v: no peers", c.ID)
	case len(c.Neighbors) == 0:
		return fmt.Errorf("tcp node %v: no neighbors", c.ID)
	}
	for _, nb := range c.Neighbors {
		if _, ok := c.Peers[nb]; !ok {
			return fmt.Errorf("tcp node %v: neighbor %v has no peer address", c.ID, nb)
		}
	}
	return nil
}

// Wire hardening parameters. Dials retry with doubling, jittered backoff
// (clamped to tcpDialBackoffCap) so a peer restarting on the same address is
// reached without losing the message; writes carry a deadline so one stalled
// peer cannot pin its flusher forever, and at most peerQueueBytes of frames
// wait behind it. After tcpBreakerThreshold consecutive send failures a
// peer's circuit breaker opens and sends to it fast-fail for
// tcpBreakerCooldown before a probe is let through.
const (
	tcpDialTimeout      = 2 * time.Second
	tcpDialAttempts     = 3
	tcpDialBackoff      = 50 * time.Millisecond
	tcpDialBackoffCap   = 2 * time.Second
	tcpBreakerThreshold = 3
	tcpBreakerCooldown  = 5 * time.Second

	// peerQueueBytes bounds the encoded frames queued for one peer (a few
	// thousand frames: seconds of traffic on a busy link). A frame that
	// would push a non-empty queue past it is dropped and counted, like
	// any lost datagram.
	peerQueueBytes = 256 << 10
)

var errEnvClosed = errors.New("transport closed")

// tcpWriteDeadline bounds one write of queued frames. Var, not const, so
// tests can shorten it.
var tcpWriteDeadline = 2 * time.Second

// wireSendDrops counts frames this process refused to put on the wire, by
// reason. They are local decisions, distinct from WireRejects (inbound
// frames refused).
var wireSendDrops struct {
	invalid  atomic.Uint64
	overflow atomic.Uint64
}

// WireSendDrops snapshots the process-wide counts of outbound frames dropped
// before the socket: messages that failed validation ("sendInvalid") and
// frames that met a full per-peer queue ("sendOverflow").
func WireSendDrops() map[string]uint64 {
	return map[string]uint64{
		"sendInvalid":  wireSendDrops.invalid.Load(),
		"sendOverflow": wireSendDrops.overflow.Load(),
	}
}

// TCPNode hosts one protocol node behind a TCP listener, dialing peers on
// demand and keeping one connection and one ordered send queue per peer.
// Messages are CRC-framed binary (see codec.go).
type TCPNode struct {
	node *core.Node
	ln   net.Listener
	env  *tcpEnv

	mu      sync.Mutex
	closed  bool
	inbound map[net.Conn]struct{}
	wg      sync.WaitGroup
}

// ListenTCP binds the listener and constructs the protocol node. The node
// is inert until Start.
func ListenTCP(
	cfg TCPConfig,
	profile resource.Profile,
	policy sched.Policy,
	protoCfg core.Config,
	obs core.Observer,
	art job.ARTModel,
) (*TCPNode, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("tcp node %v: %w", cfg.ID, err)
	}
	env := newTCPEnv(cfg)
	n, err := core.NewNode(cfg.ID, profile, policy, env, protoCfg, obs, art)
	if err != nil {
		env.close()
		if cerr := ln.Close(); cerr != nil {
			return nil, fmt.Errorf("%w (also closing listener: %v)", err, cerr)
		}
		return nil, err
	}
	// Wire transport-level failure evidence into the liveness detector
	// (a no-op when the membership plane is disabled).
	env.mu.Lock()
	env.onUnreachable = n.ReportUnreachable
	env.mu.Unlock()
	t := &TCPNode{node: n, ln: ln, env: env, inbound: make(map[net.Conn]struct{})}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Node exposes the protocol node (for Submit, Start, metrics).
func (t *TCPNode) Node() *core.Node { return t.node }

// SetFaults installs a link fault model consulted on every outbound
// transmission, lifting the simulator's fault semantics (drop, duplication,
// jitter, partitions, slow-peer and stall windows) onto real sockets; nil
// restores clean delivery. Injected drops are silent — they model network
// loss, so they feed neither the circuit breaker nor the liveness detector
// (exactly like a lost UDP datagram gives the sender no evidence). The
// model's clock is this node's process clock (time since ListenTCP), so
// fault windows are phrased relative to node start.
func (t *TCPNode) SetFaults(lm *faults.LinkModel) {
	t.env.mu.Lock()
	t.env.faults = lm
	t.env.mu.Unlock()
}

// Addr reports the bound listen address.
func (t *TCPNode) Addr() string { return t.ln.Addr().String() }

// Close stops the listener, kills the node, and waits for the accept loop,
// the connection servers and every peer's flusher.
func (t *TCPNode) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	err := t.ln.Close()
	t.node.Kill()
	t.env.close()
	t.mu.Lock()
	for conn := range t.inbound {
		_ = conn.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	return err
}

func (t *TCPNode) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = conn.Close()
			return
		}
		t.inbound[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.serveConn(conn)
	}
}

func (t *TCPNode) serveConn(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
		_ = conn.Close()
	}()
	fr := newFrameReader(conn)
	for {
		m, err := fr.next()
		if err != nil {
			return // EOF or protocol violation: drop the connection
		}
		t.node.HandleMessage(m)
	}
}

// tcpEnv adapts the wire transport to core.Env.
type tcpEnv struct {
	start time.Time
	id    overlay.NodeID
	rng   *rand.Rand // only touched under the owning node's lock

	// nmu guards the neighbor list, which the membership plane edits at
	// runtime (PruneLink, Reconnect).
	nmu       sync.Mutex
	neighbors []overlay.NodeID

	jmu  sync.Mutex
	jrng *rand.Rand // backoff jitter source, shared by flushers

	// ctx ends at close: it aborts dials and backoff pauses, and wg counts
	// the running flushers, so close returns with none left.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu    sync.Mutex
	peers map[overlay.NodeID]string
	// out holds one send record per peer this node has sent to; nil once
	// the env is closed.
	out map[overlay.NodeID]*peer
	// faults, when non-nil, decides the fate of every outbound
	// transmission before it is queued.
	faults *faults.LinkModel
	// onUnreachable (set once at node construction, read by flushers)
	// feeds transport-level delivery failures to the liveness detector.
	onUnreachable func(overlay.NodeID)
}

func newTCPEnv(cfg TCPConfig) *tcpEnv {
	// The env owns its flushers' lifetime; close cancels.
	ctx, cancel := context.WithCancel(context.Background())
	return &tcpEnv{
		start:     time.Now(),
		id:        cfg.ID,
		peers:     cfg.Peers,
		neighbors: append([]overlay.NodeID(nil), cfg.Neighbors...),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		jrng:      rand.New(rand.NewSource(cfg.Seed ^ 0x5dee7)),
		ctx:       ctx,
		cancel:    cancel,
		out:       make(map[overlay.NodeID]*peer),
	}
}

var _ core.Env = (*tcpEnv)(nil)

func (e *tcpEnv) Now() time.Duration {
	return time.Since(e.start)
}

// Schedule arms delays shorter than the runtime's idle timer granularity on
// a kernel timer (see afterShort), everything else on the runtime's.
func (e *tcpEnv) Schedule(delay time.Duration, fn func()) core.Cancel {
	if delay > 0 && delay < time.Millisecond {
		if cancel, ok := afterShort(delay, fn); ok {
			return cancel
		}
	}
	t := time.AfterFunc(delay, fn)
	return t.Stop
}

// Send queues m for the peer and returns; the peer's flusher delivers
// asynchronously, so frames to one peer leave in the order they were sent. A
// message that fails validation, or meets a full queue, is dropped and
// counted (WireSendDrops) without touching the connection; a frame lost to a
// broken connection or an open breaker is dropped too, which the protocol
// tolerates (timeouts and retries cover losses).
func (e *tcpEnv) Send(to overlay.NodeID, m core.Message) {
	e.mu.Lock()
	lm := e.faults
	p := e.peerLocked(to)
	e.mu.Unlock()
	switch {
	case p == nil: // closed
	case lm == nil:
		p.enqueue(&m)
	default:
		e.sendFaulty(lm, p, m)
	}
}

// sendFaulty queues one copy of m per transmission the fault plane lets
// through (zero copies = injected drop, silent by design — see SetFaults),
// the delayed ones from a timer. It is a function of its own so that the
// timer closure moves m to the heap here and not on every clean Send.
func (e *tcpEnv) sendFaulty(lm *faults.LinkModel, p *peer, m core.Message) {
	out := lm.Plan(e.Now(), e.id, p.id)
	for _, extra := range out.ExtraDelays {
		if extra > 0 {
			time.AfterFunc(extra, func() { p.enqueue(&m) })
			continue
		}
		p.enqueue(&m)
	}
}

// peerLocked returns the peer's send record, creating it on first use; nil
// once the env is closed. Caller holds e.mu.
func (e *tcpEnv) peerLocked(to overlay.NodeID) *peer {
	if e.out == nil {
		return nil
	}
	p, ok := e.out[to]
	if !ok {
		p = &peer{env: e, id: to, br: newBreaker(tcpBreakerThreshold, tcpBreakerCooldown)}
		e.out[to] = p
	}
	return p
}

// peer is everything this node keeps per destination: the connection, the
// circuit breaker, and the frames waiting to be written. At most one flusher
// goroutine runs per peer, started by the send that finds the queue idle and
// gone again once it finds the queue empty.
type peer struct {
	env *tcpEnv
	id  overlay.NodeID
	br  *breaker // driven by the flusher alone

	mu       sync.Mutex
	queue    *[]byte  // encoded frames awaiting the flusher, from frameBuffers; nil when empty
	queued   int      // frames in queue
	flushing bool     // a flusher is running
	conn     net.Conn // set by the flusher; here so close can interrupt a write
	closed   bool
}

// enqueue frames m behind whatever already waits for the peer and makes
// sure a flusher is running.
func (p *peer) enqueue(m *core.Message) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	bp := p.queue
	if bp == nil {
		bp = frameBuffers.Get().(*[]byte)
		*bp = (*bp)[:0]
	}
	before := len(*bp)
	b, err := appendFrame(*bp, m)
	full := err == nil && p.queued > 0 && len(b) > peerQueueBytes
	if err != nil || full {
		if full {
			wireSendDrops.overflow.Add(1)
		} else {
			wireSendDrops.invalid.Add(1)
		}
		if *bp = b[:before]; p.queue == nil {
			frameBuffers.Put(bp)
		}
		return
	}
	*bp, p.queue = b, bp
	p.queued++
	if !p.flushing {
		p.flushing = true
		p.env.wg.Add(1)
		go p.flush()
	}
}

// flush writes out the queue until it finds it empty: each round takes
// everything queued since the last one and hands it to the socket in a
// single write, so a burst to one peer costs one syscall, not one per frame.
func (p *peer) flush() {
	defer p.env.wg.Done()
	for {
		p.mu.Lock()
		bp, frames := p.queue, p.queued
		p.queue, p.queued = nil, 0
		p.flushing = bp != nil // close empties the queue, so this ends a closed peer's flusher too
		p.mu.Unlock()
		if bp == nil {
			return
		}
		p.transmit(*bp, frames)
		frameBuffers.Put(bp)
	}
}

// transmit pushes a batch of frames at the peer. A cached connection that
// turns out to be broken (peer restarted, half-open socket) is evicted and
// the batch retried once on a fresh dial; beyond that the frames are lost,
// each one a send failure to the breaker and the liveness detector. The
// breaker wraps the whole exchange: once it opens, batches fast-fail without
// paying the dial-retry ladder until a cooldown probe succeeds.
func (p *peer) transmit(batch []byte, frames int) {
	e := p.env
	if !p.br.Allow(e.Now()) {
		return // circuit open: the liveness detector already knows
	}
	for attempt := 0; attempt < 2; attempt++ {
		conn, err := p.connect()
		if err != nil {
			break
		}
		_ = conn.SetWriteDeadline(time.Now().Add(tcpWriteDeadline))
		if _, err = conn.Write(batch); err == nil {
			p.br.Success()
			return
		}
		p.dropConn(conn)
	}
	if e.ctx.Err() != nil {
		return // closing: the failure says nothing about the peer
	}
	for i := 0; i < frames; i++ {
		p.br.Failure(e.Now())
		e.reportUnreachable(p.id)
	}
}

// connect returns the peer's connection, dialing when there is none.
func (p *peer) connect() (net.Conn, error) {
	p.mu.Lock()
	conn := p.conn
	p.mu.Unlock()
	if conn != nil {
		return conn, nil
	}
	conn, err := p.env.dial(p.id)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		_ = conn.Close()
		return nil, errEnvClosed
	}
	p.conn = conn
	p.env.wg.Add(1) // the caller is a flusher, so close is not past its Wait
	go p.watch(conn)
	return conn, nil
}

// watch parks on the read side of a dialed connection. Nothing is ever sent
// back on it, so the read returns only when the connection ends — the peer
// exited or restarted, or this side closed it — and a dead connection is
// dropped the moment the peer's FIN arrives. Left to the next write to find
// out, the kernel would accept that write and discard it: the first frames
// after a peer's restart would vanish without an error.
func (p *peer) watch(conn net.Conn) {
	defer p.env.wg.Done()
	var one [1]byte
	_, _ = conn.Read(one[:])
	p.dropConn(conn)
}

func (p *peer) dropConn(conn net.Conn) {
	_ = conn.Close()
	p.mu.Lock()
	if p.conn == conn {
		p.conn = nil
	}
	p.mu.Unlock()
}

// close discards the queue and closes the connection, which fails a write
// in flight; the flusher then finds the peer closed and exits.
func (p *peer) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	if p.queue != nil {
		frameBuffers.Put(p.queue)
		p.queue, p.queued = nil, 0
	}
	if p.conn != nil {
		_ = p.conn.Close()
	}
}

// reportUnreachable forwards a delivery failure to the liveness detector.
// It runs on a flusher goroutine, never under the node lock, so calling back
// into the node is safe.
func (e *tcpEnv) reportUnreachable(to overlay.NodeID) {
	e.mu.Lock()
	fn := e.onUnreachable
	e.mu.Unlock()
	if fn != nil {
		fn(to)
	}
}

// jitter returns a uniformly random duration in [0, d).
func (e *tcpEnv) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	e.jmu.Lock()
	defer e.jmu.Unlock()
	return time.Duration(e.jrng.Int63n(int64(d)))
}

// dial attempts the peer's address a few times with doubling, jittered
// backoff, riding out momentary outages such as a peer restart. Closing the
// env aborts it.
func (e *tcpEnv) dial(to overlay.NodeID) (net.Conn, error) {
	e.mu.Lock()
	addr, ok := e.peers[to]
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("no address for node %v", to)
	}
	dialer := net.Dialer{Timeout: tcpDialTimeout}
	var lastErr error
	for attempt := 0; attempt < tcpDialAttempts; attempt++ {
		if attempt > 0 {
			d := dialBackoff(attempt)
			pause := time.NewTimer(d + e.jitter(d))
			select {
			case <-pause.C:
			case <-e.ctx.Done():
				pause.Stop()
				return nil, errEnvClosed
			}
		}
		conn, err := dialer.DialContext(e.ctx, "tcp", addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// dialBackoff returns the pause before dial attempt n (1-based): doubling
// from tcpDialBackoff, clamped to tcpDialBackoffCap. The clamp (and the
// shift guard) means raising tcpDialAttempts can never produce minute-long
// stalls or a negative duration from shift overflow.
func dialBackoff(attempt int) time.Duration {
	const shiftMax = 16
	s := attempt - 1
	if s < 0 {
		s = 0
	} else if s > shiftMax {
		s = shiftMax
	}
	d := tcpDialBackoff << uint(s)
	if d <= 0 || d > tcpDialBackoffCap {
		return tcpDialBackoffCap
	}
	return d
}

// close drops every queue and connection and returns once the flushers have
// exited. Sends after it are dropped.
func (e *tcpEnv) close() {
	e.mu.Lock()
	out := e.out
	e.out = nil
	e.mu.Unlock()
	e.cancel()
	for _, p := range out {
		p.close()
	}
	e.wg.Wait()
}

func (e *tcpEnv) Neighbors() []overlay.NodeID {
	e.nmu.Lock()
	defer e.nmu.Unlock()
	out := make([]overlay.NodeID, len(e.neighbors))
	copy(out, e.neighbors)
	return out
}

func (e *tcpEnv) Rand() *rand.Rand {
	return e.rng
}

var _ core.MembershipEnv = (*tcpEnv)(nil)

// PruneLink implements core.MembershipEnv: the dead peer leaves this node's
// neighbor list (each endpoint prunes its own side — there is no shared
// graph on the wire transport).
func (e *tcpEnv) PruneLink(peer overlay.NodeID) {
	e.nmu.Lock()
	defer e.nmu.Unlock()
	for i, nb := range e.neighbors {
		if nb == peer {
			e.neighbors = append(e.neighbors[:i], e.neighbors[i+1:]...)
			return
		}
	}
}

// Reconnect implements core.MembershipEnv: a gossiped neighbor-of-neighbor
// with a known dialable address becomes a new neighbor, bounded by
// maxDegree. Only this side's list is updated; the peer learns of the link
// through the probe traffic that follows.
func (e *tcpEnv) Reconnect(peer overlay.NodeID, maxDegree int) bool {
	if _, known := e.peers[peer]; !known || peer == e.id {
		return false
	}
	e.nmu.Lock()
	defer e.nmu.Unlock()
	if maxDegree > 0 && len(e.neighbors) >= maxDegree {
		return false
	}
	for _, nb := range e.neighbors {
		if nb == peer {
			return false
		}
	}
	e.neighbors = append(e.neighbors, peer)
	return true
}
