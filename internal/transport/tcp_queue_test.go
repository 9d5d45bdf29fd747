package transport

import (
	"bytes"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/sched"
)

// peerOf returns env's send record for node 2, the only peer these tests use.
func peerOf(env *tcpEnv) *peer {
	env.mu.Lock()
	defer env.mu.Unlock()
	return env.peerLocked(2)
}

// TestTCPPerPeerFIFO pins the ordering guarantee: frames handed to Send back
// to back for one peer arrive in that order. (One goroutine per message, as
// the transport used to send, lets NOTIFY started/completed or ASSIGN then
// CANCEL overtake each other.)
func TestTCPPerPeerFIFO(t *testing.T) {
	const frames = 2000
	recv := make(chan core.Message, frames)
	sink := startRawPeer(t, "127.0.0.1:0", recv)
	defer sink.stop()
	env := newPeerEnv(sink.ln.Addr().String(), 11)
	defer env.close()
	overflowBefore := WireSendDrops()["sendOverflow"]

	for seq := uint64(1); seq <= frames; seq++ {
		env.Send(2, core.Message{Type: core.MsgPing, From: 1, Seq: seq})
	}
	for want := uint64(1); want <= frames; want++ {
		select {
		case m := <-recv:
			if m.Seq != want {
				t.Fatalf("frame %d arrived where %d was due", m.Seq, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("frame %d never arrived", want)
		}
	}
	if n := WireSendDrops()["sendOverflow"] - overflowBefore; n != 0 {
		// 2 000 PINGs are ~30 KB, far inside the queue bound.
		t.Fatalf("%d frames overflowed a healthy peer's queue", n)
	}
}

// gatedConn counts writes and parks the first one until released, standing
// in for a socket that is slow to take a batch.
type gatedConn struct {
	net.Conn
	writes  atomic.Int32
	entered chan struct{}
	release chan struct{}
}

func (g *gatedConn) Write(b []byte) (int, error) {
	if g.writes.Add(1) == 1 {
		close(g.entered)
		<-g.release
	}
	return g.Conn.Write(b)
}

// TestFlushCoalesces pins the syscall economy: everything queued while the
// flusher is busy leaves in one Write, in order.
func TestFlushCoalesces(t *testing.T) {
	const queued = 64
	recv := make(chan core.Message, queued+1)
	sink := startRawPeer(t, "127.0.0.1:0", recv)
	defer sink.stop()
	env := newPeerEnv(sink.ln.Addr().String(), 12)
	defer env.close()

	raw, err := net.Dial("tcp", sink.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	gate := &gatedConn{Conn: raw, entered: make(chan struct{}), release: make(chan struct{})}
	p := peerOf(env)
	p.mu.Lock()
	p.conn = gate
	p.mu.Unlock()

	env.Send(2, core.Message{Type: core.MsgPing, From: 1, Seq: 1})
	<-gate.entered // the flusher is inside its first Write
	for seq := uint64(2); seq <= queued+1; seq++ {
		env.Send(2, core.Message{Type: core.MsgPing, From: 1, Seq: seq})
	}
	close(gate.release)
	for want := uint64(1); want <= queued+1; want++ {
		select {
		case m := <-recv:
			if m.Seq != want {
				t.Fatalf("frame %d arrived where %d was due", m.Seq, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d never arrived", want)
		}
	}
	if got := gate.writes.Load(); got != 2 {
		t.Fatalf("%d frames took %d writes, want 2 (the parked one, then the rest together)", queued+1, got)
	}
}

// TestTCPInvalidMessageIsNotAPeerFailure is the regression test for encode
// failures read as connection failures: a message the codec refuses (a NaN
// or infinite cost) used to surface as a write error, so three of them
// dropped a healthy connection, opened the breaker and reported a live peer
// unreachable. It must be refused locally and leave all three alone.
func TestTCPInvalidMessageIsNotAPeerFailure(t *testing.T) {
	waiter := newCompletionWaiter()
	art := job.ARTModel{Mode: job.DriftNone}
	b, err := ListenTCP(TCPConfig{
		ID: 2, Listen: "127.0.0.1:0",
		Peers:     map[overlay.NodeID]string{1: "127.0.0.1:1"},
		Neighbors: []overlay.NodeID{1},
		Seed:      2,
	}, liveProfile(), sched.FCFS, liveConfig(), waiter, art)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	a, err := ListenTCP(TCPConfig{
		ID: 1, Listen: "127.0.0.1:0",
		Peers:     map[overlay.NodeID]string{2: b.Addr()},
		Neighbors: []overlay.NodeID{2},
		Seed:      1,
	}, liveProfile(), sched.FCFS, liveConfig(), nil, art)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b.Node().Start()
	var unreachable atomic.Int32
	a.env.mu.Lock()
	a.env.onUnreachable = func(overlay.NodeID) { unreachable.Add(1) }
	a.env.mu.Unlock()

	rng := rand.New(rand.NewSource(13))
	first, second := liveJob(rng, 10*time.Millisecond), liveJob(rng, 10*time.Millisecond)
	a.env.Send(2, core.Message{Type: core.MsgAssign, From: 1, Job: first})
	waiter.wait(t, first.UUID, 10*time.Second)
	p := peerOf(a.env)
	p.mu.Lock()
	connBefore := p.conn
	p.mu.Unlock()

	refusedBefore, rejectedBefore := WireSendDrops()["sendInvalid"], WireRejects()["invalid"]
	for _, cost := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.NaN()} {
		a.env.Send(2, core.Message{Type: core.MsgAccept, From: 1, Job: first, Cost: sched.Cost(cost)})
	}
	if got := WireSendDrops()["sendInvalid"] - refusedBefore; got != 4 {
		t.Fatalf("%d of 4 non-finite costs counted as refused", got)
	}

	// The next valid frame rides the same connection, through a closed
	// breaker, and node 2 never saw a bad frame.
	a.env.Send(2, core.Message{Type: core.MsgAssign, From: 1, Job: second})
	waiter.wait(t, second.UUID, 10*time.Second)
	p.mu.Lock()
	connAfter := p.conn
	p.mu.Unlock()
	if connAfter != connBefore || connBefore == nil {
		t.Fatal("refused messages cost the peer its connection")
	}
	if s := p.br.State(); s != breakerClosed {
		t.Fatalf("breaker %v after refused messages, want closed", s)
	}
	if n := unreachable.Load(); n != 0 {
		t.Fatalf("live peer reported unreachable %d times", n)
	}
	if got := WireRejects()["invalid"]; got != rejectedBefore {
		t.Fatalf("%d invalid frames reached the wire", got-rejectedBefore)
	}
}

// deafListener accepts one connection, never reads from it, and stops
// listening, so a sender's redial is refused at once.
func deafListener(t *testing.T) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	held := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		_ = ln.Close()
		if err == nil {
			held <- conn
		}
		close(held)
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		if conn := <-held; conn != nil {
			_ = conn.Close()
		}
	})
	return ln.Addr().String()
}

// TestTCPStalledPeerBoundsQueue: a peer that stops reading used to park one
// goroutine per message behind the connection's write lock. Now its one
// flusher blocks, the queue fills to its bound, further frames are dropped
// and counted, and the write deadline feeds the breaker as before.
func TestTCPStalledPeerBoundsQueue(t *testing.T) {
	old := tcpWriteDeadline
	tcpWriteDeadline = 300 * time.Millisecond
	defer func() { tcpWriteDeadline = old }()
	env := newPeerEnv(deafListener(t), 14)
	defer env.close()
	var unreachable atomic.Int32
	env.onUnreachable = func(overlay.NodeID) { unreachable.Add(1) }
	p := peerOf(env)

	// 32 KiB frames fill the loopback socket buffers within a few hundred
	// sends; eight of them fill the queue.
	msg := core.Message{Type: core.MsgPong, From: 1, Dir: bytes.Repeat([]byte{0x5a}, 32<<10)}
	env.Send(2, msg)
	waitUntil(t, 5*time.Second, "never connected", func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.conn != nil
	})
	base := runtime.NumGoroutine()
	overflowBefore := WireSendDrops()["sendOverflow"]
	peak := 0
	deadline := time.Now().Add(20 * time.Second)
	for p.br.State() != breakerOpen {
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened on a peer that stopped reading")
		}
		for i := 0; i < 64; i++ {
			env.Send(2, msg)
		}
		peak = max(peak, runtime.NumGoroutine())
		time.Sleep(time.Millisecond)
	}
	// One flusher, plus slack for the runtime's own (timers, netpoll).
	if peak > base+3 {
		t.Errorf("goroutines rose from %d to %d while the peer was stalled", base, peak)
	}
	if got := WireSendDrops()["sendOverflow"] - overflowBefore; got == 0 {
		t.Error("no frame overflowed the stalled peer's queue")
	}
	if unreachable.Load() == 0 {
		t.Error("stalled peer never reported to the liveness detector")
	}
	p.mu.Lock()
	queuedBytes := 0
	if p.queue != nil {
		queuedBytes = len(*p.queue)
	}
	p.mu.Unlock()
	if queuedBytes > peerQueueBytes {
		t.Errorf("%d bytes queued, bound is %d", queuedBytes, peerQueueBytes)
	}
}

// TestTCPCloseStopsFlushers: close must not wait out a write deadline or a
// dial ladder — it interrupts both and returns with every flusher gone.
func TestTCPCloseStopsFlushers(t *testing.T) {
	stalled := newPeerEnv(deafListener(t), 15)
	big := core.Message{Type: core.MsgPong, From: 1, Dir: bytes.Repeat([]byte{0x5a}, 256<<10)}
	p := peerOf(stalled)
	// Keep the flusher fed until a write has blocked on the full socket: a
	// frame still queued a poll interval after it was sent.
	waitUntil(t, 10*time.Second, "flusher never blocked", func() bool {
		p.mu.Lock()
		blocked := p.queued > 0 && p.flushing
		p.mu.Unlock()
		if !blocked {
			stalled.Send(2, big)
		}
		return blocked
	})

	// 192.0.2.0/24 is reserved for documentation: a dial there hangs until
	// its timeout (or fails at once where the host has no route; either is
	// fine, the point is that close does not wait).
	dialing := newPeerEnv("192.0.2.1:9", 16)
	dialing.Send(2, core.Message{Type: core.MsgPing, From: 1})

	for _, env := range []*tcpEnv{stalled, dialing} {
		start := time.Now()
		env.close()
		if took := time.Since(start); took > time.Second {
			t.Errorf("close took %v", took)
		}
		// wg.Wait returned, so no flusher is left; a late send is dropped.
		env.Send(2, core.Message{Type: core.MsgPing, From: 1})
	}
}

// TestTCPRestartedPeerGetsTheNextFrame pins what the two-write framing used
// to give by accident (the header write drew the RST that failed the payload
// write): after a peer restarts on its address, the very next frame reaches
// it. With one write per batch nothing would fail — the kernel takes the
// bytes for the dead connection and drops them — so the sender watches each
// dialed connection for the peer's FIN and drops it then.
func TestTCPRestartedPeerGetsTheNextFrame(t *testing.T) {
	recv := make(chan core.Message, 4)
	sink := startRawPeer(t, "127.0.0.1:0", recv)
	addr := sink.ln.Addr().String()
	env := newPeerEnv(addr, 18)
	defer env.close()
	p := peerOf(env)

	env.Send(2, core.Message{Type: core.MsgPing, From: 1, Seq: 1})
	select {
	case <-recv:
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery to the original peer")
	}
	sink.stop()
	sink = startRawPeer(t, addr, recv)
	defer sink.stop()
	waitUntil(t, 5*time.Second, "dead connection never noticed", func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.conn == nil
	})

	env.Send(2, core.Message{Type: core.MsgPing, From: 1, Seq: 2})
	select {
	case m := <-recv:
		if m.Seq != 2 {
			t.Fatalf("restarted peer got frame %d, want 2", m.Seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the first frame after the restart was lost")
	}
}
