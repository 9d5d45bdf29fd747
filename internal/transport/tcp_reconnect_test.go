package transport

import (
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/overlay"
)

// rawPeer is a bare framed-message receiver standing in for a remote node,
// restartable on a fixed address.
type rawPeer struct {
	ln   net.Listener
	recv chan core.Message

	mu    sync.Mutex
	conns []net.Conn
}

func startRawPeer(t *testing.T, addr string, recv chan core.Message) *rawPeer {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	p := &rawPeer{ln: ln, recv: recv}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			p.conns = append(p.conns, conn)
			p.mu.Unlock()
			go func(c net.Conn) {
				for {
					m, err := ReadMessage(c)
					if err != nil {
						return
					}
					recv <- m
				}
			}(conn)
		}
	}()
	return p
}

// newPeerEnv is a bare sending env for node 1 whose only peer, node 2,
// lives at addr.
func newPeerEnv(addr string, seed int64) *tcpEnv {
	return newTCPEnv(TCPConfig{
		ID:        1,
		Peers:     map[overlay.NodeID]string{2: addr},
		Neighbors: []overlay.NodeID{2},
		Seed:      seed,
	})
}

func (p *rawPeer) stop() {
	_ = p.ln.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		_ = c.Close()
	}
	p.conns = nil
}

// TestTCPSendRecoversAfterPeerRestart kills a peer holding a cached
// connection and restarts it on the same address: the sender must notice
// the dead socket, evict it, and reach the reincarnated peer.
func TestTCPSendRecoversAfterPeerRestart(t *testing.T) {
	recv := make(chan core.Message, 64)
	peer := startRawPeer(t, "127.0.0.1:0", recv)
	addr := peer.ln.Addr().String()

	env := newPeerEnv(addr, 1)
	defer env.close()

	rng := rand.New(rand.NewSource(3))
	msg := core.Message{
		Type: core.MsgNotify, From: 1,
		Job: liveJob(rng, time.Minute), Notify: core.NotifyQueued,
	}

	// Prime the connection cache.
	env.Send(2, msg)
	select {
	case <-recv:
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery to the original peer")
	}

	// Restart the peer on the same address; the cached connection is now
	// a stale socket to a dead process.
	peer.stop()
	peer = startRawPeer(t, addr, recv)
	defer peer.stop()

	// The first write into the dead socket may appear to succeed (it sits
	// in kernel buffers until the RST lands), so keep sending: eviction
	// plus redial must get a message through without outside help.
	deadline := time.After(10 * time.Second)
	for {
		env.Send(2, msg)
		select {
		case <-recv:
			return
		case <-time.After(100 * time.Millisecond):
		case <-deadline:
			t.Fatal("sender never reconnected to the restarted peer")
		}
	}
}

// TestTCPDialRetriesTransientOutage delays the peer's bind past the first
// dial attempt: the backoff loop must absorb the outage.
func TestTCPDialRetriesTransientOutage(t *testing.T) {
	// Reserve an address, then free it so the port stays unbound briefly.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	_ = probe.Close()

	recv := make(chan core.Message, 16)
	env := newPeerEnv(addr, 4)
	defer env.close()

	rng := rand.New(rand.NewSource(6))
	msg := core.Message{
		Type: core.MsgNotify, From: 1,
		Job: liveJob(rng, time.Minute), Notify: core.NotifyCompleted,
	}
	env.Send(2, msg) // first dial attempt fails; retries pending

	// Bind the peer inside the retry window (first backoff >= 50ms).
	time.Sleep(20 * time.Millisecond)
	peer := startRawPeer(t, addr, recv)
	defer peer.stop()

	select {
	case <-recv:
	case <-time.After(5 * time.Second):
		t.Fatal("dial retries never reached the late-binding peer")
	}
}
