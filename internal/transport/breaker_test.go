package transport

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/overlay"
)

// TestBreakerStateMachine walks the full closed -> open -> half-open cycle
// with an injected clock: trips at the threshold, fast-fails through the
// cooldown, admits exactly one probe, and resolves the probe's outcome in
// both directions.
func TestBreakerStateMachine(t *testing.T) {
	const cooldown = 10 * time.Second
	b := newBreaker(3, cooldown)

	if got := b.State(); got != breakerClosed {
		t.Fatalf("new breaker state = %v, want closed", got)
	}
	// Failures below the threshold keep passing sends.
	b.Failure(0)
	b.Failure(time.Second)
	if !b.Allow(time.Second) {
		t.Fatal("breaker opened below the failure threshold")
	}
	// A success clears the consecutive count: two more failures must not
	// trip a threshold of three.
	b.Success()
	b.Failure(2 * time.Second)
	b.Failure(3 * time.Second)
	if got := b.State(); got != breakerClosed {
		t.Fatalf("state after success+2 failures = %v, want closed", got)
	}
	// The third consecutive failure opens the circuit.
	b.Failure(4 * time.Second)
	if got := b.State(); got != breakerOpen {
		t.Fatalf("state at threshold = %v, want open", got)
	}
	if b.Allow(4*time.Second + cooldown - time.Millisecond) {
		t.Fatal("open breaker admitted a send inside the cooldown")
	}
	// First call past the deadline becomes the half-open probe; racing
	// calls during the probe are still refused.
	if !b.Allow(4*time.Second + cooldown) {
		t.Fatal("cooldown expiry did not admit a probe")
	}
	if got := b.State(); got != breakerHalfOpen {
		t.Fatalf("state during probe = %v, want half-open", got)
	}
	if b.Allow(5*time.Second + cooldown) {
		t.Fatal("second send admitted while a probe is in flight")
	}
	// A failed probe re-opens for a fresh cooldown.
	b.Failure(20 * time.Second)
	if got := b.State(); got != breakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	if b.Allow(20*time.Second + cooldown/2) {
		t.Fatal("re-opened breaker admitted a send inside the new cooldown")
	}
	// A successful probe closes the circuit and resets the count.
	if !b.Allow(20*time.Second + cooldown) {
		t.Fatal("second cooldown expiry did not admit a probe")
	}
	b.Success()
	if got := b.State(); got != breakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
	if !b.Allow(21*time.Second + cooldown) {
		t.Fatal("closed breaker refused a send")
	}
}

// TestDialBackoffCapped pins the dial backoff ladder: doubling from the
// base, clamped at the cap, and immune to shift overflow however large the
// attempt number grows.
func TestDialBackoffCapped(t *testing.T) {
	want := tcpDialBackoff
	for attempt := 1; attempt < 64; attempt++ {
		got := dialBackoff(attempt)
		if got != want {
			t.Fatalf("dialBackoff(%d) = %v, want %v", attempt, got, want)
		}
		if want < tcpDialBackoffCap {
			want *= 2
			if want > tcpDialBackoffCap {
				want = tcpDialBackoffCap
			}
		}
	}
	for _, attempt := range []int{100, 1 << 20, 1 << 40} {
		if got := dialBackoff(attempt); got != tcpDialBackoffCap {
			t.Fatalf("dialBackoff(%d) = %v, want cap %v", attempt, got, tcpDialBackoffCap)
		}
	}
	if got := dialBackoff(0); got != tcpDialBackoff {
		t.Fatalf("dialBackoff(0) = %v, want base %v", got, tcpDialBackoff)
	}
}

// TestTCPBreakerOpensAndRecovers drives the live Send path against a dead
// address: consecutive failures must trip the peer's breaker, an open
// breaker must fast-fail without re-reporting to the liveness detector, and
// once the peer binds, the cooldown probe must deliver and close the
// circuit.
func TestTCPBreakerOpensAndRecovers(t *testing.T) {
	// Reserve an address, then free it: dials are refused instantly.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	_ = probe.Close()

	var unreachable atomic.Int32
	env := newPeerEnv(addr, 7)
	env.onUnreachable = func(overlay.NodeID) { unreachable.Add(1) }
	defer env.close()

	// Install a breaker with a test-scale cooldown in place of the default.
	br := newBreaker(2, 200*time.Millisecond)
	peerOf(env).br = br

	rng := rand.New(rand.NewSource(9))
	msg := core.Message{
		Type: core.MsgNotify, From: 1,
		Job: liveJob(rng, time.Minute), Notify: core.NotifyQueued,
	}

	// Two refused sends trip the threshold; each one reports unreachable.
	env.Send(2, msg)
	env.Send(2, msg)
	waitUntil(t, 10*time.Second, "breaker never opened", func() bool {
		return br.State() == breakerOpen && unreachable.Load() == 2
	})

	// While open (and inside the cooldown), sends drop without dialing and
	// without re-reporting.
	env.Send(2, msg)
	time.Sleep(50 * time.Millisecond)
	if got := br.State(); got != breakerOpen {
		t.Fatalf("state after fast-failed send = %v, want open", got)
	}
	if got := unreachable.Load(); got != 2 {
		t.Fatalf("fast-failed send re-reported unreachable (%d reports)", got)
	}

	// Bind the peer; once the cooldown lapses a probe send must get
	// through and close the circuit.
	recv := make(chan core.Message, 4)
	peer := startRawPeer(t, addr, recv)
	defer peer.stop()
	deadline := time.Now().Add(10 * time.Second)
	for br.State() != breakerClosed {
		if time.Now().After(deadline) {
			t.Fatal("breaker never closed after the peer came back")
		}
		env.Send(2, msg)
		time.Sleep(50 * time.Millisecond)
	}
	select {
	case <-recv:
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery after the breaker closed")
	}
}

// waitUntil polls cond until it holds or the deadline lapses.
func waitUntil(t *testing.T, timeout time.Duration, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestBreakerAdmitsExactlyOneHalfOpenProbe(t *testing.T) {
	// Many senders race Allow at the instant the cooldown expires; the
	// half-open contract is that exactly ONE is admitted as the probe and
	// the rest keep fast-failing until the probe's outcome is known.
	br := newBreaker(1, 50*time.Millisecond)
	br.Failure(0) // trip open at t=0

	const senders = 64
	now := 60 * time.Millisecond // past the cooldown deadline
	var admitted int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if br.Allow(now) {
				atomic.AddInt32(&admitted, 1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := atomic.LoadInt32(&admitted); got != 1 {
		t.Fatalf("%d probes admitted at cooldown expiry, want exactly 1", got)
	}
	if s := br.State(); s != breakerHalfOpen {
		t.Fatalf("state after probe admission = %v, want half-open", s)
	}

	// While the probe is in flight every further sender still fast-fails.
	for i := 0; i < 8; i++ {
		if br.Allow(now + time.Duration(i)*time.Millisecond) {
			t.Fatal("sender admitted while the half-open probe was in flight")
		}
	}

	// A failed probe re-opens: the next wave at the NEXT cooldown expiry
	// again admits exactly one.
	br.Failure(now)
	if br.Allow(now + 10*time.Millisecond) {
		t.Fatal("sender admitted during the re-opened cooldown")
	}
	later := now + 70*time.Millisecond
	admitted = 0
	var wg2 sync.WaitGroup
	start2 := make(chan struct{})
	for i := 0; i < senders; i++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			<-start2
			if br.Allow(later) {
				atomic.AddInt32(&admitted, 1)
			}
		}()
	}
	close(start2)
	wg2.Wait()
	if got := atomic.LoadInt32(&admitted); got != 1 {
		t.Fatalf("%d probes admitted after re-open cooldown, want exactly 1", got)
	}

	// A successful probe closes the circuit for everyone.
	br.Success()
	if !br.Allow(later+time.Millisecond) || br.State() != breakerClosed {
		t.Fatal("breaker did not close after a successful probe")
	}
}
