package transport

import (
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// TestScheduleShortDelays pins what tcpEnv.Schedule promises for delays under
// a millisecond: the callback runs once, about on time even though the
// process is idle (the runtime's own timers would round 200 µs up to the
// next millisecond), and a cancel that comes first wins.
func TestScheduleShortDelays(t *testing.T) {
	env := newPeerEnv("127.0.0.1:1", 17)
	defer env.close()
	const delay = 200 * time.Microsecond

	var late []time.Duration
	for i := 0; i < 41; i++ {
		fired := make(chan time.Time, 1)
		start := time.Now()
		env.Schedule(delay, func() { fired <- time.Now() })
		select {
		case at := <-fired:
			if took := at.Sub(start); took < delay {
				t.Fatalf("fired after %v, before the %v delay", took, delay)
			} else {
				late = append(late, took-delay)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("short timer never fired")
		}
	}
	sort.Slice(late, func(i, k int) bool { return late[i] < late[k] })
	t.Logf("lateness of a %v timer on an idle process: median %v, max %v", delay, late[len(late)/2], late[len(late)-1])
	if _, kernel := afterShort(time.Microsecond, func() {}); kernel && late[len(late)/2] > 500*time.Microsecond {
		t.Errorf("median lateness %v: the kernel timer is no better than the runtime's millisecond", late[len(late)/2])
	}

	var ran atomic.Int32
	cancel := env.Schedule(delay, func() { ran.Add(1) })
	if !cancel() {
		t.Fatal("cancel before expiry reported too late")
	}
	if cancel() {
		t.Fatal("second cancel reported success")
	}
	done := env.Schedule(delay, func() { ran.Add(10) })
	waitUntil(t, 5*time.Second, "timer never fired", func() bool { return ran.Load() >= 10 })
	if done() {
		t.Fatal("cancel after expiry reported success")
	}
	time.Sleep(5 * delay)
	if got := ran.Load(); got != 10 {
		t.Fatalf("callbacks ran %d (want 10: the cancelled one never, the other once)", got)
	}
}
