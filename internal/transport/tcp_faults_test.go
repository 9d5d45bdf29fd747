package transport

import (
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/faults"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/sched"
)

// frameSink accepts TCP connections and pushes every decoded protocol
// frame onto a channel, standing in for a peer node.
func frameSink(t *testing.T) (addr string, got <-chan core.Message) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan core.Message, 16)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					m, err := ReadMessage(conn)
					if err != nil {
						return
					}
					ch <- m
				}
			}()
		}
	}()
	t.Cleanup(func() { _ = ln.Close() })
	return ln.Addr().String(), ch
}

// TestTCPFaultInjection drives the wire transport's fault layer directly:
// a one-way partition must silently drop outbound frames (no breaker
// trips, no liveness reports), a slowdown window must delay them, and
// clearing the model must restore clean immediate delivery.
func TestTCPFaultInjection(t *testing.T) {
	addr, got := frameSink(t)
	tn, err := ListenTCP(TCPConfig{
		ID: 1, Listen: "127.0.0.1:0",
		Peers:     map[overlay.NodeID]string{2: addr},
		Neighbors: []overlay.NodeID{2},
		Seed:      7,
	}, liveProfile(), sched.FCFS, liveConfig(), nil, job.DefaultARTModel())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tn.Close() }()

	waitFrame := func(within time.Duration) (core.Message, bool) {
		select {
		case m := <-got:
			return m, true
		case <-time.After(within):
			return core.Message{}, false
		}
	}

	// Clean path first: frames flow.
	tn.env.Send(2, core.Message{Type: core.MsgPing, From: 1})
	if _, ok := waitFrame(2 * time.Second); !ok {
		t.Fatal("frame lost without any fault model installed")
	}

	// One-way partition: node 2 is deaf for the next hour of process
	// time, so everything we send it vanishes silently.
	lm, err := faults.NewLinkModel(faults.Config{
		Partitions: []faults.Partition{{
			End: time.Hour, Isolated: []overlay.NodeID{2}, OneWay: true,
		}},
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	tn.SetFaults(lm)
	tn.env.Send(2, core.Message{Type: core.MsgPing, From: 1})
	if m, ok := waitFrame(300 * time.Millisecond); ok {
		t.Fatalf("partitioned send delivered %v", m.Type)
	}
	if s := lm.Stats(); s.PartitionDropped != 1 {
		t.Fatalf("stats %+v, want 1 partition drop", s)
	}
	// Injected drops are loss, not peer failure: the breaker must stay
	// closed so the first frame after heal flows without a cooldown.
	if peerOf(tn.env).br.State() != breakerClosed {
		t.Fatal("injected drop opened the circuit breaker")
	}

	// Slowdown window: frames arrive, but not before the extra delay.
	const extra = 200 * time.Millisecond
	lm, err = faults.NewLinkModel(faults.Config{
		Slowdowns: []faults.Slowdown{{
			End: time.Hour, Nodes: []overlay.NodeID{2}, ExtraDelay: extra,
		}},
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	tn.SetFaults(lm)
	start := time.Now()
	tn.env.Send(2, core.Message{Type: core.MsgPing, From: 1})
	if _, ok := waitFrame(5 * time.Second); !ok {
		t.Fatal("slowed frame never arrived")
	}
	if took := time.Since(start); took < extra {
		t.Fatalf("slowed frame arrived in %v, want at least %v", took, extra)
	}

	// Clearing the model restores clean delivery.
	tn.SetFaults(nil)
	tn.env.Send(2, core.Message{Type: core.MsgPing, From: 1})
	if _, ok := waitFrame(2 * time.Second); !ok {
		t.Fatal("frame lost after clearing the fault model")
	}
}
