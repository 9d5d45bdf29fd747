package ctl

import (
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/resource"
	"github.com/smartgrid/aria/internal/sched"
	"github.com/smartgrid/aria/internal/trace"
	"github.com/smartgrid/aria/internal/transport"
)

// testServer stands up a 2-node inproc grid with a control server on node 0.
func testServer(t *testing.T) (*Server, *transport.InprocCluster) {
	t.Helper()
	return observedServer(t, nil)
}

// observedServer is testServer with obs watching node 0.
func observedServer(t *testing.T, obs core.Observer) (*Server, *transport.InprocCluster) {
	t.Helper()
	cluster := transport.NewInprocCluster(1, nil)
	t.Cleanup(cluster.Close)
	profile := resource.Profile{
		Arch: resource.ArchAMD64, OS: resource.OSLinux,
		MemoryGB: 8, DiskGB: 8, PerfIndex: 1.5,
	}
	cfg := core.DefaultConfig()
	cfg.AcceptTimeout = 100 * time.Millisecond
	art := job.ARTModel{Mode: job.DriftNone}
	n0, err := cluster.AddNode(0, profile, sched.FCFS, cfg, obs, art)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.AddNode(1, profile, sched.FCFS, cfg, nil, art); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Connect(0, 1); err != nil {
		t.Fatal(err)
	}
	cluster.StartAll()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	srv := NewServer(ln, n0, func() time.Duration { return time.Since(start) }, rand.New(rand.NewSource(7)))
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return srv, cluster
}

func TestSubmitOverControlPlane(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := Call(srv.Addr(), Request{
		Op: OpSubmit, Arch: "AMD64", OS: "LINUX",
		MinMemoryGB: 1, MinDiskGB: 1, ERT: "50ms",
	}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" || !resp.OK {
		t.Fatalf("submit failed: %+v", resp)
	}
	if !job.UUID(resp.UUID).Valid() {
		t.Fatalf("invalid uuid %q", resp.UUID)
	}
}

func TestSubmitDeadlineJob(t *testing.T) {
	srv, _ := testServer(t)
	// The test grid has batch schedulers, but submission itself must
	// accept the deadline job (the initiator need not match).
	resp, err := Call(srv.Addr(), Request{
		Op: OpSubmit, Arch: "AMD64", OS: "LINUX",
		MinMemoryGB: 1, MinDiskGB: 1, ERT: "50ms", Deadline: "10s",
	}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" {
		t.Fatalf("deadline submit failed: %+v", resp)
	}
}

func TestStatusOverControlPlane(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := Call(srv.Addr(), Request{Op: OpStatus}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || !resp.Alive {
		t.Fatalf("status: %+v", resp)
	}
	if resp.Policy != "FCFS" || resp.NodeID != 0 {
		t.Fatalf("status fields wrong: %+v", resp)
	}
}

func TestSubmitValidation(t *testing.T) {
	srv, _ := testServer(t)
	tests := []struct {
		name string
		req  Request
	}{
		{"bad arch", Request{Op: OpSubmit, Arch: "Z80", OS: "LINUX", MinMemoryGB: 1, MinDiskGB: 1, ERT: "1m"}},
		{"bad os", Request{Op: OpSubmit, Arch: "AMD64", OS: "HAIKU", MinMemoryGB: 1, MinDiskGB: 1, ERT: "1m"}},
		{"bad ert", Request{Op: OpSubmit, Arch: "AMD64", OS: "LINUX", MinMemoryGB: 1, MinDiskGB: 1, ERT: "soon"}},
		{"zero memory", Request{Op: OpSubmit, Arch: "AMD64", OS: "LINUX", MinDiskGB: 1, ERT: "1m"}},
		{"bad deadline", Request{Op: OpSubmit, Arch: "AMD64", OS: "LINUX", MinMemoryGB: 1, MinDiskGB: 1, ERT: "1m", Deadline: "eventually"}},
		{"unknown op", Request{Op: "frobnicate"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			resp, err := Call(srv.Addr(), tt.req, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Error == "" {
				t.Fatalf("request %+v accepted", tt.req)
			}
		})
	}
}

func TestSubmittedJobCompletesOnGrid(t *testing.T) {
	cluster := transport.NewInprocCluster(2, nil)
	defer cluster.Close()
	done := make(chan overlay.NodeID, 1)
	obs := &completionObs{done: done}
	profile := resource.Profile{
		Arch: resource.ArchAMD64, OS: resource.OSLinux,
		MemoryGB: 8, DiskGB: 8, PerfIndex: 1.5,
	}
	cfg := core.DefaultConfig()
	cfg.AcceptTimeout = 100 * time.Millisecond
	art := job.ARTModel{Mode: job.DriftNone}
	n0, err := cluster.AddNode(0, profile, sched.FCFS, cfg, obs, art)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.AddNode(1, profile, sched.FCFS, cfg, obs, art); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Connect(0, 1); err != nil {
		t.Fatal(err)
	}
	cluster.StartAll()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	srv := NewServer(ln, n0, func() time.Duration { return time.Since(start) }, rand.New(rand.NewSource(7)))
	defer func() { _ = srv.Close() }()

	resp, err := Call(srv.Addr(), Request{
		Op: OpSubmit, Arch: "AMD64", OS: "LINUX",
		MinMemoryGB: 1, MinDiskGB: 1, ERT: "30ms",
	}, 5*time.Second)
	if err != nil || resp.Error != "" {
		t.Fatalf("submit: %v %+v", err, resp)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("control-plane job never completed on the grid")
	}
}

type completionObs struct {
	core.NopObserver

	done chan overlay.NodeID
}

func (o *completionObs) JobCompleted(_ time.Duration, node overlay.NodeID, _ *job.Job) {
	select {
	case o.done <- node:
	default:
	}
}

func TestSubmitWithReservation(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := Call(srv.Addr(), Request{
		Op: OpSubmit, Arch: "AMD64", OS: "LINUX",
		MinMemoryGB: 1, MinDiskGB: 1, ERT: "1h", StartAfter: "30m",
	}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" || !resp.OK {
		t.Fatalf("reserved submit failed: %+v", resp)
	}
	bad, err := Call(srv.Addr(), Request{
		Op: OpSubmit, Arch: "AMD64", OS: "LINUX",
		MinMemoryGB: 1, MinDiskGB: 1, ERT: "1h", StartAfter: "whenever",
	}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if bad.Error == "" {
		t.Fatal("bad startAfter accepted")
	}
}

func TestQueueOverControlPlane(t *testing.T) {
	srv, _ := testServer(t)
	// Fill the queue through the control plane with slow jobs.
	for i := 0; i < 3; i++ {
		resp, err := Call(srv.Addr(), Request{
			Op: OpSubmit, Arch: "AMD64", OS: "LINUX",
			MinMemoryGB: 1, MinDiskGB: 1, ERT: "1h",
		}, 5*time.Second)
		if err != nil || resp.Error != "" {
			t.Fatalf("submit: %v %+v", err, resp)
		}
	}
	// Give discovery time to settle.
	time.Sleep(500 * time.Millisecond)
	resp, err := Call(srv.Addr(), Request{Op: OpQueue}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("queue op failed: %+v", resp)
	}
	total := len(resp.Queued)
	if resp.RunningUUID != "" {
		total++
	}
	if total == 0 {
		t.Fatal("no jobs visible on either test node's queue endpoint (placement may vary, but node 0 submitted everything)")
	}
}

// TestTraceOverControlPlane covers the three answers to a trace query: no
// trace source armed, an armed ring holding a submitted job's spans, and a
// UUID the ring never saw.
func TestTraceOverControlPlane(t *testing.T) {
	bare, _ := testServer(t)
	resp, err := Call(bare.Addr(), Request{Op: OpTrace, UUID: "aaaaaaaa-bbbb-cccc-dddd-eeeeeeeeeeee"}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Error, "not enabled") {
		t.Fatalf("trace without a source: %+v", resp)
	}

	ring := trace.NewRing(256)
	srv, _ := observedServer(t, ring)
	srv.SetTraceSource(ring)
	sub, err := Call(srv.Addr(), Request{
		Op: OpSubmit, Arch: "AMD64", OS: "LINUX",
		MinMemoryGB: 1, MinDiskGB: 1, ERT: "50ms",
	}, 5*time.Second)
	if err != nil || !sub.OK {
		t.Fatalf("submit: %v %+v", err, sub)
	}
	resp, err = Call(srv.Addr(), Request{Op: OpTrace, UUID: sub.UUID}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.UUID != sub.UUID || resp.TraceCount == 0 || !strings.Contains(resp.Tree, "submit") {
		t.Fatalf("trace of a submitted job: %+v", resp)
	}

	resp, err = Call(srv.Addr(), Request{Op: OpTrace, UUID: "aaaaaaaa-bbbb-cccc-dddd-eeeeeeeeeeee"}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.TraceCount != 0 || resp.Tree != "" {
		t.Fatalf("trace of an unknown job: %+v", resp)
	}
}
