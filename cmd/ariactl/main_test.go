package main

import (
	"bytes"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/ctl"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/resource"
	"github.com/smartgrid/aria/internal/sched"
	"github.com/smartgrid/aria/internal/trace"
	"github.com/smartgrid/aria/internal/transport"
)

// startDaemon stands up a one-node grid with a control server, returning
// the control address.
func startDaemon(t *testing.T) string {
	t.Helper()
	return startTracedDaemon(t, nil)
}

// startTracedDaemon is startDaemon serving trace queries from ring when
// ring is non-nil.
func startTracedDaemon(t *testing.T, ring *trace.Ring) string {
	t.Helper()
	cluster := transport.NewInprocCluster(1, nil)
	t.Cleanup(cluster.Close)
	profile := resource.Profile{
		Arch: resource.ArchAMD64, OS: resource.OSLinux,
		MemoryGB: 8, DiskGB: 8, PerfIndex: 1.5,
	}
	cfg := core.DefaultConfig()
	cfg.AcceptTimeout = 50 * time.Millisecond
	var obs core.Observer
	if ring != nil {
		obs = ring
	}
	n, err := cluster.AddNode(0, profile, sched.FCFS, cfg, obs, job.ARTModel{Mode: job.DriftNone})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	srv := ctl.NewServer(ln, n, func() time.Duration { return time.Since(start) }, rand.New(rand.NewSource(3)))
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
	})
	if ring != nil {
		srv.SetTraceSource(ring)
	}
	return srv.Addr()
}

func TestSubmitViaCLI(t *testing.T) {
	addr := startDaemon(t)
	var buf bytes.Buffer
	err := run(&buf, []string{"-daemon", addr, "-ert", "50ms", "-count", "2"})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("submitted %d jobs, want 2:\n%s", len(lines), buf.String())
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "submitted ") {
			t.Fatalf("unexpected line %q", line)
		}
	}
}

func TestStatusViaCLI(t *testing.T) {
	addr := startDaemon(t)
	var buf bytes.Buffer
	if err := run(&buf, []string{"-daemon", addr, "-status"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "node 0:") || !strings.Contains(out, "policy=FCFS") {
		t.Fatalf("status output wrong: %s", out)
	}
}

func TestCLIErrors(t *testing.T) {
	addr := startDaemon(t)
	tests := []struct {
		name string
		args []string
	}{
		{"unreachable daemon", []string{"-daemon", "127.0.0.1:1", "-timeout", "200ms"}},
		{"bad ert", []string{"-daemon", addr, "-ert", "soon"}},
		{"bad arch", []string{"-daemon", addr, "-arch", "Z80"}},
		{"bad flag", []string{"-nope"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, tt.args); err == nil {
				t.Fatalf("run(%v) succeeded", tt.args)
			}
		})
	}
}

func TestQueueViaCLI(t *testing.T) {
	addr := startDaemon(t)
	var buf bytes.Buffer
	if err := run(&buf, []string{"-daemon", addr, "-queue"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "running:") {
		t.Fatalf("queue output wrong: %s", buf.String())
	}
}

// TestTraceViaCLI: -trace fails loudly on a daemon with tracing off, prints
// a submitted job's span tree, and says so when a job left no spans.
func TestTraceViaCLI(t *testing.T) {
	const unknown = "aaaaaaaa-bbbb-cccc-dddd-eeeeeeeeeeee"
	var buf bytes.Buffer
	if err := run(&buf, []string{"-daemon", startDaemon(t), "-trace", unknown}); err == nil || !strings.Contains(err.Error(), "not enabled") {
		t.Fatalf("-trace on an untraced daemon: %v", err)
	}

	addr := startTracedDaemon(t, trace.NewRing(256))
	buf.Reset()
	if err := run(&buf, []string{"-daemon", addr, "-ert", "50ms"}); err != nil {
		t.Fatal(err)
	}
	uuid := strings.TrimSpace(strings.TrimPrefix(buf.String(), "submitted "))
	buf.Reset()
	if err := run(&buf, []string{"-daemon", addr, "-trace", uuid}); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.HasPrefix(out, "job "+uuid+": ") || !strings.Contains(out, "submit") {
		t.Fatalf("-trace of a submitted job:\n%s", out)
	}

	buf.Reset()
	if err := run(&buf, []string{"-daemon", addr, "-trace", unknown}); err != nil {
		t.Fatal(err)
	}
	if want := "node 0 retains no spans for job " + unknown; !strings.Contains(buf.String(), want) {
		t.Fatalf("-trace of an unknown job: %q, want %q", buf.String(), want)
	}
}
