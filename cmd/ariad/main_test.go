package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"testing"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/ctl"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/resource"
	"github.com/smartgrid/aria/internal/sched"
)

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers("1=127.0.0.1:7401, 2=10.0.0.2:7402")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers[1] != "127.0.0.1:7401" || peers[2] != "10.0.0.2:7402" {
		t.Fatalf("peers = %v", peers)
	}
	tests := []string{"", "nokey", "x=addr", "1:addr"}
	for _, give := range tests {
		if _, err := parsePeers(give); err == nil {
			t.Errorf("parsePeers(%q) succeeded", give)
		}
	}
}

func TestParseNeighbors(t *testing.T) {
	nbs, err := parseNeighbors("1, 2,3")
	if err != nil {
		t.Fatal(err)
	}
	want := []overlay.NodeID{1, 2, 3}
	if len(nbs) != len(want) {
		t.Fatalf("neighbors = %v", nbs)
	}
	for i, w := range want {
		if nbs[i] != w {
			t.Fatalf("neighbors = %v, want %v", nbs, want)
		}
	}
	for _, give := range []string{"", "a,b"} {
		if _, err := parseNeighbors(give); err == nil {
			t.Errorf("parseNeighbors(%q) succeeded", give)
		}
	}
}

func TestBuildProfile(t *testing.T) {
	p, err := buildProfile("POWER", "SOLARIS", 4, 8, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	want := resource.Profile{
		Arch: resource.ArchPOWER, OS: resource.OSSolaris,
		MemoryGB: 4, DiskGB: 8, PerfIndex: 1.2,
	}
	if p != want {
		t.Fatalf("profile = %+v, want %+v", p, want)
	}
	if _, err := buildProfile("Z80", "LINUX", 4, 8, 1.2); err == nil {
		t.Fatal("accepted bad arch")
	}
	if _, err := buildProfile("AMD64", "HAIKU", 4, 8, 1.2); err == nil {
		t.Fatal("accepted bad os")
	}
	if _, err := buildProfile("AMD64", "LINUX", 0, 8, 1.2); err == nil {
		t.Fatal("accepted zero memory")
	}
	if _, err := buildProfile("AMD64", "LINUX", 4, 8, 5); err == nil {
		t.Fatal("accepted out-of-range perf index")
	}
}

func TestParsePolicy(t *testing.T) {
	tests := []struct {
		give string
		want sched.Policy
	}{
		{"FCFS", sched.FCFS},
		{"sjf", sched.SJF},
		{"Edf", sched.EDF},
		{"priority", sched.Priority},
		{"LJF", sched.LJF},
	}
	for _, tt := range tests {
		got, err := parsePolicy(tt.give)
		if err != nil || got != tt.want {
			t.Errorf("parsePolicy(%q) = %v, %v", tt.give, got, err)
		}
	}
	if _, err := parsePolicy("fifo"); err == nil {
		t.Fatal("accepted unknown policy")
	}
}

// TestParseFlagsProtocolConfig pins the protocol Config that ariad's
// command lines produce: no flags, the end-to-end test's delivery
// hardening, ariasoak's fully armed daemon, and both directory-backed
// switches with knobs given before and after them. An explicit zero
// (-directory-gossip 0, -max-degree 0) stays zero after arming.
func TestParseFlagsProtocolConfig(t *testing.T) {
	grid := []string{"-id", "0", "-peers", "1=127.0.0.1:7401", "-neighbors", "1"}
	paper := core.DefaultConfig()

	hardened := paper
	hardened.AssignAck = true
	hardened.NotifyInitiator = true

	soak := hardened
	soak.ProbeInterval = time.Second
	soak.ProbeTimeout = 800 * time.Millisecond
	soak.SuspectTimeout = 6 * time.Second
	soak.MaxDegree = 6
	soak.DirectedCandidates = 2
	soak.MinDirectedOffers = 1
	soak.DirectoryCapacity = 256
	soak.DirectoryTTL = 20 * time.Second
	soak.DirectoryGossip = 3
	soak.MaxQueuedJobs = 64
	soak.MaxPendingSubmits = 256
	soak.RetryBackoffCap = time.Minute

	directed := paper
	directed.ProbeInterval = 2 * time.Second
	directed.ProbeTimeout = 500 * time.Millisecond
	directed.SuspectTimeout = 2 * time.Second
	directed.DirectedCandidates = 2
	directed.MinDirectedOffers = 1
	directed.DirectoryCapacity = 256
	directed.DirectoryTTL = 15 * time.Minute

	shared := directed
	shared.DirectedCandidates = 0
	shared.MinDirectedOffers = 0
	shared.SharedStateBound = 4
	shared.SharedStateRetries = 3
	shared.CommitTimeout = 2 * time.Second
	shared.CommitBackoff = 500 * time.Millisecond

	membership := []string{"-probe-interval", "2s", "-probe-timeout", "500ms", "-suspect-timeout", "2s"}
	tests := []struct {
		name string
		args []string
		want core.Config
	}{
		{"empty", nil, paper},
		{"end-to-end", []string{"-perf", "1.5", "-epsilon", "0", "-seed", "100", "-assign-ack", "-notify"}, hardened},
		{"soak", []string{
			"-assign-ack", "-notify",
			"-probe-interval", "1s", "-probe-timeout", "800ms", "-suspect-timeout", "6s", "-max-degree", "6",
			"-directed-candidates", "2", "-directory-ttl", "20s",
			"-max-queued", "64", "-max-pending", "256", "-retry-backoff-cap", "60s",
		}, soak},
		{"knobs before the switch", append([]string{"-directory-gossip", "0", "-max-degree", "0", "-directed-candidates", "2"}, membership...), directed},
		{"shared state", append(membership, "-shared-state", "4", "-directory-gossip", "0", "-max-degree", "0"), shared},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			o, err := parseFlags(append(append([]string{}, grid...), tt.args...))
			if err != nil {
				t.Fatal(err)
			}
			if o.proto != tt.want {
				t.Fatalf("config\n got %+v\nwant %+v", o.proto, tt.want)
			}
		})
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	tests := [][]string{
		{"-nope"},
		{"-peers", "", "-neighbors", "1"},
		{"-peers", "1=x", "-neighbors", ""},
		{"-peers", "1=x", "-neighbors", "1", "-arch", "Z80"},
		{"-peers", "1=x", "-neighbors", "1", "-policy", "fifo"},
	}
	for _, args := range tests {
		if err := run(args, nil); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

// TestDaemonEndToEnd boots two real daemons on loopback, submits a job via
// the control plane of one, and watches it complete through the event log.
func TestDaemonEndToEnd(t *testing.T) {
	base := 40000 + rand.Intn(20000)
	addr := func(off int) string { return fmt.Sprintf("127.0.0.1:%d", base+off) }
	eventsPath := filepath.Join(t.TempDir(), "events.jsonl")

	type daemon struct {
		stop chan os.Signal
		done chan error
	}
	start := func(id int, events string) *daemon {
		d := &daemon{stop: make(chan os.Signal), done: make(chan error, 1)}
		peers := fmt.Sprintf("%d=%s", 1-id, addr(1-id))
		args := []string{
			"-id", fmt.Sprint(id),
			"-listen", addr(id),
			"-control", addr(10 + id),
			"-peers", peers,
			"-neighbors", fmt.Sprint(1 - id),
			"-perf", "1.5",
			"-epsilon", "0",
			"-seed", fmt.Sprint(100 + id),
			"-assign-ack",
			"-notify",
		}
		if events != "" {
			args = append(args, "-events", events)
		}
		go func() { d.done <- run(args, d.stop) }()
		return d
	}
	d0 := start(0, eventsPath)
	d1 := start(1, "")
	defer func() {
		close(d0.stop)
		close(d1.stop)
		for _, d := range []*daemon{d0, d1} {
			select {
			case err := <-d.done:
				if err != nil {
					t.Errorf("daemon exit: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Error("daemon did not shut down")
			}
		}
	}()

	// Wait for the control plane to come up.
	var resp ctl.Response
	var err error
	for i := 0; i < 100; i++ {
		resp, err = ctl.Call(addr(10), ctl.Request{Op: ctl.OpStatus}, time.Second)
		if err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("control plane never came up: %v", err)
	}
	if !resp.Alive {
		t.Fatalf("status: %+v", resp)
	}

	sub, err := ctl.Call(addr(10), ctl.Request{
		Op: ctl.OpSubmit, Arch: "AMD64", OS: "LINUX",
		MinMemoryGB: 1, MinDiskGB: 1, ERT: "100ms",
	}, 5*time.Second)
	if err != nil || sub.Error != "" {
		t.Fatalf("submit: %v %+v", err, sub)
	}

	// Poll the event log for the completion.
	deadline := time.After(20 * time.Second)
	for {
		data, _ := os.ReadFile(eventsPath)
		if strings.Contains(string(data), `"kind":"completed"`) &&
			strings.Contains(string(data), sub.UUID) {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("no completion in event log; log so far:\n%s", data)
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// TestDaemonRestartRecoversFromDataDir pins the daemon's fail-recover cycle:
// a node with -data-dir accepts a long job, shuts down gracefully (final
// snapshot, journal compacted to empty), and a fresh process on the same
// directory resumes the job before taking new traffic.
func TestDaemonRestartRecoversFromDataDir(t *testing.T) {
	base := 40000 + rand.Intn(20000)
	addr := func(off int) string { return fmt.Sprintf("127.0.0.1:%d", base+off) }
	dataDir := filepath.Join(t.TempDir(), "state")

	boot := func() (chan os.Signal, chan error) {
		stop := make(chan os.Signal)
		done := make(chan error, 1)
		args := []string{
			"-id", "0",
			"-listen", addr(0),
			"-control", addr(10),
			"-peers", "1=" + addr(1), // peer intentionally never started
			"-neighbors", "1",
			"-epsilon", "0",
			"-seed", "42",
			"-data-dir", dataDir,
		}
		go func() { done <- run(args, stop) }()
		return stop, done
	}
	waitCtl := func() {
		t.Helper()
		var err error
		for i := 0; i < 100; i++ {
			if _, err = ctl.Call(addr(10), ctl.Request{Op: ctl.OpStatus}, time.Second); err == nil {
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
		t.Fatalf("control plane never came up: %v", err)
	}
	shutdown := func(stop chan os.Signal, done chan error) {
		t.Helper()
		close(stop)
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("daemon exit: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("daemon did not shut down")
		}
	}

	stop, done := boot()
	waitCtl()
	sub, err := ctl.Call(addr(10), ctl.Request{
		Op: ctl.OpSubmit, Arch: "AMD64", OS: "LINUX",
		MinMemoryGB: 1, MinDiskGB: 1, ERT: "1h",
	}, 5*time.Second)
	if err != nil || sub.Error != "" {
		t.Fatalf("submit: %v %+v", err, sub)
	}
	// Wait for the job to land in the local queue (the only living node
	// assigns it to itself after the ACCEPT window).
	for i := 0; ; i++ {
		q, err := ctl.Call(addr(10), ctl.Request{Op: ctl.OpQueue}, time.Second)
		if err == nil && q.RunningUUID == sub.UUID {
			break
		}
		if i > 200 {
			t.Fatalf("job never started: %v %+v", err, q)
		}
		time.Sleep(50 * time.Millisecond)
	}
	shutdown(stop, done)

	// Clean shutdown = final snapshot + compacted (empty) journal.
	if fi, err := os.Stat(filepath.Join(dataDir, "journal.wal")); err != nil || fi.Size() != 0 {
		t.Fatalf("journal after clean shutdown: %v (size %d), want empty", err, fi.Size())
	}
	if fi, err := os.Stat(filepath.Join(dataDir, "snapshot.wal")); err != nil || fi.Size() == 0 {
		t.Fatalf("snapshot after clean shutdown: %v, want non-empty", err)
	}

	stop, done = boot()
	defer shutdown(stop, done)
	waitCtl()
	for i := 0; ; i++ {
		q, err := ctl.Call(addr(10), ctl.Request{Op: ctl.OpQueue}, time.Second)
		if err == nil && q.RunningUUID == sub.UUID {
			return // recovered and resumed
		}
		if i > 100 {
			t.Fatalf("restarted daemon did not resume the job: %v %+v", err, q)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
