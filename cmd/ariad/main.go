// Command ariad runs a live ARiA grid node: the protocol engine behind a
// TCP transport plus a control endpoint for job submission and status.
//
// A three-node grid on one machine:
//
//	ariad -id 0 -listen :7400 -control :7500 -peers "1=127.0.0.1:7401,2=127.0.0.1:7402" -neighbors 1,2 &
//	ariad -id 1 -listen :7401 -control :7501 -peers "0=127.0.0.1:7400,2=127.0.0.1:7402" -neighbors 0,2 &
//	ariad -id 2 -listen :7402 -control :7502 -peers "0=127.0.0.1:7400,1=127.0.0.1:7401" -neighbors 0,1 &
//	ariactl -daemon 127.0.0.1:7500 -ert 10s
package main

import (
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/ctl"
	"github.com/smartgrid/aria/internal/eventlog"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/metrics"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/resource"
	"github.com/smartgrid/aria/internal/sched"
	"github.com/smartgrid/aria/internal/trace"
	"github.com/smartgrid/aria/internal/transport"
	"github.com/smartgrid/aria/internal/wal"
)

// Exit codes a supervisor can dispatch on. A WAL write fault is a crash
// (restart with the same data dir: recovery cuts the torn tail); a corrupt
// store is not survivable in place (wipe the data dir before respawning, or
// the daemon will refuse to boot forever).
const (
	exitWALFault   = 3 // runtime write-ahead journal failure, died loudly
	exitWALCorrupt = 4 // boot refused: store failed corruption checks
)

// exitCodeError carries a specific process exit code out of run.
type exitCodeError struct {
	code int
	err  error
}

func (e exitCodeError) Error() string { return e.err.Error() }
func (e exitCodeError) Unwrap() error { return e.err }

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], stop); err != nil {
		fmt.Fprintln(os.Stderr, "ariad:", err)
		code := 1
		var ec exitCodeError
		if errors.As(err, &ec) {
			code = ec.code
		}
		os.Exit(code)
	}
}

// options is ariad's parsed command line.
type options struct {
	id                                int
	listen, control, peers, neighbors string
	arch, os, policy                  string
	memGB, diskGB                     int
	perf, epsilon                     float64
	seed                              int64
	events, dataDir, debugAddr        string
	incarnation                       uint64
	walFaults                         wal.FaultConfig
	traceCap                          int
	proto                             core.Config
}

// parseFlags reads ariad's flags. The protocol knobs come from the one
// table in core, bound over the paper's defaults.
func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("ariad", flag.ContinueOnError)
	var o options
	fs.IntVar(&o.id, "id", 0, "overlay node ID")
	fs.StringVar(&o.listen, "listen", "127.0.0.1:7400", "protocol listen address")
	fs.StringVar(&o.control, "control", "127.0.0.1:7500", "control-plane listen address")
	fs.StringVar(&o.peers, "peers", "", "peer map: id=host:port,id=host:port")
	fs.StringVar(&o.neighbors, "neighbors", "", "overlay neighbor IDs: 1,2,3")
	fs.StringVar(&o.arch, "arch", "AMD64", "node architecture")
	fs.StringVar(&o.os, "os", "LINUX", "node operating system")
	fs.IntVar(&o.memGB, "mem", 8, "node memory (GB)")
	fs.IntVar(&o.diskGB, "disk", 8, "node disk (GB)")
	fs.Float64Var(&o.perf, "perf", 1.5, "performance index [1,2)")
	fs.StringVar(&o.policy, "policy", "FCFS", "local policy: FCFS, SJF, EDF, Priority, LJF")
	fs.Int64Var(&o.seed, "seed", time.Now().UnixNano(), "random seed")
	fs.Float64Var(&o.epsilon, "epsilon", 0.1, "running-time estimate error (0 = exact)")
	fs.StringVar(&o.events, "events", "", "append job lifecycle events as JSON lines to this file")
	fs.StringVar(&o.dataDir, "data-dir", "", "durable state directory (write-ahead journal + snapshot; empty = stateless fail-stop)")
	fs.Uint64Var(&o.incarnation, "incarnation", 0, "this process's incarnation number (orchestrators pass the restart count so remote directory caches can order knowledge across restarts)")
	fs.StringVar(&o.debugAddr, "debug", "", "serve expvar and pprof on this address (empty = disabled)")

	fs.Float64Var(&o.walFaults.ShortWritePct, "wal-short-write-pct", 0, "fault injection: probability a journal append persists a torn prefix and the daemon dies loudly (exit 3)")
	fs.Float64Var(&o.walFaults.SyncErrPct, "wal-sync-err-pct", 0, "fault injection: probability a journal fsync fails (exit 3 via the sticky-error hook)")
	fs.Float64Var(&o.walFaults.SnapshotErrPct, "wal-snapshot-err-pct", 0, "fault injection: probability a snapshot write fails as a unit")
	fs.Float64Var(&o.walFaults.FlipPct, "wal-flip-pct", 0, "fault injection: probability a boot-time journal/snapshot read has one bit flipped (corrupt stores refuse to boot, exit 4)")
	fs.Int64Var(&o.walFaults.Seed, "wal-fault-seed", 0, "fault injection: seed for the injected disk-fault sequence")
	fs.IntVar(&o.traceCap, "trace-buffer", 4096, "retained trace-plane span events for ariactl -trace (0 = tracing off)")

	// Delivery hardening (-assign-ack, -notify) defaults off to keep the
	// simulator's baseline figures comparable; a live grid whose assignees
	// can crash wants it on, or a lost ASSIGN (or an assignee SIGKILLed
	// with queued work) orphans the job forever.
	o.proto = core.DefaultConfig()
	proto := core.BindFlags(fs, o.proto)
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	proto.Apply(&o.proto)
	return o, nil
}

// run boots the daemon and blocks until stop delivers (tests close a
// channel; main wires OS signals).
func run(args []string, stop <-chan os.Signal) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	peers, err := parsePeers(o.peers)
	if err != nil {
		return err
	}
	neighbors, err := parseNeighbors(o.neighbors)
	if err != nil {
		return err
	}
	profile, err := buildProfile(o.arch, o.os, o.memGB, o.diskGB, o.perf)
	if err != nil {
		return err
	}
	policy, err := parsePolicy(o.policy)
	if err != nil {
		return err
	}
	art := job.ARTModel{Mode: job.DriftSymmetric, Epsilon: o.epsilon}
	if o.epsilon == 0 {
		art = job.ARTModel{Mode: job.DriftNone}
	}

	logger := log.New(os.Stdout, fmt.Sprintf("ariad[%d] ", o.id), log.Ltime|log.Lmicroseconds)
	obs := daemonObservers(logger, o.proto)
	if o.events != "" {
		f, err := os.OpenFile(o.events, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("open event log: %w", err)
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				logger.Printf("close event log: %v", cerr)
			}
		}()
		ew := eventlog.NewWriter(f)
		defer func() {
			if ferr := ew.Flush(); ferr != nil {
				logger.Printf("flush event log: %v", ferr)
			}
		}()
		obs = eventlog.Tee{obs, ew}
	}

	// Bounded span retention: the ring keeps the freshest trace-plane
	// events for ariactl -trace and lifetime per-kind counters for expvar.
	var ring *trace.Ring
	if o.traceCap > 0 {
		ring = trace.NewRing(o.traceCap)
		obs = eventlog.Tee{obs, ring}
	}
	debugRing.Store(ring)
	debugRecovery.Store((*core.RecoveryStats)(nil)) // reset stale stats across run() calls
	debugWALFaults.Store(&faultStoreRef{nil})       // ditto for fault counters

	node, err := transport.ListenTCP(transport.TCPConfig{
		ID:        overlay.NodeID(o.id),
		Listen:    o.listen,
		Peers:     peers,
		Neighbors: neighbors,
		Seed:      o.seed,
	}, profile, policy, o.proto, obs, art)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := node.Close(); cerr != nil {
			logger.Printf("close: %v", cerr)
		}
	}()
	// Durable state: attach the write-ahead journal and replay whatever the
	// previous process left behind before the node starts taking traffic. A
	// clean prior shutdown recovers from the snapshot alone (zero replay).
	var journal *wal.Journal
	if o.dataDir != "" {
		fileStore, err := wal.OpenFileStore(o.dataDir)
		if err != nil {
			return fmt.Errorf("open data dir: %w", err)
		}
		defer func() {
			if cerr := fileStore.Close(); cerr != nil {
				logger.Printf("close data dir: %v", cerr)
			}
		}()
		var store wal.Store = fileStore
		if o.walFaults.Active() {
			faulty := wal.NewFaultStore(fileStore, o.walFaults)
			store = faulty
			debugWALFaults.Store(&faultStoreRef{faulty})
			f := o.walFaults
			logger.Printf("WAL fault injection armed (short %.3g, sync %.3g, snapshot %.3g, flip %.3g, seed %d)",
				f.ShortWritePct, f.SyncErrPct, f.SnapshotErrPct, f.FlipPct, f.Seed)
		}
		journal = wal.New(store, wal.Options{
			SyncEveryAppend: true,
			// A failed append means the log can no longer prove what this
			// process does next: die before any unjournaled transition
			// becomes observable. Recovery replays the clean prefix and
			// re-runs whatever the crash cut — a rerun, never a duplicate.
			OnError: func(err error) {
				logger.Printf("FATAL: write-ahead journal failed, dying loudly: %v", err)
				os.Exit(exitWALFault)
			},
		})
		node.Node().AttachJournal(journal)
		stats, err := node.Node().Recover()
		if err != nil {
			if errors.Is(err, wal.ErrCorrupt) {
				return exitCodeError{exitWALCorrupt, fmt.Errorf("recover from %s: %w", o.dataDir, err)}
			}
			return fmt.Errorf("recover from %s: %w", o.dataDir, err)
		}
		debugRecovery.Store(&stats)
		logger.Printf("recovered %d job entries from %s (%d replay records, snapshot age %v, clean=%v)",
			stats.JobsRecovered, o.dataDir, stats.ReplayRecords, stats.SnapshotAge.Round(time.Millisecond), stats.Clean)
	}

	if o.incarnation > 0 {
		node.Node().SetIncarnation(o.incarnation)
	}
	debugIncarnation.Store(o.incarnation)

	node.Node().Start()
	logger.Printf("protocol on %s, profile %s, policy %s", node.Addr(), profile, policy)

	ctlLn, err := net.Listen("tcp", o.control)
	if err != nil {
		return fmt.Errorf("control listener: %w", err)
	}
	start := time.Now()
	srv := ctl.NewServer(ctlLn, node.Node(), func() time.Duration {
		return time.Since(start)
	}, rand.New(rand.NewSource(o.seed+1)))
	defer func() {
		if cerr := srv.Close(); cerr != nil {
			logger.Printf("control close: %v", cerr)
		}
	}()
	logger.Printf("control on %s", srv.Addr())
	if ring != nil {
		srv.SetTraceSource(ring)
	}

	if o.debugAddr != "" {
		publishDebugVars()
		dln, err := net.Listen("tcp", o.debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		defer func() { _ = dln.Close() }()
		// The default mux carries /debug/pprof (imported above) and
		// /debug/vars (expvar's init).
		go func() { _ = http.Serve(dln, nil) }()
		logger.Printf("debug on %s (expvar, pprof)", dln.Addr())
	}

	<-stop
	logger.Printf("shutting down")
	if journal != nil {
		// Graceful drain: go quiet, then persist the final state as a
		// snapshot so the next boot replays nothing.
		node.Node().Stop()
		if err := node.Node().Checkpoint(); err != nil {
			logger.Printf("final checkpoint: %v", err)
		} else if err := journal.Sync(); err != nil {
			logger.Printf("journal sync: %v", err)
		} else {
			logger.Printf("state checkpointed to %s", o.dataDir)
		}
	}
	return nil
}

// debugRing points at the current daemon instance's span ring (nil ring =
// tracing off) and debugPlanes at its plane counters; expvar closures read
// through them so repeated run() calls in one process (tests) never
// double-publish.
var (
	debugRing        atomic.Value // *trace.Ring
	debugPlanes      atomic.Pointer[planeVars]
	debugRecovery    atomic.Value // *core.RecoveryStats (boot-time recovery)
	debugIncarnation atomic.Value // uint64
	debugWALFaults   atomic.Value // *faultStoreRef
	debugVarsOnce    sync.Once
)

// faultStoreRef wraps the possibly-nil pointer so atomic.Value always
// stores one concrete type.
type faultStoreRef struct{ s *wal.FaultStore }

// planeVars is what the plane sections of /debug/vars read: one daemon's
// counters and the config saying which planes its flags armed.
type planeVars struct {
	counters *metrics.PlaneCounters
	cfg      core.Config
}

// daemonObservers builds the observer chain every ariad runs, the operator
// log plus the plane counters, and points /debug/vars at those counters.
func daemonObservers(logger *log.Logger, cfg core.Config) core.Observer {
	planes := &metrics.PlaneCounters{}
	debugPlanes.Store(&planeVars{counters: planes, cfg: cfg})
	return eventlog.Tee{&logObserver{log: logger}, planes}
}

// planeSections renders each plane's /debug/vars section from the shared
// counters. A section stays {} while its plane is off.
var planeSections = []struct {
	name   string
	armed  func(core.Config) bool
	render func(metrics.PlaneCounts) map[string]uint64
}{
	{"aria.membership", core.Config.Membership, func(c metrics.PlaneCounts) map[string]uint64 {
		m := c.Membership
		return map[string]uint64{
			"suspected": uint64(m.Suspected),
			"refuted":   uint64(m.Refuted),
			"dead":      uint64(m.Dead),
			"repaired":  uint64(m.Repaired),
			"refloods":  uint64(m.ReFloods),
		}
	}},
	{"aria.directory", core.Config.Directory, func(c metrics.PlaneCounts) map[string]uint64 {
		d := c.Directory
		return map[string]uint64{
			"hits":      uint64(d.Hits),
			"misses":    uint64(d.Misses),
			"fallbacks": uint64(d.Fallbacks),
			"probes":    uint64(d.Probes),
			"evictions": uint64(d.EvictionTotal()),
		}
	}},
	{"aria.overload", func(cfg core.Config) bool {
		return cfg.MaxQueuedJobs > 0 || cfg.MaxPendingSubmits > 0 || cfg.RetryBackoffCap > 0
	}, func(c metrics.PlaneCounts) map[string]uint64 {
		o := c.Overload
		return map[string]uint64{
			"requestsShed":  uint64(o.RequestsShed),
			"assignsShed":   uint64(o.AssignsShed),
			"reflooded":     uint64(o.Reflooded),
			"reenqueued":    uint64(o.Reenqueued),
			"peersBusy":     uint64(o.PeersBusy),
			"submitRejects": uint64(o.SubmitRejections),
		}
	}},
	{"aria.sharedstate", core.Config.SharedState, func(c metrics.PlaneCounts) map[string]uint64 {
		s := c.SharedState
		timeouts := s.Conflicts["timeout"]
		return map[string]uint64{
			"commits":   uint64(s.Commits),
			"conflicts": uint64(s.ConflictTotal() - timeouts),
			"timeouts":  uint64(timeouts),
			"granted":   uint64(s.Granted),
			"fallbacks": uint64(s.Fallbacks),
		}
	}},
}

func publishDebugVars() {
	debugVarsOnce.Do(func() {
		expvar.Publish("aria.spanTotal", expvar.Func(func() interface{} {
			if r, _ := debugRing.Load().(*trace.Ring); r != nil {
				return r.Total()
			}
			return uint64(0)
		}))
		expvar.Publish("aria.spans", expvar.Func(func() interface{} {
			if r, _ := debugRing.Load().(*trace.Ring); r != nil {
				return r.Counts()
			}
			return map[core.SpanKind]uint64{}
		}))
		for _, sec := range planeSections {
			expvar.Publish(sec.name, expvar.Func(func() interface{} {
				if p := debugPlanes.Load(); p != nil && sec.armed(p.cfg) {
					return sec.render(p.counters.Snapshot())
				}
				return map[string]uint64{}
			}))
		}
		// aria.runtime is the soak auditor's process-health probe: the
		// live goroutine count bounds leak growth, pid locates the
		// process's /proc entry for RSS, and incarnation ties the probe
		// back to a specific restart of this overlay address.
		expvar.Publish("aria.runtime", expvar.Func(func() interface{} {
			inc, _ := debugIncarnation.Load().(uint64)
			return map[string]interface{}{
				"goroutines":  runtime.NumGoroutine(),
				"pid":         os.Getpid(),
				"incarnation": inc,
			}
		}))
		// aria.wire counts inbound protocol frames the codec refused, by
		// reason — the soak's proof that injected wire corruption was both
		// delivered and cleanly rejected — plus the outbound frames this
		// daemon dropped before the socket (sendInvalid: the message failed
		// validation; sendOverflow: the peer's send queue was full).
		expvar.Publish("aria.wire", expvar.Func(func() interface{} {
			wire := transport.WireRejects()
			for reason, n := range transport.WireSendDrops() {
				wire[reason] = n
			}
			return wire
		}))
		// aria.walfaults counts injected disk faults when -wal-*-pct flags
		// armed the fault store (empty map otherwise).
		expvar.Publish("aria.walfaults", expvar.Func(func() interface{} {
			if ref, _ := debugWALFaults.Load().(*faultStoreRef); ref != nil && ref.s != nil {
				c := ref.s.Counters()
				return map[string]uint64{
					"shortWrites":  c.ShortWrites,
					"syncErrs":     c.SyncErrs,
					"snapshotErrs": c.SnapshotErrs,
					"bitFlips":     c.BitFlips,
				}
			}
			return map[string]uint64{}
		}))
		expvar.Publish("aria.recovery", expvar.Func(func() interface{} {
			if s, _ := debugRecovery.Load().(*core.RecoveryStats); s != nil {
				return map[string]interface{}{
					"jobsRecovered":  s.JobsRecovered,
					"replayRecords":  s.ReplayRecords,
					"snapshotAgeSec": s.SnapshotAge.Seconds(),
					"clean":          s.Clean,
				}
			}
			return map[string]interface{}{}
		}))
	})
}

func parsePeers(s string) (map[overlay.NodeID]string, error) {
	peers := make(map[overlay.NodeID]string)
	if s == "" {
		return nil, fmt.Errorf("missing -peers")
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad peer entry %q (want id=host:port)", part)
		}
		id, err := strconv.Atoi(kv[0])
		if err != nil {
			return nil, fmt.Errorf("bad peer id %q: %w", kv[0], err)
		}
		peers[overlay.NodeID(id)] = kv[1]
	}
	return peers, nil
}

func parseNeighbors(s string) ([]overlay.NodeID, error) {
	if s == "" {
		return nil, fmt.Errorf("missing -neighbors")
	}
	var out []overlay.NodeID
	for _, part := range strings.Split(s, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad neighbor id %q: %w", part, err)
		}
		out = append(out, overlay.NodeID(id))
	}
	return out, nil
}

func buildProfile(archStr, osStr string, mem, disk int, perf float64) (resource.Profile, error) {
	arch, err := resource.ParseArchitecture(archStr)
	if err != nil {
		return resource.Profile{}, err
	}
	osKind, err := resource.ParseOS(osStr)
	if err != nil {
		return resource.Profile{}, err
	}
	p := resource.Profile{Arch: arch, OS: osKind, MemoryGB: mem, DiskGB: disk, PerfIndex: perf}
	if err := p.Validate(); err != nil {
		return resource.Profile{}, err
	}
	return p, nil
}

func parsePolicy(s string) (sched.Policy, error) {
	return sched.ParsePolicy(s)
}

// logObserver prints job lifecycle events and the plane transitions
// operators care about.
type logObserver struct {
	core.NopObserver

	log *log.Logger
}

func (o *logObserver) JobSubmitted(_ time.Duration, _ overlay.NodeID, p job.Profile) {
	o.log.Printf("job %s submitted (ert %v, %s)", p.UUID.Short(), p.ERT, p.Req)
}

func (o *logObserver) JobAssigned(_ time.Duration, uuid job.UUID, from, to overlay.NodeID, cost sched.Cost, resched bool) {
	verb := "assigned"
	if resched {
		verb = "rescheduled"
	}
	o.log.Printf("job %s %s %v -> %v (cost %.1f)", uuid.Short(), verb, from, to, float64(cost))
}

func (o *logObserver) JobStarted(_ time.Duration, node overlay.NodeID, uuid job.UUID) {
	o.log.Printf("job %s started on %v", uuid.Short(), node)
}

func (o *logObserver) JobCompleted(_ time.Duration, node overlay.NodeID, j *job.Job) {
	o.log.Printf("job %s completed on %v (waited %v, ran %v)",
		j.UUID.Short(), node, j.WaitingTime().Round(time.Millisecond), j.ExecutionTime().Round(time.Millisecond))
}

func (o *logObserver) JobFailed(_ time.Duration, _ overlay.NodeID, uuid job.UUID, reason string) {
	o.log.Printf("job %s failed: %s", uuid.Short(), reason)
}

func (o *logObserver) PeerSuspected(_ time.Duration, _, peer overlay.NodeID) {
	o.log.Printf("peer %v suspected", peer)
}

func (o *logObserver) PeerRefuted(_ time.Duration, _, peer overlay.NodeID) {
	o.log.Printf("peer %v refuted suspicion", peer)
}

func (o *logObserver) PeerDead(_ time.Duration, _, peer overlay.NodeID) {
	o.log.Printf("peer %v confirmed dead", peer)
}

func (o *logObserver) LinkRepaired(_ time.Duration, _, dead, replacement overlay.NodeID) {
	o.log.Printf("overlay repaired: %v replaces dead %v", replacement, dead)
}

func (o *logObserver) FloodEscalated(_ time.Duration, _ overlay.NodeID, uuid job.UUID, attempt, ttl int) {
	o.log.Printf("job %s re-flood %d escalated to TTL %d", uuid.Short(), attempt, ttl)
}

func (o *logObserver) AssignShed(_ time.Duration, _ overlay.NodeID, uuid job.UUID, depth int) {
	o.log.Printf("job %s ASSIGN shed with BUSY (queue depth %d)", uuid.Short(), depth)
}

func (o *logObserver) ShedRedispatched(_ time.Duration, _ overlay.NodeID, uuid job.UUID, reflooded bool) {
	if reflooded {
		o.log.Printf("job %s re-flooded after BUSY", uuid.Short())
	} else {
		o.log.Printf("job %s re-enqueued after BUSY", uuid.Short())
	}
}

func (o *logObserver) SubmitRejected(_ time.Duration, _ overlay.NodeID, uuid job.UUID, pending int) {
	o.log.Printf("job %s submit rejected (%d discoveries in flight)", uuid.Short(), pending)
}
