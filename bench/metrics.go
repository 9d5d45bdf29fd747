package main

import (
	"fmt"
	"time"
)

// metricDef declares one metric the benchmark prints. BENCHMARK.json at the
// repository root carries the same declarations for the driver; the tests
// keep the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// workloadDef names one workload, the reason it exists, and how to run it at a
// fraction scale of its size for about budget.
type workloadDef struct {
	Name string
	Why  string
	run  func(scale float64, seed int64, budget time.Duration, traced bool, dir string) (*runResult, error)
}

func simWorkload(s simShape) func(float64, int64, time.Duration, bool, string) (*runResult, error) {
	return func(scale float64, seed int64, budget time.Duration, traced bool, _ string) (*runResult, error) {
		return runSim(s.shrink(scale), seed, budget, traced)
	}
}

func liveWorkload(s liveShape) func(float64, int64, time.Duration, bool, string) (*runResult, error) {
	return func(scale float64, seed int64, budget time.Duration, traced bool, dir string) (*runResult, error) {
		return runLive(s.shrink(scale), seed, budget, traced, dir)
	}
}

var workloads = []workloadDef{
	{"sim-flood", "iMixed REQUEST flooding on a 10k-node overlay: sim kernel, sim transport, core flood+dedup and sched offers busy; codec, WAL, directory idle", simWorkload(simFlood)},
	{"sim-planes", "iSharedStateChurn with journal, trace plane and crash-restart: PING/PONG/COMMIT mix, directory, shared-state picks, WAL replay and the observer chain busy; REQUEST floods only as fallback", simWorkload(simPlanes)},
	{"live-flood", "32 TCP nodes on loopback, flood discovery only: JSON codec, TCP send path and core REQUEST/ACCEPT handling busy; WAL and directory idle", liveWorkload(liveFlood)},
	{"live-commit", "16 TCP nodes with every hardening plane armed and submissions through ctl: WAL append, directory/shared-state picks, ctl parsing and observers busy; floods nearly unused", liveWorkload(liveCommit)},
}

// endToEnd lists what a user of the system sees. The driver contract wants
// one metric set for every workload, so each name is defined for both kinds
// of workload (README.md has the table): on sim-* one request is one whole
// replay, on live-* one job.
//
// The bounds are what the reference host can hold, not what one would wish:
// ten runs of one build spread 2 to 7 % there, but the host itself drifts by
// up to 16 % over tens of minutes (the same sim-flood replays ran at 143,
// 134 and 120 jobs/s in three batches an hour apart), and a bound has to
// survive two sets of runs made that far apart.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"jobs_per_s", "jobs/s", "higher", 0.25},
	{"cpu_ms_per_job", "ms", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer lists the single-layer numbers: isolated drives (workload
// independent) and what the traced run saw. A layer a workload leaves idle
// reports 0 there.
var perLayer = []metricDef{
	// sim
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.timer_pushpop_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.timer_pushpop_allocs", Unit: "count", Better: "lower"},
	// transport
	{Name: "transport.codec_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.codec_encode_allocs", Unit: "count", Better: "lower"},
	{Name: "transport.codec_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.codec_decode_allocs", Unit: "count", Better: "lower"},
	{Name: "transport.codec_frame_bytes", Unit: "B", Better: "lower"},
	{Name: "transport.sim_hop_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.sim_hop_allocs", Unit: "count", Better: "lower"},
	{Name: "transport.wire_rejects", Unit: "count", Better: "lower"},
	// core
	{Name: "core.handle_request_ns", Unit: "ns", Better: "lower"},
	{Name: "core.handle_request_allocs", Unit: "count", Better: "lower"},
	{Name: "core.handle_request_dup_ns", Unit: "ns", Better: "lower"},
	{Name: "core.handle_request_dup_allocs", Unit: "count", Better: "lower"},
	{Name: "core.handle_inform_ns", Unit: "ns", Better: "lower"},
	{Name: "core.handle_accept_ns", Unit: "ns", Better: "lower"},
	{Name: "core.handle_assign_ns", Unit: "ns", Better: "lower"},
	{Name: "core.handle_ping_ns", Unit: "ns", Better: "lower"},
	{Name: "core.handle_commit_ns", Unit: "ns", Better: "lower"},
	{Name: "core.msgs_per_job", Unit: "count", Better: "lower"},
	{Name: "core.request_msgs_per_job", Unit: "count", Better: "lower"},
	{Name: "core.inform_msgs_per_job", Unit: "count", Better: "lower"},
	{Name: "core.reschedules_per_job", Unit: "count", Better: "lower"},
	{Name: "core.flood_dup_share", Unit: "ratio", Better: "lower"},
	{Name: "core.duplicate_starts", Unit: "count", Better: "lower"},
	// sched
	{Name: "sched.offer_ettc_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.offer_nal_ns", Unit: "ns", Better: "lower"},
	// directory
	{Name: "directory.learn_ns", Unit: "ns", Better: "lower"},
	{Name: "directory.candidates_ns", Unit: "ns", Better: "lower"},
	{Name: "directory.gossip_ns", Unit: "ns", Better: "lower"},
	{Name: "directory.codec_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "directory.codec_decode_ns", Unit: "ns", Better: "lower"},
	// sharedstate
	{Name: "sharedstate.pick_ns", Unit: "ns", Better: "lower"},
	{Name: "sharedstate.commits_per_job", Unit: "count", Better: "lower"},
	{Name: "sharedstate.grant_share", Unit: "ratio", Better: "higher"},
	{Name: "sharedstate.fallback_share", Unit: "ratio", Better: "lower"},
	// wal
	{Name: "wal.append_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.append_allocs", Unit: "count", Better: "lower"},
	{Name: "wal.append_bytes", Unit: "B", Better: "lower"},
	{Name: "wal.append_sync_us", Unit: "us", Better: "lower"},
	{Name: "wal.replay_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "wal.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_job", Unit: "B", Better: "lower"},
	{Name: "wal.replay_records", Unit: "count", Better: "lower"},
	// overlay, ctl, observers
	{Name: "overlay.build_s", Unit: "s", Better: "lower"},
	{Name: "ctl.handle_submit_ns", Unit: "ns", Better: "lower"},
	{Name: "ctl.handle_submit_allocs", Unit: "count", Better: "lower"},
	{Name: "eventlog.write_event_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.collect_span_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.check_s", Unit: "s", Better: "lower"},
	// phases of a live job, from harness observer timestamps
	{Name: "phase.discovery_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "phase.discovery_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "phase.queue_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "phase.exec_p50_ms", Unit: "ms", Better: "lower"},
	// CPU profile attribution: the first group sums to 1, the *_any_share
	// group overlaps it.
	{Name: "cpu.sim_share", Unit: "ratio", Better: "lower"},
	{Name: "cpu.transport_share", Unit: "ratio", Better: "lower"},
	{Name: "cpu.core_share", Unit: "ratio", Better: "lower"},
	{Name: "cpu.sched_share", Unit: "ratio", Better: "lower"},
	{Name: "cpu.directory_share", Unit: "ratio", Better: "lower"},
	{Name: "cpu.wal_share", Unit: "ratio", Better: "lower"},
	{Name: "cpu.overlay_share", Unit: "ratio", Better: "lower"},
	{Name: "cpu.ctl_share", Unit: "ratio", Better: "lower"},
	{Name: "cpu.observers_share", Unit: "ratio", Better: "lower"},
	{Name: "cpu.other_pkgs_share", Unit: "ratio", Better: "lower"},
	{Name: "cpu.gc_share", Unit: "ratio", Better: "lower"},
	{Name: "cpu.syscall_share", Unit: "ratio", Better: "lower"},
	{Name: "cpu.runtime_other_share", Unit: "ratio", Better: "lower"},
	{Name: "cpu.harness_share", Unit: "ratio", Better: "lower"},
	{Name: "cpu.alloc_any_share", Unit: "ratio", Better: "lower"},
	{Name: "cpu.json_any_share", Unit: "ratio", Better: "lower"},
	{Name: "cpu.syscall_any_share", Unit: "ratio", Better: "lower"},
	// memory and load generator
	{Name: "mem.mallocs_per_event", Unit: "count", Better: "lower"},
	{Name: "mem.mallocs_per_job", Unit: "count", Better: "lower"},
	{Name: "mem.heap_bytes_per_node", Unit: "B", Better: "lower"},
	{Name: "load.latency_samples", Unit: "count", Better: "higher"},
	{Name: "load.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "load.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "load.late_max_ms", Unit: "ms", Better: "lower"},
	{Name: "load.phase_a_cpu_util", Unit: "ratio", Better: "lower"},
	{Name: "load.phase_b_cpu_util", Unit: "ratio", Better: "higher"},
	{Name: "load.tracing_overhead_share", Unit: "ratio", Better: "lower"},
}

// metrics maps a declared metric name to its measured value.
type metrics map[string]float64

// checkAgainst reports the first difference between the names in m and the
// declared set: the driver refuses a run that prints any other set.
func (m metrics) checkAgainst(defs []metricDef) error {
	want := make(map[string]bool, len(defs))
	for _, d := range defs {
		want[d.Name] = true
		if _, ok := m[d.Name]; !ok {
			return fmt.Errorf("metric %s declared but not measured", d.Name)
		}
	}
	for name := range m {
		if !want[name] {
			return fmt.Errorf("metric %s measured but not declared", name)
		}
	}
	return nil
}

// fillZero gives every declared metric the run did not measure the value 0:
// the layer was idle on this workload.
func (m metrics) fillZero(defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0
		}
	}
}

// merge copies src into m.
func (m metrics) merge(src metrics) {
	for k, v := range src {
		m[k] = v
	}
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// declared is the metric set a run must print: end to end untraced, per layer
// traced.
func declared(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}
