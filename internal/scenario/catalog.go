package scenario

import (
	"fmt"
	"sort"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/sched"
	"github.com/smartgrid/aria/internal/workload"
)

// DefaultSeed anchors the deterministic evaluation; run k of a scenario
// derives its seed from this and the scenario name.
const DefaultSeed = 20100621 // ICDCS 2010 opening day

// base returns the baseline scenario skeleton shared by the whole catalog:
// the paper's Mixed setup (FCFS+SJF split) without dynamic rescheduling.
func base(name, desc string) Config {
	proto := core.DefaultConfig()
	proto.InformJobs = 0 // rescheduling off unless the scenario enables it
	return Config{
		Name:        name,
		Description: desc,
		Seed:        DefaultSeed,
		Nodes:       DefaultNodes,
		Overlay:     overlay.DefaultBlatantConfig(),
		Policies:    []sched.Policy{sched.FCFS, sched.SJF},
		Class:       job.ClassBatch,
		Submission: workload.Schedule{
			Start:    DefaultSubmitStart,
			Interval: DefaultSubmitInterval,
			Count:    DefaultJobs,
		},
		Protocol:          proto,
		ART:               job.DefaultARTModel(),
		Horizon:           DefaultHorizon,
		SampleInterval:    DefaultSampleInterval,
		EnsureSatisfiable: true,
	}
}

// rescheduled switches a scenario's dynamic rescheduling on with the
// paper's baseline parameters (2 INFORMs / 5 min, 3 min threshold).
func rescheduled(c Config, name string) Config {
	c.Name = name
	c.Description = "Like " + c.Description + " but with dynamic rescheduling."
	c.Protocol.InformJobs = core.DefaultConfig().InformJobs
	return c
}

// Catalog returns the paper's 26 evaluation scenarios (Table II), in the
// table's order.
func Catalog() []Config {
	fcfs := base("FCFS", "all nodes FCFS")
	fcfs.Policies = []sched.Policy{sched.FCFS}

	sjf := base("SJF", "all nodes SJF")
	sjf.Policies = []sched.Policy{sched.SJF}

	mixed := base("Mixed", "FCFS/SJF mixed one-to-one")

	deadline := base("Deadline", "all nodes EDF, relaxed deadlines")
	deadline.Policies = []sched.Policy{sched.EDF}
	deadline.Class = job.ClassDeadline
	deadline.DeadlineSlack = workload.DeadlineSlackRelaxed

	lowLoad := base("LowLoad", "Mixed at half submission rate")
	lowLoad.Submission.Interval = 20 * time.Second

	highLoad := base("HighLoad", "Mixed at double submission rate")
	highLoad.Submission.Interval = 5 * time.Second

	deadlineH := deadline
	deadlineH.Name = "DeadlineH"
	deadlineH.Description = "EDF with tight deadlines"
	deadlineH.DeadlineSlack = workload.DeadlineSlackTight

	expanding := base("Expanding", "Mixed on a growing overlay (500→700 nodes)")
	expanding.Expanding = &Expanding{
		ExtraNodes: 200,
		Start:      time.Hour + 23*time.Minute,
		Interval:   50 * time.Second,
	}

	precise := base("Precise", "Mixed with exact running-time estimates")
	precise.ART = job.ARTModel{Mode: job.DriftNone}

	accuracy25 := base("Accuracy25", "Mixed with ±25% estimate error")
	accuracy25.ART = job.ARTModel{Mode: job.DriftSymmetric, Epsilon: 0.25}

	accuracyBad := base("AccuracyBad", "Mixed with always-optimistic estimates")
	accuracyBad.ART = job.ARTModel{Mode: job.DriftOptimistic, Epsilon: 0.1}

	iMixed := rescheduled(mixed, "iMixed")

	iInform1 := rescheduled(mixed, "iInform1")
	iInform1.Description = "iMixed advertising only 1 job per interval"
	iInform1.Protocol.InformJobs = 1

	iInform4 := rescheduled(mixed, "iInform4")
	iInform4.Description = "iMixed advertising up to 4 jobs per interval"
	iInform4.Protocol.InformJobs = 4

	iInform15m := rescheduled(mixed, "iInform15m")
	iInform15m.Description = "iMixed requiring a 15m improvement to reschedule"
	iInform15m.Protocol.RescheduleThreshold = 15 * time.Minute

	iInform30m := rescheduled(mixed, "iInform30m")
	iInform30m.Description = "iMixed requiring a 30m improvement to reschedule"
	iInform30m.Protocol.RescheduleThreshold = 30 * time.Minute

	return []Config{
		fcfs,
		sjf,
		mixed,
		deadline,
		lowLoad,
		highLoad,
		deadlineH,
		expanding,
		precise,
		accuracy25,
		accuracyBad,
		rescheduled(fcfs, "iFCFS"),
		rescheduled(sjf, "iSJF"),
		iMixed,
		rescheduled(deadline, "iDeadline"),
		rescheduled(lowLoad, "iLowLoad"),
		rescheduled(highLoad, "iHighLoad"),
		rescheduled(deadlineH, "iDeadlineH"),
		rescheduled(expanding, "iExpanding"),
		iInform1,
		iInform4,
		iInform15m,
		iInform30m,
		rescheduled(precise, "iPrecise"),
		rescheduled(accuracy25, "iAccuracy25"),
		rescheduled(accuracyBad, "iAccuracyBad"),
	}
}

// ExtensionScenarios returns configurations beyond Table II that implement
// the paper's future-work list: alternate peer-to-peer overlay topologies
// and additional local scheduling policies.
func ExtensionScenarios() []Config {
	var out []Config
	for _, topo := range []overlay.Topology{
		overlay.TopologyRandom, overlay.TopologyRing,
		overlay.TopologySmallWorld, overlay.TopologyScaleFree,
	} {
		c := Baseline()
		c.Name = "iMixed-" + topo.String()
		c.Description = "iMixed on a " + topo.String() + " overlay (future work §VI)"
		c.Topology = topo
		out = append(out, c)
	}

	prio := Baseline()
	prio.Name = "iPolicies4"
	prio.Description = "four batch policies mixed: FCFS, SJF, Priority, LJF (future work §VI)"
	prio.Policies = []sched.Policy{sched.FCFS, sched.SJF, sched.Priority, sched.LJF}
	out = append(out, prio)

	failsafe := Baseline()
	failsafe.Name = "iFailsafe"
	failsafe.Description = "iMixed with the NOTIFY tracking extension armed (§III-D)"
	failsafe.Protocol.NotifyInitiator = true
	out = append(out, failsafe)

	churn := Baseline()
	churn.Name = "iChurn"
	churn.Description = "iMixed with 50 random node crashes and no failsafe (volatility probe)"
	churn.Churn = &Churn{Kills: 50, Start: 30 * time.Minute, Interval: 2 * time.Minute}
	out = append(out, churn)

	churnSafe := churn
	churnSafe.Name = "iChurnFailsafe"
	churnSafe.Description = "iChurn with the NOTIFY failsafe recovering lost jobs"
	churnSafe.Protocol.NotifyInitiator = true
	out = append(out, churnSafe)

	multireq := Baseline()
	multireq.Name = "MultiReq3"
	multireq.Description = "multiple-simultaneous-requests model of [13]: assign to the 3 best offers, revoke on first start (related-work comparison)"
	multireq.Protocol.InformJobs = 0
	multireq.Protocol.MultiAssign = 3
	out = append(out, multireq)

	selNewest := Baseline()
	selNewest.Name = "iSelectNewest"
	selNewest.Description = "iMixed advertising the newest queued jobs instead of the longest-waiting (§III-D ablation)"
	selNewest.Protocol.InformSelection = sched.SelectNewest
	out = append(out, selNewest)

	selCostliest := Baseline()
	selCostliest.Name = "iSelectCostliest"
	selCostliest.Description = "iMixed advertising the costliest queued jobs (§III-D ablation)"
	selCostliest.Protocol.InformSelection = sched.SelectCostliest
	out = append(out, selCostliest)

	sites := Baseline()
	sites.Name = "iMixed-sites10"
	sites.Description = "iMixed on a 10-site grid-of-clusters latency model (LAN within, WAN across)"
	sites.Sites = 10
	out = append(out, sites)

	lossy := Baseline()
	lossy.Name = "iLossy"
	lossy.Description = "iMixed on a lossy network (5% drop, 1% duplication, 2s jitter) with the ASSIGN handshake and failsafe armed"
	lossy.Faults = &Faults{DropProb: 0.05, DupProb: 0.01, MaxExtraDelay: 2 * time.Second}
	lossy.Protocol.AssignAck = true
	lossy.Protocol.NotifyInitiator = true
	// The ACCEPT collect window must cover the worst-case jitter on the
	// REQUEST flood plus the direct reply, or far offers arrive after the
	// decision and demanding jobs starve (see OPERATIONS.md).
	lossy.Protocol.AcceptTimeout += 2 * 2 * time.Second
	out = append(out, lossy)

	partition := Baseline()
	partition.Name = "iPartition"
	partition.Description = "iMixed with a quarter of the overlay cut off for 30m mid-run, hardening armed"
	partition.Faults = &Faults{
		Partition: &FaultPartition{Start: 2 * time.Hour, Duration: 30 * time.Minute, Fraction: 0.25},
	}
	partition.Protocol.AssignAck = true
	partition.Protocol.NotifyInitiator = true
	out = append(out, partition)

	gray := Baseline()
	gray.Name = "iGray"
	gray.Description = "iMixed under gray failures: a one-way (deaf) partition, a slow-peer window, and a SIGSTOP-style stall window overlapping mid-run, hardening armed"
	gray.Faults = &Faults{
		Partition: &FaultPartition{Start: 90 * time.Minute, Duration: 20 * time.Minute, Fraction: 0.1, OneWay: true},
		Slowdown:  &FaultSlowdown{Start: 2 * time.Hour, Duration: 30 * time.Minute, Fraction: 0.15, ExtraDelay: 3 * time.Second},
		Stall:     &FaultStall{Start: 3 * time.Hour, Duration: 2 * time.Minute, Fraction: 0.05},
	}
	gray.Protocol.AssignAck = true
	gray.Protocol.NotifyInitiator = true
	// Slow-peer windows stretch offer round-trips; widen the collect window
	// like iLossy does so demanding jobs don't starve during the slowdown.
	gray.Protocol.AcceptTimeout += 2 * 3 * time.Second
	out = append(out, gray)

	lossyChurn := lossy
	lossyChurn.Name = "iLossyChurn"
	lossyChurn.Description = "iLossy plus 50 random node crashes: message loss and volatility combined"
	lossyChurn.Churn = &Churn{Kills: 50, Start: 30 * time.Minute, Interval: 2 * time.Minute}
	out = append(out, lossyChurn)

	churnHeal := Baseline()
	churnHeal.Name = "iChurnHeal"
	churnHeal.Description = "iMixed with 50 crashes left as corpses in the overlay: the membership plane (SWIM-style probing) must detect them, prune dead links, and repair the topology"
	churnHeal.Churn = &Churn{
		Kills: 50, Start: 30 * time.Minute, Interval: 2 * time.Minute,
		LeaveCorpses: true,
	}
	churnHeal.Protocol.NotifyInitiator = true
	churnHeal.Protocol.ArmMembership()
	churnHeal.Protocol.MaxDegree = 8
	churnHeal.Protocol.ReFloodTTLStep = 2
	out = append(out, churnHeal)

	lossyChurnHeal := lossyChurn
	lossyChurnHeal.Name = "iLossyChurnHeal"
	lossyChurnHeal.Description = "iLossyChurn with corpses left in place and the membership plane armed: loss, volatility, and self-healing combined"
	lossyChurnHeal.Churn = &Churn{
		Kills: 50, Start: 30 * time.Minute, Interval: 2 * time.Minute,
		LeaveCorpses: true,
	}
	lossyChurnHeal.Protocol.ArmMembership()
	lossyChurnHeal.Protocol.MaxDegree = 8
	lossyChurnHeal.Protocol.ReFloodTTLStep = 2
	out = append(out, lossyChurnHeal)

	// Crash–restart family: churned nodes come back after a short reboot
	// delay. The restart delay is kept well under the SWIM suspect window
	// (probe interval + probe timeout + suspect timeout) so the revenant
	// refutes its own suspicion instead of being declared dead.
	crashRestart := Baseline()
	crashRestart.Name = "iCrashRestart"
	crashRestart.Description = "iChurnHeal where every crashed node reboots after 5s and replays its write-ahead journal (fail-recover)"
	crashRestart.Churn = &Churn{
		Kills: 50, Start: 30 * time.Minute, Interval: 2 * time.Minute,
		LeaveCorpses: true,
		Restart:      5 * time.Second,
	}
	crashRestart.Protocol.NotifyInitiator = true
	crashRestart.Protocol.ArmMembership()
	crashRestart.Protocol.MaxDegree = 8
	crashRestart.Protocol.ReFloodTTLStep = 2
	crashRestart.Journal = true
	out = append(out, crashRestart)

	amnesiac := crashRestart
	amnesiac.Name = "iCrashRestart-amnesiac"
	amnesiac.Description = "iCrashRestart without the journal: restarted nodes come back empty (fail-stop control for report extension G)"
	amnesiac.Journal = false
	out = append(out, amnesiac)

	lossyCrashRestart := lossyChurnHeal
	lossyCrashRestart.Name = "iLossyCrashRestart"
	lossyCrashRestart.Description = "iLossyChurnHeal with 5s journaled restarts: loss, volatility, self-healing, and crash recovery combined"
	lossyCrashRestart.Churn = &Churn{
		Kills: 50, Start: 30 * time.Minute, Interval: 2 * time.Minute,
		LeaveCorpses: true,
		Restart:      5 * time.Second,
	}
	lossyCrashRestart.Journal = true
	out = append(out, lossyCrashRestart)

	// Directed-discovery family: the gossip-fed resource directory steers
	// first discovery rounds at cached candidates, flooding only as
	// fallback. The membership plane is a prerequisite (digests ride
	// PING/PONG gossip, and suspicion/death feed cache invalidation).
	directed := Baseline()
	directed.Name = "iDirected"
	directed.Description = "iMixed with the gossip-fed resource directory: first discovery rounds probe up to 3 cached candidates with TTL-0 REQUESTs, flooding only on miss or starvation"
	directed.Protocol.ArmDirectory()
	out = append(out, directed)

	directedChurn := churnHeal
	directedChurn.Name = "iDirectedChurn"
	directedChurn.Description = "iChurnHeal with the directory armed: suspicion evicts, dead verdicts tombstone, and no directed probe may ever target a corpse"
	directedChurn.Protocol.ArmDirectory()
	out = append(out, directedChurn)

	// Shared-state family: the optimistic-commit arm (Omega-style) replaces
	// per-job discovery with a single COMMIT against the initiator's
	// eventually-consistent cached cluster view. Providers validate commits
	// against reality and answer with typed CONFLICTs carrying their honest
	// digest; initiators retry the next-best candidate with bounded backoff
	// and escalate to the classic flood only after the commit budget is
	// exhausted. The membership plane and the directory store feed the view
	// (DirectedCandidates itself stays off: commits, not probes).
	sharedState := Baseline()
	sharedState.Name = "iSharedState"
	sharedState.Description = "iMixed on the shared-state optimistic arm: initiators commit jobs against their gossip-fed cluster view, providers grant or reply with typed CONFLICTs, and the flood fires only after the commit budget is exhausted"
	sharedState.Protocol.ArmSharedState()
	out = append(out, sharedState)

	sharedStateChurn := churnHeal
	sharedStateChurn.Name = "iSharedStateChurn"
	sharedStateChurn.Description = "iChurnHeal on the shared-state arm: stale view entries draw CONFLICT(stale), silent corpses burn commit timeouts, and the flood fallback keeps completion independent of view quality"
	sharedStateChurn.Protocol.ArmSharedState()
	out = append(out, sharedStateChurn)

	// Overload family: the grid is driven past steady-state capacity
	// (double submission rate, as HighLoad) with the overload-control
	// plane armed: saturated providers answer REQUESTs with advisory BUSY
	// and shed late-arriving ASSIGNs for re-dispatch, initiators bound
	// their concurrent discoveries, and starved re-floods back off on a
	// jittered capped schedule instead of a synchronized fixed cadence.
	// The retry budget is raised so patient initiators outlast the backlog
	// drain rather than failing jobs a bounded queue merely postponed.
	overload := Baseline()
	overload.Name = "iOverload"
	overload.Description = "iMixed at double submission rate with the overload-control plane armed: bounded run queues, BUSY shedding with guaranteed re-dispatch, submit admission control, and jittered capped retry backoff"
	overload.Submission.Interval = 5 * time.Second
	overload.Protocol.MaxQueuedJobs = core.DefaultMaxQueuedJobs
	overload.Protocol.MaxPendingSubmits = core.DefaultMaxPendingSubmits
	overload.Protocol.RetryBackoffCap = core.DefaultRetryBackoffCap
	overload.Protocol.MaxRequestRetries = 64
	out = append(out, overload)

	overloadChurn := overload
	overloadChurn.Name = "iOverloadChurn"
	overloadChurn.Description = "iOverload plus 50 random node crashes: saturation and volatility combined — the queue bound caps how much work any one crash takes down"
	overloadChurn.Churn = &Churn{Kills: 50, Start: 30 * time.Minute, Interval: 2 * time.Minute}
	out = append(out, overloadChurn)

	reservations := Baseline()
	reservations.Name = "iReservations"
	reservations.Description = "iMixed with 25% of jobs holding 2h advance reservations (future work §VI)"
	reservations.ReservationFraction = 0.25
	reservations.ReservationLead = 2 * time.Hour
	out = append(out, reservations)

	return out
}

// ByName finds a scenario in the Table II catalog or the extension set.
func ByName(name string) (Config, error) {
	for _, c := range Catalog() {
		if c.Name == name {
			return c, nil
		}
	}
	for _, c := range ExtensionScenarios() {
		if c.Name == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("unknown scenario %q", name)
}

// Names lists the catalog scenario names in table order.
func Names() []string {
	cat := Catalog()
	out := make([]string, len(cat))
	for i, c := range cat {
		out[i] = c.Name
	}
	return out
}

// Baseline returns the iMixed scenario, the paper's reference point.
func Baseline() Config {
	c, err := ByName("iMixed")
	if err != nil {
		// Unreachable: iMixed is always in the catalog.
		panic(err)
	}
	return c
}

// SortedNames lists the catalog names alphabetically (for CLI help).
func SortedNames() []string {
	names := Names()
	sort.Strings(names)
	return names
}
