package metrics

import (
	"maps"
	"sync"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
)

// PlaneCounts holds every plane counter in the counter structs a Result
// carries.
type PlaneCounts struct {
	// Faults holds only the delivery-hardening half (Retried, Recovered);
	// link faults are the fault plane's statistics, not node events.
	Faults      FaultCounters
	Membership  MembershipCounters
	Recovery    RecoveryCounters
	Directory   DirectoryCounters
	Overload    OverloadCounters
	SharedState SharedStateCounters
}

// PlaneCounters is the one place a plane event becomes a number: it counts
// the delivery, membership, recovery, directory, overload and shared-state
// events of core.Observer. The simulator's Recorder embeds it and ariad
// publishes it on /debug/vars, so both report the same counters. Job
// lifecycle events fall through to the embedded NopObserver. Safe for
// concurrent use.
type PlaneCounters struct {
	core.NopObserver

	mu sync.Mutex
	c  PlaneCounts
}

var _ core.Observer = (*PlaneCounters)(nil)

// Snapshot returns a deep copy of the counters.
func (p *PlaneCounters) Snapshot() PlaneCounts {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.c
	out.Directory.Evictions = maps.Clone(p.c.Directory.Evictions)
	out.SharedState.Conflicts = maps.Clone(p.c.SharedState.Conflicts)
	return out
}

func (p *PlaneCounters) count(f func(c *PlaneCounts)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f(&p.c)
}

// bump increments m[key], allocating m on first use so a plane that never
// fired keeps a nil map.
func bump(m map[string]int, key string) map[string]int {
	if m == nil {
		m = make(map[string]int)
	}
	m[key]++
	return m
}

// AssignRetried implements core.DeliveryObserver.
func (p *PlaneCounters) AssignRetried(time.Duration, overlay.NodeID, job.UUID, int) {
	p.count(func(c *PlaneCounts) { c.Faults.Retried++ })
}

// AssignRecovered implements core.DeliveryObserver.
func (p *PlaneCounters) AssignRecovered(time.Duration, overlay.NodeID, job.UUID) {
	p.count(func(c *PlaneCounts) { c.Faults.Recovered++ })
}

// PeerSuspected implements core.MembershipObserver.
func (p *PlaneCounters) PeerSuspected(time.Duration, overlay.NodeID, overlay.NodeID) {
	p.count(func(c *PlaneCounts) { c.Membership.Suspected++ })
}

// PeerRefuted implements core.MembershipObserver.
func (p *PlaneCounters) PeerRefuted(time.Duration, overlay.NodeID, overlay.NodeID) {
	p.count(func(c *PlaneCounts) { c.Membership.Refuted++ })
}

// PeerDead implements core.MembershipObserver.
func (p *PlaneCounters) PeerDead(time.Duration, overlay.NodeID, overlay.NodeID) {
	p.count(func(c *PlaneCounts) { c.Membership.Dead++ })
}

// LinkRepaired implements core.MembershipObserver.
func (p *PlaneCounters) LinkRepaired(time.Duration, overlay.NodeID, overlay.NodeID, overlay.NodeID) {
	p.count(func(c *PlaneCounts) { c.Membership.Repaired++ })
}

// FloodEscalated implements core.MembershipObserver.
func (p *PlaneCounters) FloodEscalated(time.Duration, overlay.NodeID, job.UUID, int, int) {
	p.count(func(c *PlaneCounts) { c.Membership.ReFloods++ })
}

// NodeRecovered implements core.RecoveryObserver: one journaled node rebuilt
// its scheduler state after a restart.
func (p *PlaneCounters) NodeRecovered(_ time.Duration, _ overlay.NodeID, jobsRecovered, replayRecords int, snapshotAge time.Duration) {
	p.count(func(c *PlaneCounts) {
		c.Recovery.JobsRecovered += jobsRecovered
		c.Recovery.ReplayRecords += replayRecords
		c.Recovery.MaxSnapshotAge = max(c.Recovery.MaxSnapshotAge, snapshotAge)
	})
}

// DirectoryHit implements core.DirectoryObserver: one discovery round went
// directed, sending probes targeted REQUESTs instead of a flood. Probes are
// counted here, at the initiator, because on the wire a directed REQUEST is
// indistinguishable from a flood copy.
func (p *PlaneCounters) DirectoryHit(_ time.Duration, _ overlay.NodeID, _ job.UUID, probes int) {
	p.count(func(c *PlaneCounts) {
		c.Directory.Hits++
		c.Directory.Probes += probes
	})
}

// DirectoryMiss implements core.DirectoryObserver.
func (p *PlaneCounters) DirectoryMiss(time.Duration, overlay.NodeID, job.UUID) {
	p.count(func(c *PlaneCounts) { c.Directory.Misses++ })
}

// DirectoryFallback implements core.DirectoryObserver.
func (p *PlaneCounters) DirectoryFallback(time.Duration, overlay.NodeID, job.UUID, int) {
	p.count(func(c *PlaneCounts) { c.Directory.Fallbacks++ })
}

// DirectoryEvicted implements core.DirectoryObserver, counting cache
// evictions by reason.
func (p *PlaneCounters) DirectoryEvicted(_ time.Duration, _, _ overlay.NodeID, reason string) {
	p.count(func(c *PlaneCounts) { c.Directory.Evictions = bump(c.Directory.Evictions, reason) })
}

// RequestShed implements core.OverloadObserver.
func (p *PlaneCounters) RequestShed(time.Duration, overlay.NodeID, job.UUID, int) {
	p.count(func(c *PlaneCounts) { c.Overload.RequestsShed++ })
}

// AssignShed implements core.OverloadObserver.
func (p *PlaneCounters) AssignShed(time.Duration, overlay.NodeID, job.UUID, int) {
	p.count(func(c *PlaneCounts) { c.Overload.AssignsShed++ })
}

// ShedRedispatched implements core.OverloadObserver.
func (p *PlaneCounters) ShedRedispatched(_ time.Duration, _ overlay.NodeID, _ job.UUID, reflooded bool) {
	p.count(func(c *PlaneCounts) {
		if reflooded {
			c.Overload.Reflooded++
		} else {
			c.Overload.Reenqueued++
		}
	})
}

// PeerBusy implements core.OverloadObserver.
func (p *PlaneCounters) PeerBusy(time.Duration, overlay.NodeID, overlay.NodeID) {
	p.count(func(c *PlaneCounts) { c.Overload.PeersBusy++ })
}

// SubmitRejected implements core.OverloadObserver.
func (p *PlaneCounters) SubmitRejected(time.Duration, overlay.NodeID, job.UUID, int) {
	p.count(func(c *PlaneCounts) { c.Overload.SubmitRejections++ })
}

// CommitSent implements core.SharedStateObserver.
func (p *PlaneCounters) CommitSent(time.Duration, overlay.NodeID, job.UUID, overlay.NodeID, int) {
	p.count(func(c *PlaneCounts) { c.SharedState.Commits++ })
}

// CommitConflict implements core.SharedStateObserver, counting failed
// commit attempts by reason (busy, stale, lost, timeout).
func (p *PlaneCounters) CommitConflict(_ time.Duration, _ overlay.NodeID, _ job.UUID, _ overlay.NodeID, reason string, _ int) {
	p.count(func(c *PlaneCounts) { c.SharedState.Conflicts = bump(c.SharedState.Conflicts, reason) })
}

// CommitGranted implements core.SharedStateObserver.
func (p *PlaneCounters) CommitGranted(_ time.Duration, _ overlay.NodeID, _ job.UUID, _ overlay.NodeID, attempts int) {
	p.count(func(c *PlaneCounts) {
		c.SharedState.Granted++
		c.SharedState.GrantAttempts += attempts
	})
}

// CommitFallback implements core.SharedStateObserver.
func (p *PlaneCounters) CommitFallback(time.Duration, overlay.NodeID, job.UUID, int) {
	p.count(func(c *PlaneCounts) { c.SharedState.Fallbacks++ })
}
