package scenario

import (
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/metrics"
)

// directoryOff strips the directed-discovery plane from a config, leaving
// everything else (membership, churn, workload) identical — the flood-only
// control arm. The name is deliberately kept: runSeed hashes it, and the
// two arms must draw the same topology, profiles, and workload.
func directoryOff(c Config) Config {
	c.Protocol.DirectedCandidates = 0
	c.Protocol.MinDirectedOffers = 0
	c.Protocol.DirectoryCapacity = 0
	c.Protocol.DirectoryTTL = 0
	c.Protocol.DirectoryGossip = 0
	return c
}

func requestsPerJob(t *testing.T, res *metrics.Result) float64 {
	t.Helper()
	if res.Completed == 0 {
		t.Fatal("no completed jobs; msgs/job undefined")
	}
	return float64(res.Traffic[core.MsgRequest].Count) / float64(res.Completed)
}

// TestDirectedDiscoveryCutsRequestTraffic is directed discovery's acceptance
// gate: on the baseline workload it must cut REQUEST transmissions per
// completed job by at least 40% against the identical flood-only run, at
// every seed, without losing completions. Mean completion time must not
// degrade either; it is judged over the jobs of all three seeds, since one
// 60-job run can swing by more than the slack on a single reshuffled tie.
func TestDirectedDiscoveryCutsRequestTraffic(t *testing.T) {
	c := smallScenario(t, "iDirected")
	var dirTotal, floodTotal time.Duration
	var dirJobs, floodJobs int
	for _, seed := range []int{0, 1, 2} {
		directed, err := Run(c, seed)
		if err != nil {
			t.Fatal(err)
		}
		flood, err := Run(directoryOff(c), seed)
		if err != nil {
			t.Fatal(err)
		}
		dirReq, floodReq := requestsPerJob(t, directed), requestsPerJob(t, flood)
		if dirReq > 0.6*floodReq {
			t.Errorf("seed %d: %.1f REQUEST msgs/job directed vs %.1f flood-only; want ≥40%% reduction",
				seed, dirReq, floodReq)
		}
		if directed.Completed < flood.Completed {
			t.Errorf("seed %d: directed completed %d < flood-only %d",
				seed, directed.Completed, flood.Completed)
		}
		dirTotal += directed.AvgCompletion * time.Duration(directed.Completed)
		floodTotal += flood.AvgCompletion * time.Duration(flood.Completed)
		dirJobs += directed.Completed
		floodJobs += flood.Completed
		if !directed.Directory.Any() {
			t.Errorf("seed %d: directed run recorded no directory activity", seed)
		}
		if flood.Directory.Any() {
			t.Errorf("seed %d: flood-only run recorded directory activity: %+v", seed, flood.Directory)
		}
	}
	// Placement quality: directed probes draw from the same cost functions,
	// so the schedule must not degrade. Allow 5% jitter — a different
	// candidate order legitimately reshuffles ties.
	dirMean, floodMean := dirTotal/time.Duration(dirJobs), floodTotal/time.Duration(floodJobs)
	t.Logf("pooled mean completion over 3 seeds: directed %v, flood-only %v", dirMean, floodMean)
	if float64(dirMean) > 1.05*float64(floodMean) {
		t.Errorf("pooled directed mean completion %v vs flood-only %v; want no worse (5%% slack)",
			dirMean, floodMean)
	}
}

// TestDirectedDirectoryCounters pins that the directory's work surfaces in
// the metrics result the report layer aggregates.
func TestDirectedDirectoryCounters(t *testing.T) {
	c := smallScenario(t, "iDirected")
	res, err := Run(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Directory.Hits == 0 {
		t.Error("no directed rounds despite a warm gossip plane")
	}
	if res.Directory.Probes < res.Directory.Hits {
		t.Errorf("probes %d < hits %d: every directed round sends at least one probe",
			res.Directory.Probes, res.Directory.Hits)
	}
	if res.MsgsPerJob[core.MsgRequest] <= 0 {
		t.Error("REQUEST msgs/job normalization missing from the result")
	}
}
