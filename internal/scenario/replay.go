package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/smartgrid/aria/internal/swf"
)

// SyntheticTrace builds a deterministic SWF-shaped workload of n jobs:
// submissions uniform over the first hour, runtimes of 10-60 minutes with
// generous requested-time headroom. The same (n, seed) always yields the
// same trace — the scale benchmarks and determinism tests replay it so
// their workloads are comparable across runs and commits.
func SyntheticTrace(n int, seed int64) *swf.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &swf.Trace{}
	for i := 0; i < n; i++ {
		tr.Jobs = append(tr.Jobs, swf.Job{
			Number:  i + 1,
			Submit:  time.Duration(rng.Intn(3600)) * time.Second,
			Run:     time.Duration(600+rng.Intn(3000)) * time.Second,
			ReqTime: time.Duration(3600+rng.Intn(7200)) * time.Second,
			Status:  1,
		})
	}
	return tr
}

// ReplaySWF converts tr against the deployment's host profiles and arms one
// submission event per runnable job (the ARiASubmit path: a uniformly random
// living initiator). Returns the number of jobs scheduled. Call between
// Prepare and Finish.
func ReplaySWF(d *Deployment, tr *swf.Trace) (int, error) {
	jobs, err := swf.Convert(tr, rand.New(rand.NewSource(d.Seed+11)), swf.ConvertOptions{
		Hosts: d.Profiles,
	})
	if err != nil {
		return 0, fmt.Errorf("replay %s: %w", d.Config.Name, err)
	}
	for _, p := range jobs {
		p := p
		d.Engine.ScheduleAt(p.SubmittedAt, func() { ARiASubmit(d, p.SubmittedAt, p) })
	}
	return len(jobs), nil
}
