package scenario

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
	"time"
)

// eventLogRun executes one scenario repetition with the kernel's event log
// on and returns the serialized log plus the completion count.
func eventLogRun(t *testing.T, c Config, run int) ([]byte, int) {
	t.Helper()
	c.EventLog = true
	d, err := Prepare(c, run)
	if err != nil {
		t.Fatal(err)
	}
	d.ScheduleSubmissions(ARiASubmit)
	res := d.Finish()
	return d.Engine.EventLogBytes(), res.Completed
}

// TestShardedScenarioDeterminism is the protocol-level determinism property:
// every executed event — its lane, instant and sequence number — is a pure
// function of the seed. The digests pin the event log of run 0 of each
// scenario, so a change that was meant to move no event (a refactor, a
// cheaper data structure) is proven to move none. A change that reorders
// events on purpose — a new RNG draw, a new message, a different tie-break —
// re-pins the digests and says why in its description.
func TestShardedScenarioDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism check is not short")
	}
	pinned := []struct{ name, digest string }{
		{"iMixed", "892daf361a4b02fc1848cbc4dfe777b3d226a9211c6da7ea800dcd23a3f99dcb"},         // flood discovery + rescheduling
		{"iMixed-sites10", "3a9a2e72a5c80b63860bb6134139e02abae432d8239470aa337699ea7e32f402"}, // site latency model
		{"iLossy", "5ee9adb44f61e116a557f76a3534fa38f5a18c3d40eec603b1bd6b690976a687"},         // keyed drop/duplication/jitter draws
		{"iDirected", "ec6e1730af836410ca5127b0278696709a0184970d64a4829646c69016325d9a"},      // directory gossip + directed probes
		{"iSharedState", "6ea2041a5e16cefff0c3dd302e920eda491d1ef8b5fc55edc4dbc8894f320944"},   // optimistic commits against the gossip-fed view
	}
	for _, p := range pinned {
		p := p
		t.Run(p.name, func(t *testing.T) {
			c := smallScenario(t, p.name)
			log, completed := eventLogRun(t, c, 0)
			if completed == 0 {
				t.Fatal("run completed no jobs")
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(log)); got != p.digest {
				t.Errorf("event log digest %s, pinned %s (%d bytes)", got, p.digest, len(log))
			}
			again, completedAgain := eventLogRun(t, c, 0)
			if completedAgain != completed || !bytes.Equal(log, again) {
				t.Errorf("replay diverged: completed %d vs %d, log %d vs %d bytes",
					completedAgain, completed, len(again), len(log))
			}
		})
	}
}

// TestShardedSeedSensitivity guards the oracle itself: different seeds must
// yield different logs, or byte-equality above would be vacuous.
func TestShardedSeedSensitivity(t *testing.T) {
	c := smallScenario(t, "iMixed")
	a, _ := eventLogRun(t, c, 0) // the run index varies the seed
	b, _ := eventLogRun(t, c, 1)
	if bytes.Equal(a, b) {
		t.Fatal("different run seeds produced identical event logs")
	}
}

// TestShardedMatchesOwnReplay: same seed, same configuration, run twice —
// the basic reproducibility contract, checked on the scenarios that
// exercise the correctness planes under churn: corpses and overlay repair,
// crash-restart with journal replay, shared-state commits, and overload
// shedding. Kills, restarts and link surgery happen mid-flight, with probe
// traffic in the air, so these are the runs most likely to expose hidden
// order dependence.
func TestShardedMatchesOwnReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism check is not short")
	}
	for _, name := range []string{"iChurnHeal", "iCrashRestart", "iSharedStateChurn", "iOverloadChurn"} {
		name := name
		t.Run(name, func(t *testing.T) {
			c := smallScenario(t, name)
			// The three kills land at 0:30–0:34 at this scale; four hours
			// cover them and the job tail without hours of idle probe rounds.
			c.Horizon = 4 * time.Hour
			a, ca := eventLogRun(t, c, 0)
			b, cb := eventLogRun(t, c, 0)
			if ca == 0 {
				t.Fatal("run completed no jobs")
			}
			if ca != cb || !bytes.Equal(a, b) {
				t.Fatalf("replay diverged: completed %d vs %d, log %d vs %d bytes", ca, cb, len(a), len(b))
			}
		})
	}
}
