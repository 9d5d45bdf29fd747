package job

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/smartgrid/aria/internal/resource"
)

func validReq() resource.Requirements {
	return resource.Requirements{
		Arch: resource.ArchAMD64, OS: resource.OSLinux, MinMemoryGB: 2, MinDiskGB: 2,
	}
}

func batchProfile(rng *rand.Rand) Profile {
	return Profile{
		UUID:  NewUUID(rng),
		Req:   validReq(),
		ERT:   2 * time.Hour,
		Class: ClassBatch,
	}
}

func TestUUIDProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := make(map[UUID]bool)
	for i := 0; i < 1000; i++ {
		u := NewUUID(rng)
		if !u.Valid() {
			t.Fatalf("generated invalid UUID %q", u)
		}
		if seen[u] {
			t.Fatalf("duplicate UUID %q after %d draws", u, i)
		}
		seen[u] = true
	}
}

func TestUUIDValidRejects(t *testing.T) {
	tests := []struct {
		give UUID
		want bool
	}{
		{"", false},
		{"abc", false},
		{"zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz", false},
		{"0123456789abcdef0123456789abcdef", true},
		// Upper case would not survive the wire's 16 raw bytes unchanged.
		{"0123456789ABCDEF0123456789abcdef", false},
	}
	for _, tt := range tests {
		if got := tt.give.Valid(); got != tt.want {
			t.Errorf("UUID(%q).Valid() = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestUUIDShort(t *testing.T) {
	u := UUID("0123456789abcdef0123456789abcdef")
	if u.Short() != "01234567" {
		t.Fatalf("Short() = %q", u.Short())
	}
	if UUID("ab").Short() != "ab" {
		t.Fatal("Short() on tiny uuid should return it unchanged")
	}
}

func TestUUIDDeterminism(t *testing.T) {
	a := NewUUID(rand.New(rand.NewSource(9)))
	b := NewUUID(rand.New(rand.NewSource(9)))
	if a != b {
		t.Fatalf("same seed produced different UUIDs %q %q", a, b)
	}
}

func TestProfileValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := batchProfile(rng)
	if err := p.Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Profile)
	}{
		{"bad uuid", func(p *Profile) { p.UUID = "nope" }},
		{"zero ert", func(p *Profile) { p.ERT = 0 }},
		{"bad class", func(p *Profile) { p.Class = 0 }},
		{"deadline class without deadline", func(p *Profile) { p.Class = ClassDeadline; p.Deadline = 0 }},
		{"batch with deadline", func(p *Profile) { p.Deadline = time.Hour }},
		{"bad requirements", func(p *Profile) { p.Req.MinMemoryGB = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			bad := batchProfile(rng)
			tt.mutate(&bad)
			if err := bad.Validate(); err == nil {
				t.Fatalf("Validate accepted %+v", bad)
			}
		})
	}
}

func TestERTOn(t *testing.T) {
	p := Profile{ERT: 2 * time.Hour}
	if got := p.ERTOn(2); got != time.Hour {
		t.Fatalf("ERTOn(2) = %v, want 1h", got)
	}
	if got := p.ERTOn(1); got != 2*time.Hour {
		t.Fatalf("ERTOn(1) = %v, want 2h", got)
	}
	if got := p.ERTOn(0); got != 2*time.Hour {
		t.Fatalf("ERTOn(0) = %v, want fallback to ERT", got)
	}
}

func TestJobLifecycleAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := batchProfile(rng)
	p.SubmittedAt = 10 * time.Minute
	j := New(p)
	if j.State != StateSubmitted {
		t.Fatalf("new job state %v", j.State)
	}
	if j.WaitingTime() != 0 || j.ExecutionTime() != 0 || j.CompletionTime() != 0 {
		t.Fatal("incomplete job should report zero durations")
	}
	j.State = StateRunning
	j.StartedAt = 30 * time.Minute
	if j.WaitingTime() != 20*time.Minute {
		t.Fatalf("WaitingTime() = %v, want 20m", j.WaitingTime())
	}
	j.State = StateCompleted
	j.CompletedAt = 90 * time.Minute
	if j.ExecutionTime() != time.Hour {
		t.Fatalf("ExecutionTime() = %v, want 1h", j.ExecutionTime())
	}
	if j.CompletionTime() != 80*time.Minute {
		t.Fatalf("CompletionTime() = %v, want 80m", j.CompletionTime())
	}
}

func TestDeadlineAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := batchProfile(rng)
	p.Class = ClassDeadline
	p.Deadline = 2 * time.Hour
	j := New(p)
	j.State = StateCompleted
	j.StartedAt = 30 * time.Minute
	j.CompletedAt = 90 * time.Minute
	if j.MissedDeadline() {
		t.Fatal("job completed before deadline reported as missed")
	}
	if j.Lateness() != 30*time.Minute {
		t.Fatalf("Lateness() = %v, want 30m", j.Lateness())
	}
	j.CompletedAt = 3 * time.Hour
	if !j.MissedDeadline() {
		t.Fatal("late job not reported as missed")
	}
	if j.Lateness() != -time.Hour {
		t.Fatalf("Lateness() = %v, want -1h", j.Lateness())
	}
}

func TestARTModelValidate(t *testing.T) {
	tests := []struct {
		name    string
		give    ARTModel
		wantErr bool
	}{
		{"default", DefaultARTModel(), false},
		{"precise", ARTModel{Mode: DriftNone}, false},
		{"optimistic", ARTModel{Mode: DriftOptimistic, Epsilon: 0.1}, false},
		{"negative epsilon", ARTModel{Mode: DriftSymmetric, Epsilon: -0.1}, true},
		{"huge epsilon", ARTModel{Mode: DriftSymmetric, Epsilon: 1.5}, true},
		{"bad mode", ARTModel{Mode: 0}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.give.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestARTPrecise(t *testing.T) {
	m := ARTModel{Mode: DriftNone}
	rng := rand.New(rand.NewSource(5))
	if got := m.ART(2*time.Hour, 90*time.Minute, rng); got != 90*time.Minute {
		t.Fatalf("precise ART = %v, want exactly ERTp", got)
	}
}

func TestARTSymmetricBounds(t *testing.T) {
	m := ARTModel{Mode: DriftSymmetric, Epsilon: 0.25}
	rng := rand.New(rand.NewSource(6))
	ert := 2 * time.Hour
	ertp := 90 * time.Minute
	lo := ertp - time.Duration(0.25*float64(ert))
	hi := ertp + time.Duration(0.25*float64(ert))
	sawBelow, sawAbove := false, false
	for i := 0; i < 5000; i++ {
		art := m.ART(ert, ertp, rng)
		if art < lo || art > hi {
			t.Fatalf("ART %v outside [%v, %v]", art, lo, hi)
		}
		if art < ertp {
			sawBelow = true
		}
		if art > ertp {
			sawAbove = true
		}
	}
	if !sawBelow || !sawAbove {
		t.Fatal("symmetric drift never produced both signs")
	}
}

func TestARTOptimisticNeverBelowEstimate(t *testing.T) {
	m := ARTModel{Mode: DriftOptimistic, Epsilon: 0.1}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		if art := m.ART(2*time.Hour, 90*time.Minute, rng); art < 90*time.Minute {
			t.Fatalf("optimistic ART %v below estimate", art)
		}
	}
}

func TestARTClampPositive(t *testing.T) {
	m := ARTModel{Mode: DriftSymmetric, Epsilon: 1.0}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 2000; i++ {
		if art := m.ART(time.Hour, time.Millisecond, rng); art <= 0 {
			t.Fatalf("ART %v not positive", art)
		}
	}
}

// Property: symmetric ART is always within ±ε·ERT of ERTp (modulo the
// positive clamp), for random inputs.
func TestPropertyARTWithinDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	f := func(ertMinutes, ertpMinutes uint16, epsPct uint8) bool {
		ert := time.Duration(int(ertMinutes)%480+60) * time.Minute
		ertp := time.Duration(int(ertpMinutes)%480+30) * time.Minute
		eps := float64(epsPct%101) / 100
		m := ARTModel{Mode: DriftSymmetric, Epsilon: eps}
		art := m.ART(ert, ertp, rng)
		maxDrift := time.Duration(eps * float64(ert))
		return art >= ertp-maxDrift-time.Millisecond && art <= ertp+maxDrift+time.Millisecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestStringers(t *testing.T) {
	tests := []struct {
		give fmt.Stringer
		want string
	}{
		{ClassBatch, "batch"},
		{ClassDeadline, "deadline"},
		{Class(9), "Class(9)"},
		{StateSubmitted, "submitted"},
		{StateQueued, "queued"},
		{StateRunning, "running"},
		{StateCompleted, "completed"},
		{StateFailed, "failed"},
		{State(9), "State(9)"},
		{DriftSymmetric, "symmetric"},
		{DriftOptimistic, "optimistic"},
		{DriftNone, "none"},
		{DriftMode(9), "DriftMode(9)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}
