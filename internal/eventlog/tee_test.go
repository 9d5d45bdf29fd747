package eventlog

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/sched"
)

// callLog implements every core.Observer method by recording the name of the
// method that ran. It deliberately does not embed NopObserver: a method added
// to core.Observer without a recording body here fails to compile.
type callLog struct{ calls map[string]int }

// hit records its caller's method name.
func (l *callLog) hit() {
	pc, _, _, _ := runtime.Caller(1)
	name := runtime.FuncForPC(pc).Name()
	l.calls[name[strings.LastIndexByte(name, '.')+1:]]++
}

func (l *callLog) JobSubmitted(time.Duration, overlay.NodeID, job.Profile) { l.hit() }
func (l *callLog) JobAssigned(time.Duration, job.UUID, overlay.NodeID, overlay.NodeID, sched.Cost, bool) {
	l.hit()
}
func (l *callLog) JobStarted(time.Duration, overlay.NodeID, job.UUID)               { l.hit() }
func (l *callLog) JobCompleted(time.Duration, overlay.NodeID, *job.Job)             { l.hit() }
func (l *callLog) JobFailed(time.Duration, overlay.NodeID, job.UUID, string)        { l.hit() }
func (l *callLog) AssignRetried(time.Duration, overlay.NodeID, job.UUID, int)       { l.hit() }
func (l *callLog) AssignRecovered(time.Duration, overlay.NodeID, job.UUID)          { l.hit() }
func (l *callLog) PeerSuspected(time.Duration, overlay.NodeID, overlay.NodeID)      { l.hit() }
func (l *callLog) PeerRefuted(time.Duration, overlay.NodeID, overlay.NodeID)        { l.hit() }
func (l *callLog) PeerDead(time.Duration, overlay.NodeID, overlay.NodeID)           { l.hit() }
func (l *callLog) FloodEscalated(time.Duration, overlay.NodeID, job.UUID, int, int) { l.hit() }
func (l *callLog) DirectoryHit(time.Duration, overlay.NodeID, job.UUID, int)        { l.hit() }
func (l *callLog) DirectoryMiss(time.Duration, overlay.NodeID, job.UUID)            { l.hit() }
func (l *callLog) DirectoryFallback(time.Duration, overlay.NodeID, job.UUID, int)   { l.hit() }
func (l *callLog) RequestShed(time.Duration, overlay.NodeID, job.UUID, int)         { l.hit() }
func (l *callLog) AssignShed(time.Duration, overlay.NodeID, job.UUID, int)          { l.hit() }
func (l *callLog) ShedRedispatched(time.Duration, overlay.NodeID, job.UUID, bool)   { l.hit() }
func (l *callLog) PeerBusy(time.Duration, overlay.NodeID, overlay.NodeID)           { l.hit() }
func (l *callLog) SubmitRejected(time.Duration, overlay.NodeID, job.UUID, int)      { l.hit() }
func (l *callLog) CommitSent(time.Duration, overlay.NodeID, job.UUID, overlay.NodeID, int) {
	l.hit()
}
func (l *callLog) CommitGranted(time.Duration, overlay.NodeID, job.UUID, overlay.NodeID, int) {
	l.hit()
}
func (l *callLog) CommitFallback(time.Duration, overlay.NodeID, job.UUID, int) { l.hit() }
func (l *callLog) CommitConflict(time.Duration, overlay.NodeID, job.UUID, overlay.NodeID, string, int) {
	l.hit()
}
func (l *callLog) LinkRepaired(time.Duration, overlay.NodeID, overlay.NodeID, overlay.NodeID) {
	l.hit()
}
func (l *callLog) DirectoryEvicted(time.Duration, overlay.NodeID, overlay.NodeID, string) {
	l.hit()
}
func (l *callLog) NodeRecovered(time.Duration, overlay.NodeID, int, int, time.Duration) {
	l.hit()
}

// tracingLog is a callLog that also opts into span events.
type tracingLog struct{ callLog }

func (l *tracingLog) TraceSpan(core.TraceEvent) { l.hit() }

var (
	_ core.Observer      = (*callLog)(nil)
	_ core.TraceObserver = (*tracingLog)(nil)
)

// TestTeeForwardsEveryObserverMethod calls every method of core.Observer,
// listed by reflection so the test cannot go stale, on a Tee of two members
// and checks each member saw it exactly once. TraceSpan, the one opt-in
// extension, must reach only the member that implements it.
func TestTeeForwardsEveryObserverMethod(t *testing.T) {
	plain := &callLog{calls: map[string]int{}}
	tracing := &tracingLog{callLog{calls: map[string]int{}}}
	tee := reflect.ValueOf(Tee{plain, tracing})

	methods := reflect.TypeOf((*core.Observer)(nil)).Elem()
	if methods.NumMethod() < 26 {
		t.Fatalf("core.Observer lists %d methods, want the lifecycle plus every plane group", methods.NumMethod())
	}
	for i := 0; i < methods.NumMethod(); i++ {
		m := methods.Method(i)
		args := make([]reflect.Value, m.Type.NumIn())
		for k := range args {
			args[k] = reflect.Zero(m.Type.In(k))
		}
		tee.MethodByName(m.Name).Call(args)
		for member, log := range map[string]*callLog{"plain": plain, "tracing": &tracing.callLog} {
			if got := log.calls[m.Name]; got != 1 {
				t.Errorf("Tee.%s reached the %s member %d times, want 1", m.Name, member, got)
			}
		}
	}

	Tee{plain, tracing}.TraceSpan(core.TraceEvent{})
	if got := tracing.calls["TraceSpan"]; got != 1 {
		t.Errorf("TraceSpan reached the tracing member %d times, want 1", got)
	}
	if got := plain.calls["TraceSpan"]; got != 0 {
		t.Errorf("TraceSpan reached the non-tracing member %d times, want 0", got)
	}
	if got, want := len(plain.calls), methods.NumMethod(); got != want {
		t.Errorf("plain member saw %d distinct methods, want %d: %v", got, want, plain.calls)
	}
}
