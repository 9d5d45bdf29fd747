package eventlog

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/resource"
	"github.com/smartgrid/aria/internal/sched"
)

func sampleJob() *job.Job {
	j := job.New(job.Profile{
		UUID: "0123456789abcdef0123456789abcdef",
		Req: resource.Requirements{
			Arch: resource.ArchAMD64, OS: resource.OSLinux, MinMemoryGB: 1, MinDiskGB: 1,
		},
		ERT:   time.Hour,
		Class: job.ClassBatch,
	})
	j.State = job.StateCompleted
	j.StartedAt = 30 * time.Minute
	j.CompletedAt = 90 * time.Minute
	return j
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	j := sampleJob()
	w.JobSubmitted(time.Minute, 3, j.Profile)
	w.JobAssigned(2*time.Minute, j.UUID, 3, 7, 1234, false)
	w.JobAssigned(3*time.Minute, j.UUID, 7, 9, 900, true)
	w.JobStarted(30*time.Minute, 9, j.UUID)
	w.JobCompleted(90*time.Minute, 9, j)
	w.JobFailed(91*time.Minute, 3, "deadbeefdeadbeefdeadbeefdeadbeef", "no candidate found")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []Kind{
		KindSubmitted, KindAssigned, KindRescheduled,
		KindStarted, KindCompleted, KindFailed,
	}
	if len(events) != len(wantKinds) {
		t.Fatalf("events = %d, want %d", len(events), len(wantKinds))
	}
	for i, k := range wantKinds {
		if events[i].Kind != k {
			t.Fatalf("event %d kind %s, want %s", i, events[i].Kind, k)
		}
	}
	if events[1].From != 3 || events[1].To != 7 || events[1].Cost != 1234 {
		t.Fatalf("assigned event wrong: %+v", events[1])
	}
	if events[4].WaitSec != 1800 || events[4].ExecSec != 3600 {
		t.Fatalf("completed event wrong: %+v", events[4])
	}
	if events[5].Reason != "no candidate found" {
		t.Fatalf("failed event wrong: %+v", events[5])
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("{not json}\n")); err == nil {
		t.Fatal("Read accepted garbage")
	}
	events, err := Read(strings.NewReader("\n\n"))
	if err != nil || len(events) != 0 {
		t.Fatalf("blank stream: %v %v", events, err)
	}
}

// failingWriter errors after n bytes.
type failingWriter struct{ remaining int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.remaining <= 0 {
		return 0, errors.New("disk full")
	}
	f.remaining -= len(p)
	return len(p), nil
}

func TestWriterRecordsError(t *testing.T) {
	w := NewWriter(&failingWriter{remaining: 1})
	j := sampleJob()
	for i := 0; i < 1000; i++ {
		w.JobStarted(time.Minute, 1, j.UUID)
	}
	if w.Flush() == nil {
		t.Fatal("write error never surfaced")
	}
	if w.Err() == nil {
		t.Fatal("Err() lost the error")
	}
}

func TestEventsOverlaySimulation(t *testing.T) {
	// The writer plugs in anywhere an Observer does — use one as a
	// node's observer and confirm the stream parses.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var _ sched.Policy // keep imports honest
	var _ overlay.NodeID
	j := sampleJob()
	w.JobSubmitted(0, 1, j.Profile)
	w.JobCompleted(time.Hour, 1, j)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[1].At != 3600 {
		t.Fatalf("events %+v", events)
	}
}
