package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/smartgrid/aria/internal/metrics"
	"github.com/smartgrid/aria/internal/scenario"
	"github.com/smartgrid/aria/internal/swf"
	"github.com/smartgrid/aria/internal/trace"
)

func TestListCatalog(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-list"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{"FCFS", "iMixed", "iInform30m", "iAccuracyBad"} {
		if !strings.Contains(out, name) {
			t.Fatalf("catalog listing missing %s:\n%s", name, out)
		}
	}
}

func TestRunSmallScenarioText(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-scenario", "Mixed", "-scale", "0.03"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"scenario Mixed run 0", "jobs:", "traffic:", "overhead:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTSV(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-scenario", "Mixed", "-scale", "0.03", "-tsv"}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("TSV lines = %d, want header + 1 row", len(lines))
	}
	if !strings.HasPrefix(lines[0], "scenario\trun_seed") {
		t.Fatalf("TSV header wrong: %q", lines[0])
	}
	if fields := strings.Split(lines[1], "\t"); len(fields) != 13 {
		t.Fatalf("TSV row has %d fields, want 13", len(fields))
	}
}

func TestRunAggregateOverRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-scenario", "Mixed", "-scale", "0.03", "-runs", "2"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "aggregate over 2 runs") {
		t.Fatalf("missing aggregate block:\n%s", buf.String())
	}
}

func TestRunBaseline(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-scenario", "Mixed", "-scale", "0.03", "-baseline", "centralized"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Mixed+centralized") {
		t.Fatalf("baseline label missing:\n%s", buf.String())
	}
}

func TestRunSWFReplay(t *testing.T) {
	var buf bytes.Buffer
	sample := filepath.Join("..", "..", "internal", "swf", "testdata", "sample.swf")
	if err := run(&buf, []string{"-scenario", "iMixed", "-scale", "0.03", "-swf", sample}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "iMixed+swf") {
		t.Fatalf("trace replay label missing:\n%s", buf.String())
	}
}

// TestSWFReplayAccountsEverySubmission replays the sample trace under churn:
// every converted job is submitted, lost or shed, none dropped unseen.
func TestSWFReplayAccountsEverySubmission(t *testing.T) {
	sample := filepath.Join("..", "..", "internal", "swf", "testdata", "sample.swf")
	f, err := os.Open(sample)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := swf.Parse(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := swf.Convert(tr, rand.New(rand.NewSource(1)), swf.ConvertOptions{SkipIncomplete: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := scenario.ByName("iChurn")
	if err != nil {
		t.Fatal(err)
	}
	results, err := replayTrace(cfg.Scaled(0.03), sample, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if got := res.Submitted + res.SubmissionsLost + res.Overload.SubmissionsShed; got != len(jobs) {
		t.Fatalf("submitted %d + lost %d + shed %d = %d, want the trace's %d jobs",
			res.Submitted, res.SubmissionsLost, res.Overload.SubmissionsShed, got, len(jobs))
	}
}

// TestTextReportShowsOverload: a run that sheds load says so in the text
// report, with a BUSY traffic row and an overload line, and its traffic
// rows account for every byte of the overhead total.
func TestTextReportShowsOverload(t *testing.T) {
	cfg, err := scenario.ByName("iOverload")
	if err != nil {
		t.Fatal(err)
	}
	_, results, err := scenario.RunN(cfg.Scaled(0.03), 1)
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	var buf bytes.Buffer
	printResult(&buf, 0, res, false)
	out := buf.String()
	if !strings.Contains(out, "\n  overload:") {
		t.Errorf("no overload line:\n%s", out)
	}
	byName := make(map[string]metrics.Traffic, len(res.Traffic))
	for typ, tr := range res.Traffic {
		byName[typ.String()] = tr
	}
	rows, sum := map[string]bool{}, int64(0)
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 || fields[0] != "traffic:" {
			continue
		}
		tr, ok := byName[fields[1]]
		if !ok || rows[fields[1]] {
			t.Fatalf("traffic row %q names no traffic of the run, or repeats", line)
		}
		rows[fields[1]] = true
		sum += tr.Bytes
	}
	if !rows["BUSY"] {
		t.Errorf("no BUSY traffic row:\n%s", out)
	}
	if sum != res.TotalBytes {
		t.Errorf("traffic rows sum to %d bytes, overhead total is %d:\n%s", sum, res.TotalBytes, out)
	}
}

// TestTracedTSVFailsOnViolations: -trace -tsv prints the table and still
// fails when an audit found a violation.
func TestTracedTSVFailsOnViolations(t *testing.T) {
	results := []*metrics.Result{{Scenario: "iMixed"}}
	reps := []trace.Report{{Violations: []trace.Violation{{Invariant: "exactly-one-complete"}}}}
	var buf bytes.Buffer
	if err := printTraced(&buf, results, reps, true, false); err == nil {
		t.Fatal("a violation passed through the TSV path")
	}
	if !strings.HasPrefix(buf.String(), "scenario\trun_seed") {
		t.Fatalf("TSV not printed:\n%s", buf.String())
	}
}

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{"unknown scenario", []string{"-scenario", "nope"}},
		{"bad scale", []string{"-scenario", "Mixed", "-scale", "7"}},
		{"bad baseline", []string{"-scenario", "Mixed", "-baseline", "oracle"}},
		{"swf plus baseline", []string{"-scenario", "Mixed", "-swf", "x.swf", "-baseline", "random"}},
		{"missing swf file", []string{"-scenario", "Mixed", "-swf", "/does/not/exist.swf"}},
		{"bad flag", []string{"-definitely-not-a-flag"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, tt.args); err == nil {
				t.Fatalf("run(%v) succeeded", tt.args)
			}
		})
	}
}

func TestRunDOTExport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "overlay.dot")
	var buf bytes.Buffer
	if err := run(&buf, []string{"-scenario", "Mixed", "-scale", "0.03", "-dot", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "graph \"Mixed\"") || !strings.Contains(string(data), "--") {
		t.Fatalf("DOT content wrong:\n%.200s", data)
	}
}

func TestProtocolFlagArmsPlane(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-scenario", "iMixed", "-scale", "0.03", "-directed-candidates", "3"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "directory:") {
		t.Fatalf("-directed-candidates did not arm the directory:\n%s", buf.String())
	}
}

func TestSweepInformJobs(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, []string{"-sweep", "inform-jobs=1,2", "-scale", "0.03"})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "sweep of inform-jobs") {
		t.Fatalf("missing header:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// header block (2 lines + blank) + one row per value.
	var rows int
	for _, line := range lines {
		if strings.HasPrefix(line, "1 ") || strings.HasPrefix(line, "2 ") {
			rows++
		}
	}
	if rows != 2 {
		t.Fatalf("rows = %d, want 2:\n%s", rows, out)
	}
}

func TestSweepDurationParam(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, []string{"-sweep", "threshold=1m,30m", "-scale", "0.03"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "30m") {
		t.Fatalf("missing value row:\n%s", buf.String())
	}
}

// TestSweepParamCatalog: every knob the sweep tool used to offer is still
// sweepable by the same name.
func TestSweepParamCatalog(t *testing.T) {
	for _, spec := range []string{
		"inform-interval=2m", "inform-jobs=1", "threshold=1m",
		"request-fanout=2", "request-ttl=5", "accept-timeout=1s",
	} {
		var buf bytes.Buffer
		if err := run(&buf, []string{"-sweep", spec, "-scale", "0.03"}); err != nil {
			t.Errorf("-sweep %s: %v", spec, err)
		}
	}
}

func TestSweepErrors(t *testing.T) {
	tests := [][]string{
		{"-sweep", "nope=1"},
		{"-sweep", "inform-jobs"},                               // no values
		{"-sweep", "inform-jobs=x"},                             // unparsable
		{"-sweep", "inform-jobs=1", "-scenario", "missing"},     // bad scenario
		{"-sweep", "inform-jobs=1", "-scale", "9"},              // bad scale
		{"-sweep", "request-ttl=0"},                             // invalid config
		{"-sweep", "inform-interval=1m", "-definitely-not"},     // bad flag
		{"-sweep", "inform-jobs=1", "-baseline", "centralized"}, // not a sweep of ARiA
		{"-sweep", "scale=0.1"},                                 // not a protocol flag
	}
	for _, args := range tests {
		var buf bytes.Buffer
		if err := run(&buf, args); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}
