package aria_test

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	aria "github.com/smartgrid/aria"
)

// TestRootTestsUsePublicSurface keeps this package's tests, its Examples
// above all, written as code outside the module could write them: they may
// import the root package and the standard library, and nothing else.
func TestRootTestsUsePublicSurface(t *testing.T) {
	files, err := filepath.Glob("*_test.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no test files found (%v)", err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			first, _, _ := strings.Cut(path, "/")
			if path != "github.com/smartgrid/aria" && strings.Contains(first, ".") {
				t.Errorf("%s imports %s; root tests may use only the aria package and the standard library", name, path)
			}
		}
	}
}

func TestDefaultConfigValid(t *testing.T) {
	cfg := aria.DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if cfg.RequestTTL != 9 || cfg.RequestFanout != 4 {
		t.Fatalf("REQUEST flood params %d/%d, want paper's 9/4", cfg.RequestTTL, cfg.RequestFanout)
	}
	if cfg.InformTTL != 8 || cfg.InformFanout != 2 {
		t.Fatalf("INFORM flood params %d/%d, want paper's 8/2", cfg.InformTTL, cfg.InformFanout)
	}
	if cfg.InformJobs != 2 || cfg.InformInterval != 5*time.Minute {
		t.Fatal("INFORM rate differs from the paper baseline")
	}
	if cfg.RescheduleThreshold != 3*time.Minute {
		t.Fatal("reschedule threshold differs from the paper baseline")
	}
}

func TestScenariosCatalog(t *testing.T) {
	if got := len(aria.Scenarios()); got != 26 {
		t.Fatalf("Scenarios() = %d entries, want 26", got)
	}
}

func TestNewSimGridEndToEnd(t *testing.T) {
	grid, err := aria.NewSimGrid(20, 5)
	if err != nil {
		t.Fatal(err)
	}
	profile := aria.NodeProfile{
		Arch: aria.ArchAMD64, OS: aria.OSLinux,
		MemoryGB: 8, DiskGB: 8, PerfIndex: 1.5,
	}
	cfg := aria.DefaultConfig()
	var nodes []*aria.Node
	for _, id := range grid.Graph().Nodes() {
		n, err := grid.AddNode(id, profile, aria.FCFS, cfg, nil, aria.DefaultARTModel())
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	grid.StartAll()

	p := aria.JobProfile{
		UUID: "0123456789abcdef0123456789abcdef",
		Req: aria.JobRequirements{
			Arch: aria.ArchAMD64, OS: aria.OSLinux,
			MinMemoryGB: 1, MinDiskGB: 1,
		},
		ERT:   time.Hour,
		Class: aria.ClassBatch,
	}
	if err := nodes[0].Submit(p); err != nil {
		t.Fatal(err)
	}
	grid.Engine().Run(6 * time.Hour)
	busy := 0
	for _, n := range nodes {
		if !n.Idle() {
			busy++
		}
	}
	if busy != 0 {
		t.Fatalf("%d nodes still busy after 6h for a 1h job", busy)
	}
}

func TestNewSimGridRejectsZero(t *testing.T) {
	if _, err := aria.NewSimGrid(0, 1); err == nil {
		t.Fatal("NewSimGrid(0) succeeded")
	}
}

func TestRunScenarioFacade(t *testing.T) {
	res, err := aria.RunScenario("Mixed", 0.03, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 || res.Completed != res.Submitted {
		t.Fatalf("completed %d of %d", res.Completed, res.Submitted)
	}
	if _, err := aria.RunScenario("nope", 1.0, 0); err == nil {
		t.Fatal("RunScenario accepted unknown scenario")
	}
}
