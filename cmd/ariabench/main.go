// Command ariabench measures simulation-kernel throughput on synthetic SWF
// replays at 2k, 10k and 100k nodes and records the results in
// BENCH_sim.json.
//
// Each case re-execs this binary as a fresh child process so peak RSS
// (VmHWM from /proc/self/status) reflects that case alone rather than the
// high-water mark of whichever case ran first.
//
//	go run ./cmd/ariabench -out BENCH_sim.json          # full sweep
//	go run ./cmd/ariabench -quick -out BENCH_sim.ci.json  # skip 100k
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/smartgrid/aria/internal/scenario"
)

type benchCase struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`
	Jobs  int    `json:"jobs"`
}

var cases = []benchCase{
	{"2k", 2000, 1000},
	{"10k", 10000, 5000},
	{"100k", 100000, 1000},
}

type caseResult struct {
	benchCase
	GoMaxProcs   int     `json:"gomaxprocs"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	WallSeconds  float64 `json:"wall_seconds"`
	PeakRSSBytes int64   `json:"peak_rss_bytes"`
	Completed    int     `json:"completed"`
	Submitted    int     `json:"submitted"`
}

type report struct {
	Generated string       `json:"generated"`
	GoVersion string       `json:"go_version"`
	GOOS      string       `json:"goos"`
	GOARCH    string       `json:"goarch"`
	CPUs      int          `json:"cpus"`
	Cases     []caseResult `json:"cases"`
}

func main() {
	runCase := flag.String("run-case", "", "internal: run one named case and print its JSON result")
	out := flag.String("out", "BENCH_sim.json", "output path for the benchmark report")
	quick := flag.Bool("quick", false, "skip the 100k case")
	flag.Parse()

	if *runCase != "" {
		for _, c := range cases {
			if c.Name == *runCase {
				res, err := execute(c)
				if err != nil {
					fmt.Fprintf(os.Stderr, "ariabench %s: %v\n", c.Name, err)
					os.Exit(1)
				}
				json.NewEncoder(os.Stdout).Encode(res)
				return
			}
		}
		fmt.Fprintf(os.Stderr, "ariabench: unknown case %q\n", *runCase)
		os.Exit(1)
	}

	rep := report{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
	}
	for _, c := range cases {
		if *quick && c.Nodes > 10000 {
			continue
		}
		fmt.Fprintf(os.Stderr, "running %s (%d nodes, %d jobs)...\n", c.Name, c.Nodes, c.Jobs)
		res, err := runChild(c.Name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ariabench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "  %.0f ev/s, %.1fs wall, %.0f MB peak RSS\n",
			res.EventsPerSec, res.WallSeconds, float64(res.PeakRSSBytes)/(1<<20))
		rep.Cases = append(rep.Cases, res)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "ariabench: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "ariabench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d cases)\n", *out, len(rep.Cases))
}

// runChild re-execs this binary for one case so /proc/self/status VmHWM in
// the child reflects only that case's allocations.
func runChild(name string) (caseResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return caseResult{}, err
	}
	cmd := exec.Command(exe, "-run-case", name)
	cmd.Stderr = os.Stderr
	outBuf, err := cmd.Output()
	if err != nil {
		return caseResult{}, fmt.Errorf("case %s: %w", name, err)
	}
	var res caseResult
	if err := json.Unmarshal(outBuf, &res); err != nil {
		return caseResult{}, fmt.Errorf("case %s: parsing child output: %w", name, err)
	}
	return res, nil
}

// execute runs one replay in-process. Wall time covers event execution only
// (the Finish run), not overlay construction.
func execute(c benchCase) (caseResult, error) {
	cfg, err := scenario.ByName("iMixed")
	if err != nil {
		return caseResult{}, err
	}
	cfg.Nodes = c.Nodes
	cfg.Horizon = 3 * time.Hour
	d, err := scenario.Prepare(cfg, 0)
	if err != nil {
		return caseResult{}, err
	}
	if _, err := scenario.ReplaySWF(d, scenario.SyntheticTrace(c.Jobs, 42)); err != nil {
		return caseResult{}, err
	}
	start := time.Now()
	res := d.Finish()
	wall := time.Since(start)
	if res.Completed == 0 {
		return caseResult{}, fmt.Errorf("replay completed nothing")
	}
	events := d.Engine.Events()
	return caseResult{
		benchCase:    c,
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		Events:       events,
		EventsPerSec: float64(events) / wall.Seconds(),
		WallSeconds:  wall.Seconds(),
		PeakRSSBytes: peakRSS(),
		Completed:    res.Completed,
		Submitted:    res.Submitted,
	}, nil
}

// peakRSS reads VmHWM from /proc/self/status; 0 on platforms without it.
func peakRSS() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}
