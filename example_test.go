package aria_test

import (
	"fmt"
	"math/rand"
	"time"

	aria "github.com/smartgrid/aria"
)

// A minimal simulated grid: build an overlay, add nodes, submit a job, and
// run virtual time forward. The node the job is submitted to becomes its
// ARiA initiator; the protocol places it on the cheapest matching node.
func Example() {
	grid, err := aria.NewSimGrid(10, 42)
	if err != nil {
		fmt.Println("grid:", err)
		return
	}
	profile := aria.NodeProfile{
		Arch: aria.ArchAMD64, OS: aria.OSLinux,
		MemoryGB: 8, DiskGB: 8, PerfIndex: 1.5,
	}
	var first *aria.Node
	for _, id := range grid.Graph().Nodes() {
		n, err := grid.AddNode(id, profile, aria.FCFS, aria.DefaultConfig(), nil, aria.ARTModel{Mode: aria.DriftNone})
		if err != nil {
			fmt.Println("node:", err)
			return
		}
		if first == nil {
			first = n
		}
	}
	grid.StartAll()

	p := aria.JobProfile{
		UUID: "0123456789abcdef0123456789abcdef",
		Req: aria.JobRequirements{
			Arch: aria.ArchAMD64, OS: aria.OSLinux,
			MinMemoryGB: 1, MinDiskGB: 1,
		},
		ERT:   90 * time.Minute,
		Class: aria.ClassBatch,
	}
	if err := first.Submit(p); err != nil {
		fmt.Println("submit:", err)
		return
	}
	grid.Engine().Run(6 * time.Hour)

	idle := 0
	for _, n := range grid.Nodes() {
		if n.Idle() {
			idle++
		}
	}
	// The 90m job ran in 90m/1.5 = 60m on some node; everything is idle
	// again well before the 6h mark.
	fmt.Printf("grid drained: %d of 10 nodes idle\n", idle)

	// Output:
	// grid drained: 10 of 10 nodes idle
}

// Measuring a simulated grid: a Recorder observes every node's job
// lifecycle and counts every message the simulated transport carries. Thirty
// jobs land on random nodes of a 50-node grid of mixed memory, speeds and
// policies, one every ten seconds of virtual time. Each receiving node
// floods a REQUEST: nodes that can run the job answer with an ACCEPT, the
// rest relay the flood. The cheapest offer gets an ASSIGN, and INFORM floods
// advertise queued jobs to nodes that could start them sooner.
func ExampleRecorder() {
	const seed = 42
	grid, err := aria.NewSimGrid(50, seed)
	if err != nil {
		fmt.Println("grid:", err)
		return
	}
	rec := aria.NewRecorder()
	grid.SetTraffic(rec.OnMessage)
	for i, id := range grid.Graph().Nodes() {
		profile := aria.NodeProfile{
			Arch: aria.ArchAMD64, OS: aria.OSLinux,
			MemoryGB: 2 << (i % 4), DiskGB: 16, PerfIndex: 1 + float64(i%10)/10,
		}
		policy := aria.FCFS
		if i%2 == 1 {
			policy = aria.SJF
		}
		if _, err := grid.AddNode(id, profile, policy, aria.DefaultConfig(), rec, aria.DefaultARTModel()); err != nil {
			fmt.Println("node:", err)
			return
		}
	}
	grid.StartAll()

	rng := rand.New(rand.NewSource(seed))
	nodes := grid.Nodes()
	for i := range 30 {
		target := nodes[rng.Intn(len(nodes))]
		p := aria.JobProfile{
			UUID: aria.NewUUID(rng),
			Req: aria.JobRequirements{
				Arch: aria.ArchAMD64, OS: aria.OSLinux,
				MinMemoryGB: 1 + rng.Intn(16), MinDiskGB: 1,
			},
			ERT:   time.Duration(60+rng.Intn(180)) * time.Minute,
			Class: aria.ClassBatch,
		}
		grid.Engine().ScheduleAt(time.Duration(i)*10*time.Second, func() {
			if err := target.Submit(p); err != nil {
				fmt.Println("submit:", err)
			}
		})
	}
	const horizon = 12 * time.Hour
	grid.Engine().Run(horizon)

	res := rec.Result("recorder", seed, len(nodes), horizon, 5*time.Minute)
	fmt.Printf("jobs: %d submitted, %d completed, %d rescheduled en route\n",
		res.Submitted, res.Completed, res.Reschedules)
	for _, typ := range []aria.MsgType{aria.MsgRequest, aria.MsgAccept, aria.MsgInform, aria.MsgAssign} {
		t := res.Traffic[typ]
		fmt.Printf("%-7s %5d messages %7.1f KB\n", typ, t.Count, float64(t.Bytes)/1024)
	}
	// Output:
	// jobs: 30 submitted, 30 completed, 15 rescheduled en route
	// REQUEST  1222 messages  1222.0 KB
	// ACCEPT    237 messages    29.6 KB
	// INFORM   1780 messages  1780.0 KB
	// ASSIGN     41 messages    41.0 KB
}

// A live grid in real time: eight nodes on the in-process transport, each
// driven by goroutines and wall-clock timers, take a burst of twelve jobs
// through one node. 300 ms in, a faster node joins; INFORM floods
// let it claim jobs still queued elsewhere. Placement depends on timing, so
// only the outcome is printed.
func ExampleLiveCluster() {
	// Wall-clock protocol timings: decide in 150 ms, INFORM every 400 ms,
	// reschedule for any gain above 10 ms.
	cfg := aria.DefaultConfig()
	cfg.AcceptTimeout = 150 * time.Millisecond
	cfg.InformInterval = 400 * time.Millisecond
	cfg.RescheduleThreshold = 10 * time.Millisecond

	const jobs = 12
	grid := aria.NewLiveCluster(7, 2*time.Millisecond)
	defer grid.Close()
	done := completions{done: make(chan aria.UUID, jobs)}
	profile := aria.NodeProfile{
		Arch: aria.ArchAMD64, OS: aria.OSLinux,
		MemoryGB: 8, DiskGB: 8, PerfIndex: 1.1,
	}

	// Eight nodes in a ring with chords.
	const n = 8
	for i := aria.NodeID(0); i < n; i++ {
		if _, err := grid.AddNode(i, profile, aria.FCFS, cfg, done, aria.DefaultARTModel()); err != nil {
			fmt.Println("node:", err)
			return
		}
	}
	for i := aria.NodeID(0); i < n; i++ {
		if err := grid.Connect(i, (i+1)%n); err != nil {
			fmt.Println("connect:", err)
			return
		}
		if err := grid.Connect(i, (i+3)%n); err != nil {
			fmt.Println("connect:", err)
			return
		}
	}
	grid.StartAll()

	portal, _ := grid.Node(0)
	rng := rand.New(rand.NewSource(99))
	for range jobs {
		p := aria.JobProfile{
			UUID: aria.NewUUID(rng),
			Req: aria.JobRequirements{
				Arch: aria.ArchAMD64, OS: aria.OSLinux,
				MinMemoryGB: 1, MinDiskGB: 1,
			},
			ERT:   300 * time.Millisecond,
			Class: aria.ClassBatch,
		}
		if err := portal.Submit(p); err != nil {
			fmt.Println("submit:", err)
			return
		}
	}

	time.Sleep(300 * time.Millisecond)
	fast := profile
	fast.PerfIndex = 1.9
	late, err := grid.AddNode(n, fast, aria.FCFS, cfg, done, aria.DefaultARTModel())
	if err != nil {
		fmt.Println("node:", err)
		return
	}
	for _, nb := range []aria.NodeID{0, 3, 6} {
		if err := grid.Connect(n, nb); err != nil {
			fmt.Println("connect:", err)
			return
		}
	}
	late.Start()

	completed := make(map[aria.UUID]bool)
	timeout := time.After(30 * time.Second)
	for len(completed) < jobs {
		select {
		case uuid := <-done.done:
			completed[uuid] = true
		case <-timeout:
			fmt.Printf("only %d of %d jobs completed in 30s\n", len(completed), jobs)
			return
		}
	}
	fmt.Printf("all %d jobs completed\n", jobs)
	// Output:
	// all 12 jobs completed
}

// completions is an Observer that reports each finished job's UUID; every
// other event falls through to the embedded no-op methods. Callbacks run
// under the node's lock and must not block: the channel holds one
// completion per job, and a send past that (a duplicate run) is dropped.
type completions struct {
	aria.NopObserver
	done chan aria.UUID
}

func (c completions) JobCompleted(_ time.Duration, _ aria.NodeID, j *aria.Job) {
	select {
	case c.done <- j.UUID:
	default:
	}
}

// Running a Table II scenario from the catalog at reduced scale.
func ExampleRunScenario() {
	res, err := aria.RunScenario("Mixed", 0.03, 0)
	if err != nil {
		fmt.Println("run:", err)
		return
	}
	fmt.Printf("completed %d of %d jobs\n", res.Completed, res.Submitted)
	// Output:
	// completed 30 of 30 jobs
}
