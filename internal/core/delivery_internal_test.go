package core

import (
	"math/rand"
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/resource"
	"github.com/smartgrid/aria/internal/sched"
	"github.com/smartgrid/aria/internal/sim"
)

// lossyNet is a white-box two-plus-node cluster on the simulation engine
// with a programmable message filter, for testing delivery hardening.
type lossyNet struct {
	engine *sim.Engine
	nodes  map[overlay.NodeID]*Node
	links  map[overlay.NodeID][]overlay.NodeID

	// drop, when non-nil, decides whether a transmission is lost.
	drop func(from, to overlay.NodeID, m Message) bool
	// sent logs every attempted transmission (dropped ones included).
	sent []sentMsg
}

type sentMsg struct {
	from, to overlay.NodeID
	msg      Message
}

func newLossyNet(seed int64) *lossyNet {
	return &lossyNet{
		engine: sim.NewEngine(seed),
		nodes:  make(map[overlay.NodeID]*Node),
		links:  make(map[overlay.NodeID][]overlay.NodeID),
	}
}

func (ln *lossyNet) addNode(t *testing.T, id overlay.NodeID, profile resource.Profile, cfg Config, obs Observer) *Node {
	t.Helper()
	n, err := NewNode(id, profile, sched.FCFS, &lossyEnv{net: ln, id: id}, cfg, obs, job.ARTModel{Mode: job.DriftNone})
	if err != nil {
		t.Fatal(err)
	}
	ln.nodes[id] = n
	n.Start()
	return n
}

func (ln *lossyNet) connect(a, b overlay.NodeID) {
	ln.links[a] = append(ln.links[a], b)
	ln.links[b] = append(ln.links[b], a)
}

// requestsFrom counts REQUEST transmissions originated by the given node.
func (ln *lossyNet) requestsFrom(id overlay.NodeID) int {
	count := 0
	for _, s := range ln.sent {
		if s.from == id && s.msg.Type == MsgRequest && s.msg.From == id {
			count++
		}
	}
	return count
}

// countType counts transmissions of one message type.
func (ln *lossyNet) countType(typ MsgType) int {
	count := 0
	for _, s := range ln.sent {
		if s.msg.Type == typ {
			count++
		}
	}
	return count
}

type lossyEnv struct {
	net *lossyNet
	id  overlay.NodeID
}

var _ Env = (*lossyEnv)(nil)

func (e *lossyEnv) Now() time.Duration { return e.net.engine.Now() }

func (e *lossyEnv) Schedule(delay time.Duration, fn func()) Cancel {
	return e.net.engine.Schedule(delay, fn).Cancel
}

func (e *lossyEnv) Send(to overlay.NodeID, m Message) {
	e.net.sent = append(e.net.sent, sentMsg{from: e.id, to: to, msg: m})
	if e.net.drop != nil && e.net.drop(e.id, to, m) {
		return
	}
	e.net.engine.Schedule(10*time.Millisecond, func() {
		if dest, ok := e.net.nodes[to]; ok {
			dest.HandleMessage(m)
		}
	})
}

// Neighbors returns a copy: the caller may filter and shuffle it in place.
func (e *lossyEnv) Neighbors() []overlay.NodeID {
	return append([]overlay.NodeID(nil), e.net.links[e.id]...)
}

func (e *lossyEnv) Rand() *rand.Rand { return e.net.engine.Rand() }

// deliveryCounter records lifecycle and delivery-hardening events.
type deliveryCounter struct {
	NopObserver

	starts    map[job.UUID]int
	completed map[job.UUID]int
	failed    int
	retried   int
	recovered int
}

var (
	_ Observer         = (*deliveryCounter)(nil)
	_ DeliveryObserver = (*deliveryCounter)(nil)
)

func newDeliveryCounter() *deliveryCounter {
	return &deliveryCounter{
		starts:    make(map[job.UUID]int),
		completed: make(map[job.UUID]int),
	}
}

func (c *deliveryCounter) JobStarted(_ time.Duration, _ overlay.NodeID, uuid job.UUID) {
	c.starts[uuid]++
}

func (c *deliveryCounter) JobCompleted(_ time.Duration, _ overlay.NodeID, j *job.Job) {
	c.completed[j.UUID]++
}

func (c *deliveryCounter) JobFailed(time.Duration, overlay.NodeID, job.UUID, string) {
	c.failed++
}

func (c *deliveryCounter) AssignRetried(time.Duration, overlay.NodeID, job.UUID, int) {
	c.retried++
}

func (c *deliveryCounter) AssignRecovered(time.Duration, overlay.NodeID, job.UUID) {
	c.recovered++
}

// ackConfig is the handshake-enabled protocol config used by these tests.
func ackConfig() Config {
	cfg := DefaultConfig()
	cfg.InformJobs = 0
	cfg.AssignAck = true
	return cfg
}

func smallProfile() resource.Profile {
	return resource.Profile{
		Arch: resource.ArchAMD64, OS: resource.OSLinux,
		MemoryGB: 8, DiskGB: 8, PerfIndex: 1,
	}
}

func bigProfile() resource.Profile {
	return resource.Profile{
		Arch: resource.ArchAMD64, OS: resource.OSLinux,
		MemoryGB: 32, DiskGB: 32, PerfIndex: 1,
	}
}

// bigJob can only run on bigProfile nodes.
func bigJob(uuid job.UUID) job.Profile {
	return job.Profile{
		UUID: uuid,
		Req: resource.Requirements{
			Arch: resource.ArchAMD64, OS: resource.OSLinux,
			MinMemoryGB: 16, MinDiskGB: 1,
		},
		ERT:   time.Hour,
		Class: job.ClassBatch,
	}
}

const testUUID = job.UUID("0123456789abcdef0123456789abcdef")

func TestAssignAckRetransmitsLostAssign(t *testing.T) {
	net := newLossyNet(1)
	counter := newDeliveryCounter()
	initiator := net.addNode(t, 1, smallProfile(), ackConfig(), counter)
	net.addNode(t, 2, bigProfile(), ackConfig(), counter)
	net.connect(1, 2)

	// Lose exactly the first ASSIGN; the retransmission gets through.
	dropped := 0
	net.drop = func(_, _ overlay.NodeID, m Message) bool {
		if m.Type == MsgAssign && dropped == 0 {
			dropped++
			return true
		}
		return false
	}
	if err := initiator.Submit(bigJob(testUUID)); err != nil {
		t.Fatal(err)
	}
	net.engine.Run(12 * time.Hour)

	if counter.completed[testUUID] != 1 {
		t.Fatalf("completions = %d, want 1", counter.completed[testUUID])
	}
	if counter.starts[testUUID] != 1 {
		t.Fatalf("starts = %d, want exactly 1 (no duplicate execution)", counter.starts[testUUID])
	}
	if counter.retried != 1 {
		t.Fatalf("retransmissions = %d, want 1", counter.retried)
	}
	if counter.recovered != 1 {
		t.Fatalf("recoveries = %d, want 1", counter.recovered)
	}
	if counter.failed != 0 {
		t.Fatalf("job failed under a single recoverable loss")
	}
}

func TestAssignAckLostAckDoesNotDuplicateExecution(t *testing.T) {
	net := newLossyNet(2)
	counter := newDeliveryCounter()
	initiator := net.addNode(t, 1, smallProfile(), ackConfig(), counter)
	net.addNode(t, 2, bigProfile(), ackConfig(), counter)
	net.connect(1, 2)

	// Lose the first acknowledgement: the assignee keeps the job, the
	// sender retransmits, the duplicate ASSIGN is absorbed and re-acked.
	dropped := 0
	net.drop = func(_, _ overlay.NodeID, m Message) bool {
		if m.Type == MsgAssignAck && dropped == 0 {
			dropped++
			return true
		}
		return false
	}
	if err := initiator.Submit(bigJob(testUUID)); err != nil {
		t.Fatal(err)
	}
	net.engine.Run(12 * time.Hour)

	if counter.completed[testUUID] != 1 || counter.starts[testUUID] != 1 {
		t.Fatalf("starts/completions = %d/%d, want 1/1",
			counter.starts[testUUID], counter.completed[testUUID])
	}
	if net.countType(MsgAssign) < 2 {
		t.Fatalf("ASSIGN transmissions = %d, want a retransmission", net.countType(MsgAssign))
	}
	if counter.recovered != 1 {
		t.Fatalf("recoveries = %d, want 1", counter.recovered)
	}
}

func TestAssignAckExhaustedRetriesRefloods(t *testing.T) {
	net := newLossyNet(3)
	counter := newDeliveryCounter()
	cfg := ackConfig()
	cfg.AssignMaxRetries = 2
	initiator := net.addNode(t, 1, smallProfile(), cfg, counter)
	net.addNode(t, 2, bigProfile(), cfg, counter)
	net.connect(1, 2)

	// A black hole swallows every ASSIGN of the first discovery round;
	// after the retries run dry, the fallback re-flood finds the worker
	// over a now-healthy network.
	assigns := 0
	net.drop = func(_, _ overlay.NodeID, m Message) bool {
		if m.Type == MsgAssign && assigns <= cfg.AssignMaxRetries {
			assigns++
			return true
		}
		return false
	}
	if err := initiator.Submit(bigJob(testUUID)); err != nil {
		t.Fatal(err)
	}
	net.engine.Run(24 * time.Hour)

	if counter.completed[testUUID] != 1 {
		t.Fatalf("completions = %d, want 1 via the re-flood fallback", counter.completed[testUUID])
	}
	if got := net.requestsFrom(1); got < 2 {
		t.Fatalf("REQUEST floods = %d, want a second (fallback) round", got)
	}
	if counter.retried != cfg.AssignMaxRetries {
		t.Fatalf("retransmissions = %d, want %d", counter.retried, cfg.AssignMaxRetries)
	}
}

func TestRescheduleHandoffLossSafe(t *testing.T) {
	net := newLossyNet(4)
	counter := newDeliveryCounter()
	cfg := ackConfig()
	cfg.AssignMaxRetries = 2
	cfg.RescheduleThreshold = time.Second
	assignee := net.addNode(t, 1, bigProfile(), cfg, counter)
	net.connect(1, 2) // node 2 does not exist: a perfect black hole

	// Stage a busy assignee with one queued job.
	running := bigJob("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa")
	queued := bigJob(testUUID)
	assignee.HandleMessage(Message{Type: MsgAssign, From: 1, Job: running, Via: 1})
	net.engine.Run(20 * time.Millisecond)
	assignee.HandleMessage(Message{Type: MsgAssign, From: 1, Job: queued, Via: 1})
	net.engine.Run(40 * time.Millisecond)
	if !assignee.Busy() || assignee.QueueLen() != 1 {
		t.Fatalf("staging failed: busy=%v queue=%d", assignee.Busy(), assignee.QueueLen())
	}

	// A (phantom) cheaper node claims the queued job; the ASSIGN handoff
	// can never be acknowledged.
	assignee.HandleMessage(Message{Type: MsgAccept, From: 2, Job: queued, Cost: 0})
	net.engine.Run(60 * time.Millisecond)
	if assignee.QueueLen() != 0 {
		t.Fatal("job not handed off")
	}

	// After the retries exhaust, the job must come home.
	net.engine.Run(48 * time.Hour)
	if counter.completed[testUUID] != 1 {
		t.Fatalf("handed-off job never completed: completions=%d", counter.completed[testUUID])
	}
	if counter.recovered == 0 {
		t.Fatal("no recovery recorded for the restored handoff")
	}
	if counter.failed != 0 {
		t.Fatal("job reported failed despite loss-safe handoff")
	}
}

func TestAssignAckDisabledSendsNoAcks(t *testing.T) {
	net := newLossyNet(5)
	counter := newDeliveryCounter()
	cfg := DefaultConfig()
	cfg.InformJobs = 0
	initiator := net.addNode(t, 1, smallProfile(), cfg, counter)
	net.addNode(t, 2, bigProfile(), cfg, counter)
	net.connect(1, 2)

	if err := initiator.Submit(bigJob(testUUID)); err != nil {
		t.Fatal(err)
	}
	net.engine.Run(12 * time.Hour)
	if counter.completed[testUUID] != 1 {
		t.Fatalf("completions = %d, want 1", counter.completed[testUUID])
	}
	if got := net.countType(MsgAssignAck); got != 0 {
		t.Fatalf("ASSIGN_ACK transmissions = %d with the handshake off", got)
	}
}
