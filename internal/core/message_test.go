package core

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/resource"
	"github.com/smartgrid/aria/internal/sched"
)

func testProfile(rng *rand.Rand) job.Profile {
	return job.Profile{
		UUID: job.NewUUID(rng),
		Req: resource.Requirements{
			Arch: resource.ArchAMD64, OS: resource.OSLinux,
			MinMemoryGB: 1, MinDiskGB: 1,
		},
		ERT:   2 * time.Hour,
		Class: job.ClassBatch,
	}
}

func TestMsgTypeStrings(t *testing.T) {
	tests := []struct {
		give MsgType
		want string
	}{
		{MsgRequest, "REQUEST"},
		{MsgAccept, "ACCEPT"},
		{MsgInform, "INFORM"},
		{MsgAssign, "ASSIGN"},
		{MsgNotify, "NOTIFY"},
		{MsgCancel, "CANCEL"},
		{MsgAssignAck, "ASSIGN_ACK"},
		{MsgPing, "PING"},
		{MsgPong, "PONG"},
		{MsgBusy, "BUSY"},
		{MsgCommit, "COMMIT"},
		{MsgConflict, "CONFLICT"},
		{MsgType(42), "MsgType(42)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
	if MsgType(0).Valid() || MsgType(13).Valid() {
		t.Fatal("Valid() accepted out-of-range type")
	}
}

func TestWireSizesMatchPaper(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := testProfile(rng)
	tests := []struct {
		typ  MsgType
		want int
	}{
		{MsgRequest, 1024},
		{MsgInform, 1024},
		{MsgAssign, 1024},
		{MsgAccept, 128},
		{MsgNotify, 128},
		{MsgCancel, 128},
		{MsgAssignAck, 128},
	}
	for _, tt := range tests {
		m := Message{Type: tt.typ, Job: p}
		if got := m.WireSize(); got != tt.want {
			t.Errorf("%v WireSize() = %d, want %d", tt.typ, got, tt.want)
		}
	}
}

func TestMessageValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := testProfile(rng)
	valid := Message{Type: MsgRequest, From: 1, Job: p, TTL: 8, Fanout: 4}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid message rejected: %v", err)
	}
	for _, re := range []MsgType{MsgRequest, MsgAssign} {
		busy := Message{Type: MsgBusy, From: 1, Job: p, Re: re}
		if err := busy.Validate(); err != nil {
			t.Fatalf("valid BUSY (re=%v) rejected: %v", re, err)
		}
	}
	tests := []struct {
		name string
		give Message
	}{
		{"bad type", Message{Type: 0, Job: p}},
		{"bad job", Message{Type: MsgAssign, Job: job.Profile{}}},
		{"flood without fanout", Message{Type: MsgInform, Job: p, TTL: 3, Fanout: 0}},
		{"negative ttl", Message{Type: MsgRequest, Job: p, TTL: -1, Fanout: 2}},
		{"notify without kind", Message{Type: MsgNotify, Job: p}},
		{"busy without re", Message{Type: MsgBusy, Job: p}},
		{"busy re non-sheddable type", Message{Type: MsgBusy, Job: p, Re: MsgInform}},
		{"NaN cost", Message{Type: MsgAccept, Job: p, Cost: sched.Cost(math.NaN())}},
		{"infinite cost", Message{Type: MsgInform, Job: p, TTL: 3, Fanout: 2, Cost: sched.Cost(math.Inf(-1))}},
		{"probe with a job", Message{Type: MsgPing, From: 1, Job: p}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.give.Validate(); err == nil {
				t.Fatalf("Validate accepted %+v", tt.give)
			}
		})
	}
}

func TestMessageJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := Message{
		Type: MsgInform, From: 7, Job: testProfile(rng),
		Cost: 123.5, TTL: 8, Fanout: 2, Seq: 9, Via: 3,
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Message
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, m) {
		t.Fatalf("round trip\n give %+v\n got  %+v", m, back)
	}
}

func TestFloodKeyDistinguishesWaves(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := testProfile(rng)
	a := Message{Type: MsgInform, From: 1, Job: p, Seq: 1}
	b := Message{Type: MsgInform, From: 1, Job: p, Seq: 2}
	c := Message{Type: MsgRequest, From: 1, Job: p, Seq: 1}
	if a.floodKey() == b.floodKey() {
		t.Fatal("different sequences share flood key")
	}
	if a.floodKey() == c.floodKey() {
		t.Fatal("different types share flood key")
	}
	if a.floodKey() != (Message{Type: MsgInform, From: 1, Job: p, Seq: 1, Via: 9}).floodKey() {
		t.Fatal("Via should not affect flood key")
	}
}

// TestConfigValidate walks every rule of Config.Validate with one config
// that only that rule rejects, matching the rule's error text.
func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	// Plane bases that pass Validate, for rules that only apply once a
	// plane is armed.
	multi := func(c *Config) {
		c.InformJobs = 0
		c.MultiAssign = 3
	}
	membership := func(c *Config) {
		c.ProbeInterval = DefaultProbeInterval
		c.ProbeTimeout = DefaultProbeTimeout
		c.SuspectTimeout = DefaultSuspectTimeout
	}
	directory := func(c *Config) {
		membership(c)
		c.DirectedCandidates = DefaultDirectedCandidates
		c.MinDirectedOffers = DefaultMinDirectedOffers
		c.DirectoryCapacity = DefaultDirectoryCapacity
		c.DirectoryTTL = DefaultDirectoryTTL
		c.DirectoryGossip = DefaultDirectoryGossip
	}
	sharedState := func(c *Config) {
		membership(c)
		c.DirectoryCapacity = DefaultDirectoryCapacity
		c.DirectoryTTL = DefaultDirectoryTTL
		c.DirectoryGossip = DefaultDirectoryGossip
		c.SharedStateBound = DefaultSharedStateBound
		c.SharedStateRetries = DefaultSharedStateRetries
		c.CommitTimeout = DefaultCommitTimeout
		c.CommitBackoff = DefaultCommitBackoff
	}
	for name, base := range map[string]func(*Config){"multi": multi, "membership": membership, "directory": directory, "shared-state": sharedState} {
		cfg := DefaultConfig()
		base(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s base invalid: %v", name, err)
		}
	}
	tests := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"zero request ttl", func(c *Config) { c.RequestTTL = 0 }, "request TTL 0 must be positive"},
		{"zero request fanout", func(c *Config) { c.RequestFanout = 0 }, "request fanout 0 must be positive"},
		{"zero inform ttl", func(c *Config) { c.InformTTL = 0 }, "inform TTL 0 must be positive"},
		{"zero inform fanout", func(c *Config) { c.InformFanout = 0 }, "inform fanout 0 must be positive"},
		{"negative inform jobs", func(c *Config) { c.InformJobs = -1 }, "inform jobs -1 must be non-negative"},
		{"rescheduling without interval", func(c *Config) { c.InformInterval = 0 }, "inform interval 0s must be positive"},
		{"negative threshold", func(c *Config) { c.RescheduleThreshold = -time.Second }, "reschedule threshold -1s must be non-negative"},
		{"zero accept timeout", func(c *Config) { c.AcceptTimeout = 0 }, "accept timeout 0s must be positive"},
		{"negative retries", func(c *Config) { c.MaxRequestRetries = -1 }, "max request retries -1 must be non-negative"},
		{"retries without backoff", func(c *Config) { c.RetryBackoff = 0 }, "retry backoff 0s must be positive"},
		{"ack without timeout", func(c *Config) { c.AssignAck = true; c.AssignAckTimeout = 0 }, "assign ack timeout 0s must be positive"},
		{"ack without retries", func(c *Config) { c.AssignAck = true; c.AssignMaxRetries = 0 }, "assign max retries 0 must be positive"},
		{"ack with multi-assign", func(c *Config) { multi(c); c.AssignAck = true }, "assign ack handshake and multi-assign are mutually exclusive"},
		{"notify with bad grace", func(c *Config) { c.NotifyInitiator = true; c.WatchdogGrace = 1 }, "watchdog grace 1 must exceed 1"},
		{"invalid inform selection", func(c *Config) { c.InformSelection = 99 }, "invalid inform selection 99"},
		{"negative multi-assign", func(c *Config) { c.MultiAssign = -1 }, "multi-assign -1 must be non-negative"},
		{"multi-assign with rescheduling", func(c *Config) { c.MultiAssign = 3 }, "multi-assign and dynamic rescheduling are mutually exclusive"},
		{"negative probe interval", func(c *Config) { c.ProbeInterval = -time.Second }, "probe interval -1s must be non-negative"},
		{"detector without probe timeout", func(c *Config) { membership(c); c.ProbeTimeout = 0 }, "probe timeout 0s must be positive"},
		{"detector without suspect timeout", func(c *Config) { membership(c); c.SuspectTimeout = 0 }, "suspect timeout 0s must be positive"},
		{"probe timeout not below interval", func(c *Config) { membership(c); c.ProbeTimeout = c.ProbeInterval }, "probe timeout 10s must be below the probe interval 10s"},
		{"negative max degree", func(c *Config) { c.MaxDegree = -1 }, "max degree -1 must be non-negative"},
		{"negative re-flood step", func(c *Config) { c.ReFloodTTLStep = -1 }, "re-flood TTL step -1 must be non-negative"},
		{"negative directed candidates", func(c *Config) { c.DirectedCandidates = -1 }, "directed candidates -1 must be non-negative"},
		{"directory without min offers", func(c *Config) { directory(c); c.MinDirectedOffers = 0 }, "min directed offers 0 must be positive"},
		{"directory without capacity", func(c *Config) { directory(c); c.DirectoryCapacity = 0 }, "directory capacity 0 must be positive when the directory is on"},
		{"directory without ttl", func(c *Config) { directory(c); c.DirectoryTTL = 0 }, "directory TTL 0s must be positive when the directory is on"},
		{"directory with negative gossip", func(c *Config) { directory(c); c.DirectoryGossip = -1 }, "directory gossip -1 must be non-negative"},
		{"directory without membership", func(c *Config) { directory(c); c.ProbeInterval = 0 }, "the directory requires the membership plane"},
		{"directory with multi-assign", func(c *Config) { directory(c); multi(c) }, "directed discovery and multi-assign are mutually exclusive"},
		{"negative queue bound", func(c *Config) { c.MaxQueuedJobs = -1 }, "max queued jobs -1 must be non-negative"},
		{"negative pending bound", func(c *Config) { c.MaxPendingSubmits = -1 }, "max pending submits -1 must be non-negative"},
		{"negative backoff cap", func(c *Config) { c.RetryBackoffCap = -time.Second }, "retry backoff cap -1s must be non-negative"},
		{"backoff cap below base", func(c *Config) { c.RetryBackoffCap = c.RetryBackoff / 2 }, "retry backoff cap 15s must be at least the base backoff 30s"},
		{"shedding with multi-assign", func(c *Config) { multi(c); c.MaxQueuedJobs = 4 }, "load shedding and multi-assign are mutually exclusive"},
		{"negative shared-state bound", func(c *Config) { c.SharedStateBound = -1 }, "shared-state bound -1 must be non-negative"},
		{"shared state without membership", func(c *Config) { sharedState(c); c.ProbeInterval = 0 }, "the shared-state arm requires the membership plane"},
		{"shared state without capacity", func(c *Config) { sharedState(c); c.DirectoryCapacity = 0 }, "directory capacity 0 must be positive when the shared-state arm is on"},
		{"shared state without ttl", func(c *Config) { sharedState(c); c.DirectoryTTL = 0 }, "directory TTL 0s must be positive when the shared-state arm is on"},
		{"shared state with negative gossip", func(c *Config) { sharedState(c); c.DirectoryGossip = -1 }, "directory gossip -1 must be non-negative when the shared-state arm is on"},
		{"shared state without retries", func(c *Config) { sharedState(c); c.SharedStateRetries = 0 }, "shared-state retries 0 must be positive"},
		{"shared state without commit timeout", func(c *Config) { sharedState(c); c.CommitTimeout = 0 }, "commit timeout 0s must be positive"},
		{"shared state without commit backoff", func(c *Config) { sharedState(c); c.CommitBackoff = 0 }, "commit backoff 0s must be positive"},
		{"shared state with multi-assign", func(c *Config) { sharedState(c); multi(c) }, "the shared-state arm and multi-assign are mutually exclusive"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", cfg)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("Validate = %q, want %q", err, tt.want)
			}
		})
	}
}

func TestConfigRescheduling(t *testing.T) {
	cfg := DefaultConfig()
	if !cfg.Rescheduling() {
		t.Fatal("default config should have rescheduling on")
	}
	cfg.InformJobs = 0
	if cfg.Rescheduling() {
		t.Fatal("InformJobs=0 should disable rescheduling")
	}
}
