package core

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
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

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero request ttl", func(c *Config) { c.RequestTTL = 0 }},
		{"zero request fanout", func(c *Config) { c.RequestFanout = 0 }},
		{"zero inform ttl", func(c *Config) { c.InformTTL = 0 }},
		{"zero inform fanout", func(c *Config) { c.InformFanout = 0 }},
		{"negative inform jobs", func(c *Config) { c.InformJobs = -1 }},
		{"rescheduling without interval", func(c *Config) { c.InformInterval = 0 }},
		{"negative threshold", func(c *Config) { c.RescheduleThreshold = -time.Second }},
		{"zero accept timeout", func(c *Config) { c.AcceptTimeout = 0 }},
		{"negative retries", func(c *Config) { c.MaxRequestRetries = -1 }},
		{"retries without backoff", func(c *Config) { c.RetryBackoff = 0 }},
		{"notify with bad grace", func(c *Config) { c.NotifyInitiator = true; c.WatchdogGrace = 1 }},
		{"ack without timeout", func(c *Config) { c.AssignAck = true; c.AssignAckTimeout = 0 }},
		{"ack without retries", func(c *Config) { c.AssignAck = true; c.AssignMaxRetries = 0 }},
		{"ack with multi-assign", func(c *Config) {
			c.AssignAck = true
			c.InformJobs = 0
			c.MultiAssign = 3
		}},
		{"negative queue bound", func(c *Config) { c.MaxQueuedJobs = -1 }},
		{"negative pending bound", func(c *Config) { c.MaxPendingSubmits = -1 }},
		{"negative backoff cap", func(c *Config) { c.RetryBackoffCap = -time.Second }},
		{"backoff cap below base", func(c *Config) { c.RetryBackoffCap = c.RetryBackoff / 2 }},
		{"shedding with multi-assign", func(c *Config) {
			c.InformJobs = 0
			c.MultiAssign = 3
			c.MaxQueuedJobs = 4
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatalf("Validate accepted %+v", cfg)
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
