package core

import (
	"flag"
	"io"
	"reflect"
	"testing"
	"time"
)

// notFlags lists the Config fields no command line sets, each with why.
var notFlags = map[string]string{
	"InformTTL":                   "the paper fixes INFORM floods at TTL 8 and no experiment varies it",
	"InformFanout":                "the paper fixes INFORM floods at fanout 2 and no experiment varies it",
	"InformSelection":             "a §III-D ablation the iSelect* scenarios set, not an operator setting",
	"MaxRequestRetries":           "only iOverload raises it, in the catalog",
	"RetryBackoff":                "the fixed re-flood pause; -retry-backoff-cap is the operator's knob",
	"AssignAckTimeout":            "the handshake's default suits every grid -assign-ack arms",
	"AssignMaxRetries":            "the handshake's default suits every grid -assign-ack arms",
	"WatchdogGrace":               "the watchdog's default suits every grid -notify arms",
	"MultiAssign":                 "the related-work comparison protocol, run only as the MultiReq3 scenario",
	"DisableDuplicateSuppression": "an ablation benchmark switch, never for deployments",
	"ReFloodTTLStep":              "set only by the self-healing churn scenarios",
}

// TestFlagTableCoversConfig walks every Config field: each is bound to
// exactly one flag, or listed in notFlags with a reason, never both.
func TestFlagTableCoversConfig(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	bound := make(map[string]string)
	names := make(map[string]bool)
	for _, k := range knobs {
		if _, ok := typ.FieldByName(k.field); !ok {
			t.Errorf("flag -%s binds missing field %s", k.name, k.field)
		}
		if prev, dup := bound[k.field]; dup {
			t.Errorf("field %s bound by both -%s and -%s", k.field, prev, k.name)
		}
		if names[k.name] {
			t.Errorf("flag -%s declared twice", k.name)
		}
		bound[k.field], names[k.name] = k.name, true
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i).Name
		_, isFlag := bound[f]
		_, excused := notFlags[f]
		switch {
		case isFlag && excused:
			t.Errorf("field %s is bound to -%s and also listed in notFlags", f, bound[f])
		case !isFlag && !excused:
			t.Errorf("field %s has no flag and no notFlags reason", f)
		}
	}
	for f := range notFlags {
		if _, ok := typ.FieldByName(f); !ok {
			t.Errorf("notFlags names missing field %s", f)
		}
	}

	fs := flag.NewFlagSet("knobs", flag.ContinueOnError)
	BindFlags(fs, DefaultConfig())
	declared := 0
	fs.VisitAll(func(*flag.Flag) { declared++ })
	if declared != len(knobs) {
		t.Errorf("BindFlags declared %d flags for %d knobs", declared, len(knobs))
	}
}

// parseKnobs applies args over base the way a front end does.
func parseKnobs(t *testing.T, base Config, args ...string) Config {
	t.Helper()
	fs := flag.NewFlagSet("knobs", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := BindFlags(fs, DefaultConfig())
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	f.Apply(&base)
	return base
}

// TestArmingRule: a switch given a positive value over a plane that is off
// fills the plane's knobs (and membership's, and the directory store's)
// with their defaults, and explicit knobs override in any flag order.
func TestArmingRule(t *testing.T) {
	want := DefaultConfig()
	want.ProbeInterval = DefaultProbeInterval
	want.ProbeTimeout = DefaultProbeTimeout
	want.SuspectTimeout = DefaultSuspectTimeout
	want.DirectedCandidates = 2
	want.MinDirectedOffers = DefaultMinDirectedOffers
	want.DirectoryCapacity = DefaultDirectoryCapacity
	want.DirectoryTTL = DefaultDirectoryTTL
	for _, args := range [][]string{
		{"-directory-gossip", "0", "-directed-candidates", "2"},
		{"-directed-candidates", "2", "-directory-gossip", "0"},
	} {
		if got := parseKnobs(t, DefaultConfig(), args...); got != want {
			t.Errorf("%v:\n got %+v\nwant %+v", args, got, want)
		}
	}

	shared := parseKnobs(t, DefaultConfig(), "-commit-timeout", "5s", "-shared-state", "4")
	if !shared.Membership() || shared.DirectoryCapacity != DefaultDirectoryCapacity ||
		shared.SharedStateRetries != DefaultSharedStateRetries || shared.CommitTimeout != 5*time.Second {
		t.Errorf("-shared-state 4 armed %+v", shared)
	}
	if err := shared.Validate(); err != nil {
		t.Errorf("armed shared state invalid: %v", err)
	}

	if off := parseKnobs(t, DefaultConfig(), "-directed-candidates", "0"); off != DefaultConfig() {
		t.Errorf("-directed-candidates 0 changed the config: %+v", off)
	}
	if alone := parseKnobs(t, DefaultConfig(), "-probe-interval", "20s"); alone.ProbeTimeout != DefaultProbeTimeout || alone.ProbeInterval != 20*time.Second {
		t.Errorf("-probe-interval 20s armed %+v", alone)
	}
}

// TestArmKeepsArmedPlane: arming a plane that is already on changes
// nothing, and the store knobs of a running shared-state view survive
// switching directed discovery on beside it.
func TestArmKeepsArmedPlane(t *testing.T) {
	c := DefaultConfig()
	c.ArmSharedState()
	c.ProbeInterval = 30 * time.Second
	c.DirectoryTTL = time.Minute
	c.SharedStateBound = 9
	before := c
	c.ArmSharedState()
	c.ArmMembership()
	if c != before {
		t.Fatalf("re-arming changed %+v to %+v", before, c)
	}
	got := parseKnobs(t, c, "-directed-candidates", "5")
	if got.DirectoryTTL != time.Minute || got.ProbeInterval != 30*time.Second ||
		got.DirectedCandidates != 5 || got.MinDirectedOffers != DefaultMinDirectedOffers {
		t.Fatalf("-directed-candidates over a shared-state view gave %+v", got)
	}
}

func TestConfigSet(t *testing.T) {
	c := DefaultConfig()
	if err := c.Set("inform-interval", "1m"); err != nil || c.InformInterval != time.Minute {
		t.Fatalf("Set inform-interval: %v, %v", err, c.InformInterval)
	}
	if err := c.Set("shared-state", "2"); err != nil || c.SharedStateBound != 2 || !c.Membership() {
		t.Fatalf("Set shared-state: %v, %+v", err, c)
	}
	if err := c.Set("assign-ack", "true"); err != nil || !c.AssignAck {
		t.Fatalf("Set assign-ack: %v, %v", err, c.AssignAck)
	}
	for _, bad := range [][2]string{{"nope", "1"}, {"inform-jobs", "x"}, {"threshold", "soon"}} {
		if err := c.Set(bad[0], bad[1]); err == nil {
			t.Errorf("Set(%q, %q) succeeded", bad[0], bad[1])
		}
	}
}
