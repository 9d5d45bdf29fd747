package core

import (
	"flag"
	"fmt"
	"io"
	"reflect"
	"time"
)

// knob binds one protocol flag to the Config field it sets. A switch knob
// (arm non-nil) turns its plane on when given a positive value.
type knob struct {
	name  string
	field string // Config field name
	arm   func(*Config)
	usage string
}

// knobs is the one table of protocol flags every front end accepts: ariad
// binds it over DefaultConfig, ariasim over the chosen scenario, and
// ariasim -sweep takes any of its names.
var knobs = []knob{
	{"request-ttl", "RequestTTL", nil, "REQUEST flood TTL"},
	{"request-fanout", "RequestFanout", nil, "REQUEST flood fanout"},
	{"inform-jobs", "InformJobs", nil, "jobs advertised per INFORM batch"},
	{"inform-interval", "InformInterval", nil, "period between INFORM batches"},
	{"threshold", "RescheduleThreshold", nil, "minimum rescheduling benefit"},
	{"accept-timeout", "AcceptTimeout", nil, "initiator offer-collection window"},

	{"assign-ack", "AssignAck", nil, "confirm networked ASSIGNs with ACKs: retransmit unacknowledged assignments with backoff, fall back loss-safe when retries exhaust"},
	{"notify", "NotifyInitiator", nil, "assignees notify initiators on queue/completion; initiators run a failsafe watchdog re-submitting jobs lost to assignee crashes"},

	{"probe-interval", "ProbeInterval", (*Config).ArmMembership, "liveness probe interval (0 = membership plane off)"},
	{"probe-timeout", "ProbeTimeout", nil, "unanswered-probe window before a neighbor turns suspect"},
	{"suspect-timeout", "SuspectTimeout", nil, "suspicion window before a suspect is declared dead"},
	{"max-degree", "MaxDegree", nil, "overlay-repair degree bound (0 = unbounded)"},

	{"max-queued", "MaxQueuedJobs", nil, "run-queue depth bound; past it the node sheds REQUESTs and ASSIGNs with BUSY (0 = unbounded)"},
	{"max-pending", "MaxPendingSubmits", nil, "in-flight local submissions bound; past it Submit is rejected (0 = unbounded)"},
	{"retry-backoff-cap", "RetryBackoffCap", nil, "ceiling for the jittered exponential request-retry backoff (0 = fixed backoff)"},

	{"directed-candidates", "DirectedCandidates", (*Config).ArmDirectory, "directed-discovery probes per first round (0 = directory off)"},
	{"min-directed-offers", "MinDirectedOffers", nil, "ACCEPTs a directed round needs before the flood fallback fires"},
	{"directory-capacity", "DirectoryCapacity", nil, "resource-directory cache entries per node"},
	{"directory-ttl", "DirectoryTTL", nil, "staleness bound on cached profile digests"},
	{"directory-gossip", "DirectoryGossip", nil, "cached digests piggybacked per PING/PONG (plus the sender's own)"},

	{"shared-state", "SharedStateBound", (*Config).ArmSharedState, "provider queue bound arming the shared-state optimistic-commit arm (0 = off)"},
	{"shared-state-retries", "SharedStateRetries", nil, "failed optimistic commits (K) before the job falls back to the REQUEST flood"},
	{"commit-timeout", "CommitTimeout", nil, "wait for a commit's grant or CONFLICT before treating the provider as unreachable"},
	{"commit-backoff", "CommitBackoff", nil, "base pause before a commit retry (doubles per attempt, capped at 64x)"},
}

func (k knob) of(c *Config) reflect.Value {
	return reflect.ValueOf(c).Elem().FieldByName(k.field)
}

// Flags holds the protocol knobs declared on one flag set.
type Flags struct {
	fs   *flag.FlagSet
	vals Config
}

// BindFlags declares every protocol knob on fs. Help shows def's values,
// and for the knobs a switch arms, the defaults arming fills in.
func BindFlags(fs *flag.FlagSet, def Config) *Flags {
	f := &Flags{fs: fs, vals: def}
	armed := def
	armed.ArmDirectory()
	armed.ArmSharedState()
	for _, k := range knobs {
		if k.arm == nil {
			k.of(&f.vals).Set(k.of(&armed))
		}
		switch p := k.of(&f.vals).Addr().Interface().(type) {
		case *bool:
			fs.BoolVar(p, k.name, *p, k.usage)
		case *int:
			fs.IntVar(p, k.name, *p, k.usage)
		case *time.Duration:
			fs.DurationVar(p, k.name, *p, k.usage)
		}
	}
	return f
}

// Apply sets c's knobs from the flags the command line gave. First every
// switch given a positive value arms its plane if that plane is off; then
// every given flag overrides, so an explicit knob wins over the armed
// default whatever the flag order.
func (f *Flags) Apply(c *Config) {
	var given []knob
	f.fs.Visit(func(fl *flag.Flag) {
		for _, k := range knobs {
			if k.name == fl.Name {
				given = append(given, k)
			}
		}
	})
	for _, k := range given {
		if k.arm != nil && k.of(&f.vals).Int() > 0 {
			k.arm(c)
		}
	}
	for _, k := range given {
		k.of(c).Set(k.of(&f.vals))
	}
}

// Set applies one knob by flag name, as if it were the only protocol flag
// on a command line.
func (c *Config) Set(name, value string) error {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := BindFlags(fs, *c)
	if fs.Lookup(name) == nil {
		names := make([]string, len(knobs))
		for i, k := range knobs {
			names[i] = k.name
		}
		return fmt.Errorf("unknown protocol flag %q (want one of %v)", name, names)
	}
	if err := fs.Parse([]string{"-" + name + "=" + value}); err != nil {
		return err
	}
	f.Apply(c)
	return nil
}

// ArmMembership switches the membership plane on with its default timing,
// unless it is on already.
func (c *Config) ArmMembership() {
	if c.Membership() {
		return
	}
	c.ProbeInterval = DefaultProbeInterval
	c.ProbeTimeout = DefaultProbeTimeout
	c.SuspectTimeout = DefaultSuspectTimeout
}

// ArmDirectory switches directed discovery on with its default knobs,
// unless it is on already. It arms the membership plane the digests ride
// and the directory store.
func (c *Config) ArmDirectory() {
	if c.Directory() {
		return
	}
	c.ArmMembership()
	c.armStore()
	c.DirectedCandidates = DefaultDirectedCandidates
	c.MinDirectedOffers = DefaultMinDirectedOffers
}

// ArmSharedState switches the shared-state optimistic-commit arm on with
// its default knobs, unless it is on already. It arms the membership plane
// and the directory store its cluster view runs on.
func (c *Config) ArmSharedState() {
	if c.SharedState() {
		return
	}
	c.ArmMembership()
	c.armStore()
	c.SharedStateBound = DefaultSharedStateBound
	c.SharedStateRetries = DefaultSharedStateRetries
	c.CommitTimeout = DefaultCommitTimeout
	c.CommitBackoff = DefaultCommitBackoff
}

// armStore fills the directory store knobs, which directed discovery and
// the shared-state view share, unless one of the two already runs on them.
func (c *Config) armStore() {
	if c.Directory() || c.SharedState() {
		return
	}
	c.DirectoryCapacity = DefaultDirectoryCapacity
	c.DirectoryTTL = DefaultDirectoryTTL
	c.DirectoryGossip = DefaultDirectoryGossip
}
