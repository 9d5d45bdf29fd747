package core

import (
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/directory"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/sched"
)

// sharedStateConfig arms the optimistic-commit arm and the planes it rides
// on (membership, directory) at their defaults.
func sharedStateConfig() Config {
	cfg := DefaultConfig()
	cfg.ProbeInterval = DefaultProbeInterval
	cfg.ProbeTimeout = DefaultProbeTimeout
	cfg.SuspectTimeout = DefaultSuspectTimeout
	cfg.DirectoryCapacity = DefaultDirectoryCapacity
	cfg.DirectoryTTL = DefaultDirectoryTTL
	cfg.DirectoryGossip = DefaultDirectoryGossip
	cfg.SharedStateBound = DefaultSharedStateBound
	cfg.SharedStateRetries = DefaultSharedStateRetries
	cfg.CommitTimeout = DefaultCommitTimeout
	cfg.CommitBackoff = DefaultCommitBackoff
	return cfg
}

// commitLog records trace spans and directory evictions.
type commitLog struct {
	spanLog
	evicted map[overlay.NodeID]string
}

func (l *commitLog) DirectoryEvicted(_ time.Duration, _, subject overlay.NodeID, reason string) {
	l.evicted[subject] = reason
}

// kind lists the recorded spans of one kind.
func (l *commitLog) kind(k SpanKind) []TraceEvent {
	var out []TraceEvent
	for _, ev := range l.spans {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

// TestCommitTimeoutRetriesThenFloods drives the commit timeout: providers
// whose replies are all lost must each be evicted from the view as
// unreachable with a traced timeout verdict, the round must retry one
// commit backoff later against another provider, and at SharedStateRetries
// failures it must fall back to the REQUEST flood.
func TestCommitTimeoutRetriesThenFloods(t *testing.T) {
	net := newLossyNet(41)
	cfg := sharedStateConfig()
	cfg.InformJobs = 0
	cfg.SharedStateRetries = 2
	log := &commitLog{evicted: make(map[overlay.NodeID]string)}
	// The initiator is not started: no probe rounds, so the seeded view is
	// all it knows.
	initiator, err := NewNode(1, smallProfile(), sched.FCFS, &lossyEnv{net: net, id: 1}, cfg, log, job.ARTModel{Mode: job.DriftNone})
	if err != nil {
		t.Fatal(err)
	}
	net.nodes[1] = initiator
	// Three committable providers, one more than the retry budget, so the
	// fallback is the budget's doing and not an exhausted view.
	for id := overlay.NodeID(2); id <= 4; id++ {
		net.addNode(t, id, bigProfile(), cfg, newDeliveryCounter())
		initiator.dir.Learn(directory.Digest{Node: id, Profile: bigProfile()}, 0)
	}
	net.drop = func(_, to overlay.NodeID, m Message) bool {
		return to == 1 && (m.Type == MsgAssignAck || m.Type == MsgConflict)
	}

	if err := initiator.Submit(bigJob(testUUID)); err != nil {
		t.Fatal(err)
	}
	net.engine.Run(cfg.CommitTimeout*2 + backoff(cfg.CommitBackoff, 0) + time.Second)

	commits, verdicts := log.kind(SpanCommit), log.kind(SpanConflict)
	if len(commits) != 2 || len(verdicts) != 2 {
		t.Fatalf("%d commits and %d conflict verdicts, want 2 and 2", len(commits), len(verdicts))
	}
	for i, v := range verdicts {
		c := commits[i]
		if v.Reason != "timeout" || v.Parent != c.Span || v.Peer != c.Peer || v.Attempt != i+1 {
			t.Errorf("verdict %d = %+v, want a timeout on commit %#x to %d, attempt %d", i, v, c.Span, c.Peer, i+1)
		}
		if v.At-c.At != cfg.CommitTimeout {
			t.Errorf("verdict %d after %v, want the commit timeout %v", i, v.At-c.At, cfg.CommitTimeout)
		}
		if got := log.evicted[c.Peer]; got != directory.EvictUnreachable {
			t.Errorf("silent provider %d evicted as %q, want %q", c.Peer, got, directory.EvictUnreachable)
		}
	}
	retry := commits[1]
	if retry.Parent != verdicts[0].Span || retry.Peer == commits[0].Peer {
		t.Errorf("retry %+v must parent to the first verdict and pick another provider", retry)
	}
	if gap := retry.At - verdicts[0].At; gap != backoff(cfg.CommitBackoff, 0) {
		t.Errorf("retry %v after the verdict, want backoff %v", gap, backoff(cfg.CommitBackoff, 0))
	}

	fallbacks := log.kind(SpanCommitFallback)
	if len(fallbacks) != 1 || fallbacks[0].Parent != verdicts[1].Span || fallbacks[0].Attempt != cfg.SharedStateRetries {
		t.Fatalf("fallbacks = %+v, want one after %d attempts under the last verdict", fallbacks, cfg.SharedStateRetries)
	}
	floods := log.kind(SpanFloodOrigin)
	if len(floods) != 1 || floods[0].Msg != MsgRequest || floods[0].Parent != fallbacks[0].Span {
		t.Fatalf("floods = %+v, want one REQUEST flood under the fallback", floods)
	}
}
