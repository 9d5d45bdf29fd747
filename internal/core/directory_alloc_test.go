package core

import (
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/directory"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/resource"
)

// TestDirectoryGossipAllocationBudget pins the allocation cost of the
// directory's hot paths on a node with membership, the directory store
// and the shared-state view on: every PING and PONG builds one gossip
// payload and learns another, so a stray per-message slice shows up as
// garbage on every probe round.
func TestDirectoryGossipAllocationBudget(t *testing.T) {
	cfg := sharedStateConfig()
	n, env := newTestNode(t, cfg)

	prof := func(i int) resource.Profile {
		return resource.Profile{
			Arch: resource.ArchAMD64, OS: resource.OSLinux,
			MemoryGB: 8, DiskGB: 8, PerfIndex: 1 + float64(i%8)/8,
		}
	}
	for i := 0; i < 64; i++ {
		n.dir.Learn(directory.Digest{Node: overlay.NodeID(10 + i), Profile: prof(i), Load: i % 3}, 0)
	}
	fresh := make([]directory.Digest, 4)
	for i := range fresh {
		fresh[i] = directory.Digest{Node: overlay.NodeID(10 + 7*i), Profile: prof(i), Load: 1}
	}
	payload := directory.Encode(fresh)
	ping := Message{Type: MsgPing, From: 2, Dir: payload}
	req := resource.Requirements{Arch: resource.ArchAMD64, OS: resource.OSLinux, MinMemoryGB: 1, MinDiskGB: 1}
	p := job.Profile{Req: req}

	tick := func() { env.now += time.Millisecond }
	for _, c := range []struct {
		name string
		fn   func()
		want float64
	}{
		// The encoded payload is the one allocation the message keeps.
		{"build PING gossip payload", func() { tick(); n.dirGossipPayload() }, 1},
		// Decoding into the node's scratch and refreshing cached entries
		// in place allocates nothing.
		{"learn 4-digest payload", func() { tick(); n.learnDigests(ping) }, 0},
		{"Pick", func() {
			if _, ok := n.pickCommitTarget(p, nil); !ok {
				t.Fatal("no commit target picked")
			}
		}, 0},
		{"Candidates(req, 3)", func() { n.dir.Candidates(req, 3, env.now) }, 1},
		{"Gossip", func() { n.dir.Gossip(cfg.DirectoryGossip, env.now) }, 1},
		{"Decode", func() {
			if _, err := directory.Decode(payload); err != nil {
				t.Fatal(err)
			}
		}, 1},
	} {
		if got := testing.AllocsPerRun(200, c.fn); got != c.want {
			t.Errorf("%s: %v allocs, want %v", c.name, got, c.want)
		}
	}
}
