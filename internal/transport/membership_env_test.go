package transport

import (
	"reflect"
	"testing"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/sched"
	"github.com/smartgrid/aria/internal/sim"
)

// repairEnv is what the membership plane uses of a node's environment:
// its neighbor list and the two overlay mutations.
type repairEnv interface {
	core.MembershipEnv
	Neighbors() []overlay.NodeID
}

// repairLinks are the overlay links each environment starts from:
// node 0 is a hub on 1, 2 and 3, and 4 hangs off 1.
var repairLinks = [][2]overlay.NodeID{{0, 1}, {0, 2}, {0, 3}, {1, 4}}

// TestMembershipEnvPruneAndReconnect drives PruneLink and Reconnect through
// the in-process and the simulated environment alike. A pruned link leaves
// both neighbor lists, and Reconnect refuses when either endpoint sits at
// the degree cap or the peer is unknown, then links once the cap allows.
func TestMembershipEnvPruneAndReconnect(t *testing.T) {
	twins := []struct {
		name  string
		build func(t *testing.T) func(overlay.NodeID) repairEnv
	}{
		{"inproc", func(t *testing.T) func(overlay.NodeID) repairEnv {
			c := NewInprocCluster(1, nil)
			t.Cleanup(c.Close)
			for i := overlay.NodeID(0); i < 5; i++ {
				if _, err := c.AddNode(i, liveProfile(), sched.FCFS, core.DefaultConfig(), nil, job.ARTModel{Mode: job.DriftNone}); err != nil {
					t.Fatal(err)
				}
			}
			for _, l := range repairLinks {
				if err := c.Connect(l[0], l[1]); err != nil {
					t.Fatal(err)
				}
			}
			return func(id overlay.NodeID) repairEnv { return &inprocEnv{cluster: c, id: id} }
		}},
		{"sim", func(t *testing.T) func(overlay.NodeID) repairEnv {
			graph := overlay.NewGraph()
			for i := overlay.NodeID(0); i < 5; i++ {
				graph.AddNode(i)
			}
			for _, l := range repairLinks {
				graph.AddLink(l[0], l[1])
			}
			c := NewSimCluster(sim.NewEngine(1), graph, overlay.FixedLatency(0))
			return func(id overlay.NodeID) repairEnv { return &simEnv{cluster: c, id: id, lane: sim.Lane(id)} }
		}},
	}
	for _, twin := range twins {
		t.Run(twin.name, func(t *testing.T) {
			env := twin.build(t)
			want := func(id overlay.NodeID, nbs ...overlay.NodeID) {
				t.Helper()
				if got := env(id).Neighbors(); !reflect.DeepEqual(got, nbs) {
					t.Fatalf("neighbors of %v = %v, want %v", id, got, nbs)
				}
			}

			env(0).PruneLink(1)
			want(0, 2, 3)
			want(1, 4)

			if env(1).Reconnect(2, 1) {
				t.Fatal("Reconnect(1→2) linked past a cap node 1 already meets")
			}
			if env(4).Reconnect(0, 2) {
				t.Fatal("Reconnect(4→0) linked past a cap node 0 already meets")
			}
			if env(1).Reconnect(9, 0) {
				t.Fatal("Reconnect to an unknown node linked")
			}
			want(0, 2, 3)
			want(1, 4)
			want(2, 0)

			if !env(1).Reconnect(2, 2) {
				t.Fatal("Reconnect(1→2) refused under a cap both endpoints are below")
			}
			want(1, 2, 4)
			want(2, 0, 1)
		})
	}
}

// TestInprocAddNodeRejectsNegativeID: the live cluster's graph indexes by
// node ID, so a negative one is refused with an error, not a panic.
func TestInprocAddNodeRejectsNegativeID(t *testing.T) {
	c := NewInprocCluster(1, nil)
	defer c.Close()
	if _, err := c.AddNode(-1, liveProfile(), sched.FCFS, core.DefaultConfig(), nil, job.ARTModel{Mode: job.DriftNone}); err == nil {
		t.Fatal("AddNode(-1) succeeded")
	}
}
