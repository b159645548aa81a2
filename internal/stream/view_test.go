package stream_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dkcore/internal/gen"
	"dkcore/internal/graph"
	"dkcore/internal/stream"
)

// frozen is what a View must keep answering however far the Maintainer
// moves on: the state as of its Publish, taken through the Maintainer's
// own (flat, unshared) accessors.
type frozen struct {
	view     *stream.View
	graph    *graph.Graph
	coreness []int
	maxCore  int
}

func (f frozen) check(t *testing.T, context string) {
	t.Helper()
	v := f.view
	if v.NumNodes() != f.graph.NumNodes() || v.NumEdges() != f.graph.NumEdges() || v.MaxCoreness() != f.maxCore {
		t.Fatalf("%s: view is %d nodes / %d edges / degeneracy %d, published %d / %d / %d", context,
			v.NumNodes(), v.NumEdges(), v.MaxCoreness(), f.graph.NumNodes(), f.graph.NumEdges(), f.maxCore)
	}
	if !v.Graph().Equal(f.graph) {
		t.Fatalf("%s: view's edge set differs from the one published", context)
	}
	got := v.CorenessValues()
	members := v.CoreMembers(f.maxCore)
	for u, k := range f.coreness {
		if got[u] != k || v.Coreness(u) != k {
			t.Fatalf("%s: node %d reads %d / %d, published %d", context, u, got[u], v.Coreness(u), k)
		}
		if k >= f.maxCore && (len(members) == 0 || members[0] != u) {
			t.Fatalf("%s: node %d missing from the top core's members", context, u)
		} else if k >= f.maxCore {
			members = members[1:]
		}
		for _, w := range f.graph.Neighbors(u) {
			if !v.HasEdge(u, w) {
				t.Fatalf("%s: view lost edge {%d, %d}", context, u, w)
			}
		}
	}
	if len(members) != 0 || v.Coreness(-1) != 0 || v.Coreness(len(got)) != 0 || v.HasEdge(0, len(got)) {
		t.Fatalf("%s: view answers for nodes it does not have", context)
	}
}

// TestPublishedViewsStayFrozen publishes after batches of churn that
// rewrite hub rows, move nodes between levels and grow the node set
// across leaf and directory boundaries, keeps every View, and requires
// each one to read exactly as published after all the later mutations —
// the copy-on-write contract of Publish, rows, leaves and directories
// alike. The seed graph ends two thirds into its first directory and
// three jumps of half a directory and a leaf carry the node set across at
// least two more boundaries, so some batches write leaves under a
// directory the previous View's table lacked, and later ones rewrite
// leaves under it once it is shared.
func TestPublishedViewsStayFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mt := stream.NewMaintainer(gen.PowerLaw(gen.PowerLawConfig{N: 2 * stream.DirSpan / 3, Exponent: 2.2, MinDeg: 2}, 5))
	freeze := func() frozen {
		return frozen{view: mt.Publish(), graph: mt.Graph(), coreness: mt.CorenessValues(), maxCore: mt.MaxCoreness()}
	}
	dirs := func() int { return (mt.NumNodes() + stream.DirSpan - 1) / stream.DirSpan }
	firstDirs := dirs()
	views := []frozen{freeze()}
	views[0].check(t, "first publish")
	for batch := 0; batch < 120; batch++ {
		for i := rng.Intn(12); i >= 0; i-- {
			// A few low IDs are the hubs; nodes past the current end grow
			// the set, sometimes by more than a leaf.
			u, v := rng.Intn(20), rng.Intn(mt.NumNodes()+3)
			if batch%40 == 39 {
				v = mt.NumNodes() + stream.DirSpan/2 + stream.LeafSize
			}
			if rng.Intn(3) == 0 {
				u = rng.Intn(mt.NumNodes())
			}
			if rng.Intn(2) == 0 {
				mt.InsertEdge(u, v)
			} else if ns := mt.Graph().Neighbors(u); len(ns) > 0 {
				mt.DeleteEdge(u, ns[rng.Intn(len(ns))])
			}
		}
		views = append(views, freeze())
		views[len(views)-1].check(t, "fresh publish")
	}
	if crossed := dirs() - firstDirs; crossed < 2 {
		t.Fatalf("the node set crossed %d directory boundaries, want at least 2", crossed)
	}
	for i, f := range views {
		f.check(t, fmt.Sprintf("view %d after all later batches", i))
	}
	checkExact(t, mt, "after churn")
}
