package stream_test

import (
	"errors"
	"math/rand"
	"testing"

	"dkcore/internal/gen"
	"dkcore/internal/graph"
	"dkcore/internal/kcore"
	"dkcore/internal/stream"
)

// checkExact asserts that mt's coreness matches a full decomposition of
// its current graph.
func checkExact(t *testing.T, mt *stream.Maintainer, context string) {
	t.Helper()
	g := mt.Graph()
	want := kcore.Decompose(g).CorenessValues()
	for u, w := range want {
		if got := mt.Coreness(u); got != w {
			t.Fatalf("%s: node %d: coreness %d, want %d (n=%d m=%d)",
				context, u, got, w, g.NumNodes(), g.NumEdges())
		}
	}
	if err := kcore.VerifyLocality(g, mt.CorenessValues()[:g.NumNodes()]); err != nil {
		t.Fatalf("%s: %v", context, err)
	}
}

func TestMaintainerPaperExample(t *testing.T) {
	// Build the paper's Figure-2 graph edge by edge from empty.
	edges := [][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 4}, {4, 5}}
	mt := stream.NewMaintainer(&graph.Graph{})
	for _, e := range edges {
		if !mt.InsertEdge(e[0], e[1]) {
			t.Fatalf("insert %v rejected", e)
		}
		checkExact(t, mt, "after insert")
	}
	want := []int{1, 2, 2, 2, 2, 1}
	for u, w := range want {
		if mt.Coreness(u) != w {
			t.Fatalf("node %d: coreness %d, want %d", u, mt.Coreness(u), w)
		}
	}
	// Tear it down edge by edge.
	for _, e := range edges {
		if !mt.DeleteEdge(e[0], e[1]) {
			t.Fatalf("delete %v rejected", e)
		}
		checkExact(t, mt, "after delete")
	}
	if mt.NumEdges() != 0 || mt.MaxCoreness() != 0 {
		t.Fatalf("teardown left %d edges, max coreness %d", mt.NumEdges(), mt.MaxCoreness())
	}
}

func TestMaintainerRejectsInvalid(t *testing.T) {
	mt := stream.NewMaintainer(graph.FromEdges(3, [][2]int{{0, 1}}))
	if mt.InsertEdge(1, 1) {
		t.Fatal("self-loop accepted")
	}
	if mt.InsertEdge(-1, 2) || mt.InsertEdge(2, -7) {
		t.Fatal("negative endpoint accepted")
	}
	if mt.InsertEdge(0, 1) || mt.InsertEdge(1, 0) {
		t.Fatal("duplicate edge accepted")
	}
	if mt.DeleteEdge(0, 2) {
		t.Fatal("deleted an absent edge")
	}
	if mt.DeleteEdge(5, 6) {
		t.Fatal("deleted an edge between unknown nodes")
	}
	if mt.NumEdges() != 1 {
		t.Fatalf("edge count drifted to %d", mt.NumEdges())
	}
}

// TestMaintainerOutOfRangeDeletesAreNoOps pins the tolerance contract:
// deleting with endpoints beyond the current node count, with negative
// endpoints, or for an absent edge must be a silent no-op — never a
// panic, never a node-set growth — whether issued directly or replayed
// through Apply.
func TestMaintainerOutOfRangeDeletesAreNoOps(t *testing.T) {
	mt := stream.NewMaintainer(graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}}))
	deletes := [][2]int{
		{0, 99},    // v beyond node count
		{99, 0},    // u beyond node count
		{100, 200}, // both beyond node count
		{-1, 1},    // negative u
		{1, -1},    // negative v
		{-5, -6},   // both negative
		{0, 2},     // absent edge between known nodes
		{3, 3},     // self-loop on a known node
		{500, 500}, // self-loop beyond node count
		{0, 0},     // self-loop on node 0
	}
	for _, d := range deletes {
		if mt.DeleteEdge(d[0], d[1]) {
			t.Fatalf("DeleteEdge(%d, %d) reported a change", d[0], d[1])
		}
		if mt.Apply(stream.Event{Op: stream.OpDelete, U: d[0], V: d[1]}) {
			t.Fatalf("Apply(delete %d %d) reported a change", d[0], d[1])
		}
	}
	if mt.NumNodes() != 4 || mt.NumEdges() != 2 {
		t.Fatalf("no-op deletes drifted state: n=%d m=%d, want 4/2", mt.NumNodes(), mt.NumEdges())
	}
	checkExact(t, mt, "after no-op deletes")
}

// TestMaintainerDeleteReinsertRoundTrip deletes every edge of a graph in
// one order and reinserts in another: after the round trip the coreness
// must match the original decomposition exactly, and a second delete of
// an already-deleted edge mid-stream must stay a no-op.
func TestMaintainerDeleteReinsertRoundTrip(t *testing.T) {
	g := gen.GNM(60, 220, 13)
	mt := stream.NewMaintainer(g)
	want := kcore.Decompose(g).CorenessValues()

	var edges [][2]int
	g.Edges(func(u, v int) bool { edges = append(edges, [2]int{u, v}); return true })
	for _, e := range edges {
		if !mt.DeleteEdge(e[0], e[1]) {
			t.Fatalf("delete %v rejected", e)
		}
		if mt.DeleteEdge(e[0], e[1]) {
			t.Fatalf("double delete %v reported a change", e)
		}
	}
	if mt.NumEdges() != 0 {
		t.Fatalf("%d edges left after deleting all", mt.NumEdges())
	}
	for u := 0; u < g.NumNodes(); u++ {
		if mt.Coreness(u) != 0 {
			t.Fatalf("node %d has coreness %d on the empty edge set", u, mt.Coreness(u))
		}
	}
	// Reinsert back-to-front through the event path.
	for i := len(edges) - 1; i >= 0; i-- {
		if !mt.Apply(stream.Event{Op: stream.OpInsert, U: edges[i][0], V: edges[i][1]}) {
			t.Fatalf("reinsert %v rejected", edges[i])
		}
	}
	for u, w := range want {
		if mt.Coreness(u) != w {
			t.Fatalf("after round trip node %d: coreness %d, want %d", u, mt.Coreness(u), w)
		}
	}
	checkExact(t, mt, "after delete-then-reinsert round trip")
}

func TestMaintainerGrowsNodeSet(t *testing.T) {
	mt := stream.NewMaintainer(graph.FromEdges(2, [][2]int{{0, 1}}))
	if !mt.InsertEdge(7, 3) {
		t.Fatal("insert to new nodes rejected")
	}
	if mt.NumNodes() != 8 {
		t.Fatalf("NumNodes = %d, want 8", mt.NumNodes())
	}
	if mt.Coreness(7) != 1 || mt.Coreness(5) != 0 {
		t.Fatalf("coreness after growth: node7=%d node5=%d", mt.Coreness(7), mt.Coreness(5))
	}
	checkExact(t, mt, "after growth")
}

// TestMaintainerTriangleCascade exercises the insertion peel where part of
// the region must stay behind: closing a chain into a triangle with a tail
// raises only the triangle.
func TestMaintainerTriangleCascade(t *testing.T) {
	mt := stream.NewMaintainer(gen.Chain(5)) // 0-1-2-3-4, all coreness 1
	mt.InsertEdge(0, 2)
	want := []int{2, 2, 2, 1, 1}
	for u, w := range want {
		if mt.Coreness(u) != w {
			t.Fatalf("node %d: coreness %d, want %d", u, mt.Coreness(u), w)
		}
	}
	// Deleting a triangle edge cascades the 2-core away again.
	mt.DeleteEdge(1, 2)
	for u := 0; u < 5; u++ {
		if got := mt.Coreness(u); got != 1 {
			t.Fatalf("node %d: coreness %d, want 1", u, got)
		}
	}
	checkExact(t, mt, "after cascade")
}

// TestMaintainerRandomChurn is the headline exactness guarantee: after any
// seeded random sequence of >= 1k insert/delete events, coreness equals a
// full decomposition of the final graph. Intermediate checkpoints guard
// against compensating errors.
func TestMaintainerRandomChurn(t *testing.T) {
	const nodes, events = 120, 1200
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mt := stream.NewMaintainer(gen.GNM(nodes, 3*nodes, seed))
		present := make(map[[2]int]bool)
		mt.Graph().Edges(func(u, v int) bool {
			present[[2]int{u, v}] = true
			return true
		})
		var live [][2]int
		for e := range present {
			live = append(live, e)
		}
		applied := 0
		for i := 0; i < events; i++ {
			if len(live) > 0 && rng.Intn(2) == 0 {
				j := rng.Intn(len(live))
				e := live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				delete(present, e)
				if !mt.DeleteEdge(e[0], e[1]) {
					t.Fatalf("seed %d: delete %v rejected", seed, e)
				}
				applied++
			} else {
				u, v := rng.Intn(nodes), rng.Intn(nodes)
				if u == v {
					continue
				}
				if u > v {
					u, v = v, u
				}
				key := [2]int{u, v}
				if present[key] {
					continue
				}
				present[key] = true
				live = append(live, key)
				if !mt.InsertEdge(u, v) {
					t.Fatalf("seed %d: insert %v rejected", seed, key)
				}
				applied++
			}
			if i%200 == 199 {
				checkExact(t, mt, "checkpoint")
			}
		}
		if applied < 1000 {
			t.Fatalf("seed %d: only %d events applied", seed, applied)
		}
		checkExact(t, mt, "final")
		if mt.NumEdges() != len(present) {
			t.Fatalf("seed %d: edge count %d, want %d", seed, mt.NumEdges(), len(present))
		}
	}
}

// TestMaintainerDenseFamilies drives churn on structured graphs whose
// regions are large (cliques, tori), stressing both traversal directions.
func TestMaintainerDenseFamilies(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"complete": gen.Complete(20),
		"torus":    gen.Torus(6, 6),
		"caveman":  gen.Caveman(5, 6),
		"ba":       gen.BarabasiAlbert(150, 4, 7),
	}
	for name, g := range graphs {
		mt := stream.NewMaintainer(g)
		rng := rand.New(rand.NewSource(42))
		var edges [][2]int
		g.Edges(func(u, v int) bool { edges = append(edges, [2]int{u, v}); return true })
		// Delete a third of the edges, then re-insert them.
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		third := edges[:len(edges)/3]
		for _, e := range third {
			mt.DeleteEdge(e[0], e[1])
		}
		checkExact(t, mt, name+" after deletions")
		for _, e := range third {
			mt.InsertEdge(e[0], e[1])
		}
		checkExact(t, mt, name+" after reinsertion")
		truth := kcore.Decompose(g).CorenessValues()
		for u, w := range truth {
			if mt.Coreness(u) != w {
				t.Fatalf("%s: node %d: coreness %d after round trip, want %d", name, u, mt.Coreness(u), w)
			}
		}
	}
}

func TestMaintainerSnapshotMatchesSource(t *testing.T) {
	g := gen.GNM(80, 200, 9)
	mt := stream.NewMaintainer(g)
	if !mt.Graph().Equal(g) {
		t.Fatal("fresh snapshot differs from the source graph")
	}
	mt.InsertEdge(0, 79)
	if mt.Graph().Equal(g) {
		t.Fatal("snapshot ignored a mutation")
	}
	if mt.HasEdge(0, 79) != true || mt.HasEdge(79, 0) != true {
		t.Fatal("HasEdge misses the inserted edge")
	}
}

// TestNewMaintainerFromCorenessCertifies: the seed check is exact. A
// triangle labelled all 1s and the fixpoint the paper's cascade reaches
// on a ring after one estimate is lowered both pass Theorem 1's local
// check, but neither is the coreness, so both are rejected with
// Certify's *kcore.LevelError wrapped.
func TestNewMaintainerFromCorenessCertifies(t *testing.T) {
	ring := gen.Ring(10)
	lowered := kcore.Decompose(ring).CorenessValues()
	lowered[0] = 1
	for changed := true; changed; {
		changed = false
		for u := range lowered {
			// The h-index of u's neighbors' estimates, capped at its own.
			k := lowered[u]
			for ; k > 0; k-- {
				atLeast := 0
				for _, v := range ring.Neighbors(u) {
					if lowered[v] >= k {
						atLeast++
					}
				}
				if atLeast >= k {
					break
				}
			}
			if k < lowered[u] {
				lowered[u], changed = k, true
			}
		}
	}
	for name, tc := range map[string]struct {
		g     *graph.Graph
		claim []int
	}{
		"all-ones triangle": {gen.Complete(3), []int{1, 1, 1}},
		"lowered fixpoint":  {ring, lowered},
	} {
		if err := kcore.VerifyLocality(tc.g, tc.claim); err != nil {
			t.Fatalf("%s: VerifyLocality: %v, want it to pass", name, err)
		}
		_, err := stream.NewMaintainerFromCoreness(tc.g, tc.claim)
		var le *kcore.LevelError
		if !errors.As(err, &le) {
			t.Fatalf("%s %v: %v, want a wrapped *kcore.LevelError", name, tc.claim, err)
		}
	}
	if _, err := stream.NewMaintainerFromCoreness(ring, kcore.Decompose(ring).CorenessValues()); err != nil {
		t.Fatalf("the coreness rejected: %v", err)
	}
}
