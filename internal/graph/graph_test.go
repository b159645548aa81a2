package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// pathGraph returns the path 0-1-2-...-(n-1).
func pathGraph(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

// randomGraph returns a seeded G(n, m)-style multigraph input (duplicates
// and self-loops included on purpose, to exercise Builder cleanup).
func randomGraph(n, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return b.Build()
}

func TestEmptyGraph(t *testing.T) {
	var g Graph
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("zero Graph: got %d nodes %d edges, want 0/0", g.NumNodes(), g.NumEdges())
	}
	if g.MaxDegree() != 0 || g.MinDegree() != 0 || g.AvgDegree() != 0 {
		t.Fatalf("zero Graph degree stats should all be 0")
	}
	built := NewBuilder(0).Build()
	if built.NumNodes() != 0 {
		t.Fatalf("empty Builder: got %d nodes, want 0", built.NumNodes())
	}
}

func TestBuilderDropsSelfLoopsAndDuplicates(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate in reverse order
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self-loop
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("got %d edges, want 1", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatalf("edge {0,1} missing")
	}
	if g.HasEdge(2, 2) {
		t.Fatalf("self-loop survived")
	}
	if g.Degree(2) != 0 {
		t.Fatalf("node 2 degree = %d, want 0", g.Degree(2))
	}
}

func TestBuilderGrowsNodeCount(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(5, 9)
	g := b.Build()
	if g.NumNodes() != 10 {
		t.Fatalf("got %d nodes, want 10", g.NumNodes())
	}
	b.EnsureNodes(20)
	if got := b.Build().NumNodes(); got != 20 {
		t.Fatalf("after EnsureNodes: got %d nodes, want 20", got)
	}
}

// TestBuildMatchesReference holds the counting-pass Build to the sorting
// reference on random edge lists with self-loops, duplicates, both
// endpoint orders and trailing isolated nodes, and checks that the result
// holds no capacity for the duplicates it dropped.
func TestBuildMatchesReference(t *testing.T) {
	check := func(seed int64, nRaw, mRaw, extraRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%40 + 1
		b := NewBuilder(0)
		for i := 0; i < int(mRaw); i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			switch rng.Intn(4) {
			case 0:
				v = u // self-loop
			case 1:
				b.AddEdge(v, u) // the same edge twice, reversed
			}
			b.AddEdge(u, v)
		}
		b.EnsureNodes(b.NumNodes() + int(extraRaw)%5)
		got, want := b.Build(), referenceBuild(b)
		if !got.Equal(want) || len(got.adj) != cap(got.adj) {
			t.Logf("seed %d: n %d, %d edges added: got %v / %v, want %v / %v",
				seed, n, b.NumEdgesAdded(), got.offsets, got.adj, want.offsets, want.adj)
			return false
		}
		return b.Build().Equal(want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderPanicsOnNegativeID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("AddEdge(-1, 0) did not panic")
		}
	}()
	NewBuilder(1).AddEdge(-1, 0)
}

// TestBuilderPanicsAtIDCeiling: MaxNodes-1 is the largest ID AddEdge
// takes, in either endpoint.
func TestBuilderPanicsAtIDCeiling(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(MaxNodes-1, 0)
	if b.NumNodes() != MaxNodes {
		t.Fatalf("AddEdge(MaxNodes-1, 0): %d nodes, want MaxNodes", b.NumNodes())
	}
	for _, e := range [][2]int{{MaxNodes, 0}, {0, MaxNodes}, {1 << 40, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddEdge(%d, %d) did not panic", e[0], e[1])
				}
			}()
			NewBuilder(1).AddEdge(e[0], e[1])
		}()
	}
}

// multiChunkEdges returns m edges on n nodes for the parallel Build: a
// few hubs, duplicates and self-loops, including across and at every
// chunk boundary.
func multiChunkEdges(n, m int, seed int64) [][2]int {
	rng := rand.New(rand.NewSource(seed))
	edges := make([][2]int, 0, m)
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if rng.Intn(4) == 0 {
			u = rng.Intn(8) // hub
		}
		switch at := i % chunkEdges; {
		case at == 0 && i > 0: // the previous chunk's last edge, reversed
			u, v = edges[i-1][1], edges[i-1][0]
		case at == chunkEdges-1: // a self-loop ends every chunk
			v = u
		case i > 0 && rng.Intn(8) == 0: // an earlier edge, either way round
			prev := edges[rng.Intn(len(edges))]
			u, v = prev[0], prev[1]
			if rng.Intn(2) == 0 {
				u, v = v, u
			}
		case rng.Intn(16) == 0:
			v = u
		}
		edges = append(edges, [2]int{u, v})
	}
	return edges
}

// TestBuildWorkersMatchReference holds the parallel Build to the sorting
// reference at 1, 2, 3 and 8 workers, on edge lists that end just before,
// at and just after a chunk boundary and that span several chunks.
func TestBuildWorkersMatchReference(t *testing.T) {
	const n = 3000
	edges := multiChunkEdges(n, chunkEdges*7/2, 1)
	for _, m := range []int{chunkEdges - 1, chunkEdges, chunkEdges + 1, len(edges)} {
		b := NewBuilder(n + 3) // trailing isolated nodes
		for _, e := range edges[:m] {
			b.AddEdge(e[0], e[1])
		}
		want := referenceBuild(b)
		for _, workers := range []int{1, 2, 3, 8} {
			got := b.build(workers)
			if !got.Equal(want) || len(got.adj) != cap(got.adj) {
				t.Fatalf("%d edges, %d workers: %d nodes / %d edges, reference %d / %d",
					m, workers, got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
			}
		}
	}
}

// TestBuildAllSelfLoops: a multi-chunk list of self-loops builds the
// edgeless graph on its nodes at any worker count.
func TestBuildAllSelfLoops(t *testing.T) {
	b := NewBuilder(0)
	for i := 0; i < 2*chunkEdges+5; i++ {
		b.AddEdge(i%100, i%100)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		if g := b.build(workers); g.NumNodes() != 100 || g.NumEdges() != 0 {
			t.Fatalf("%d workers: %d nodes / %d edges, want 100 / 0", workers, g.NumNodes(), g.NumEdges())
		}
	}
}

// TestBuildSnapshot: Build leaves the Builder usable, and the graph it
// returned does not change when more edges are added and built.
func TestBuildSnapshot(t *testing.T) {
	const n = 2000
	edges := multiChunkEdges(n, 3*chunkEdges, 2)
	b := NewBuilder(0)
	for _, e := range edges[:chunkEdges*3/2] {
		b.AddEdge(e[0], e[1])
	}
	first, firstWant := b.Build(), referenceBuild(b)
	for _, e := range edges[chunkEdges*3/2:] {
		b.AddEdge(e[0], e[1])
	}
	b.AddEdge(n+1, n+2)
	second := b.Build()
	if !first.Equal(firstWant) {
		t.Fatalf("first snapshot changed after more edges were added and built")
	}
	if !second.Equal(referenceBuild(b)) || !second.HasEdge(n+1, n+2) {
		t.Fatalf("second snapshot: %d nodes / %d edges, reference %d / %d",
			second.NumNodes(), second.NumEdges(), referenceBuild(b).NumNodes(), referenceBuild(b).NumEdges())
	}
}

func TestNeighborsSortedProperty(t *testing.T) {
	check := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw)%50 + 2
		m := int(mRaw) * 3
		g := randomGraph(n, m, seed)
		for u := 0; u < g.NumNodes(); u++ {
			ns := g.Neighbors(u)
			if !sort.IntsAreSorted(ns) {
				return false
			}
			for i := 1; i < len(ns); i++ {
				if ns[i] == ns[i-1] {
					return false // duplicate neighbor
				}
			}
			for _, v := range ns {
				if v == u {
					return false // self-loop
				}
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAdjacencySymmetryProperty(t *testing.T) {
	check := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw)%50 + 2
		m := int(mRaw) * 3
		g := randomGraph(n, m, seed)
		for u := 0; u < g.NumNodes(); u++ {
			for _, v := range g.Neighbors(u) {
				if !g.HasEdge(v, u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeSumEqualsTwiceEdges(t *testing.T) {
	g := randomGraph(100, 300, 7)
	sum := 0
	for _, d := range g.Degrees() {
		sum += d
	}
	if sum != 2*g.NumEdges() {
		t.Fatalf("degree sum %d != 2*edges %d", sum, 2*g.NumEdges())
	}
	if sum != g.NumArcs() {
		t.Fatalf("degree sum %d != arcs %d", sum, g.NumArcs())
	}
}

func TestHasEdgeOutOfRange(t *testing.T) {
	g := pathGraph(3)
	for _, uv := range [][2]int{{-1, 0}, {0, -1}, {3, 0}, {0, 3}} {
		if g.HasEdge(uv[0], uv[1]) {
			t.Errorf("HasEdge(%d,%d) = true, want false", uv[0], uv[1])
		}
	}
}

func TestEdgesIterationAndEarlyStop(t *testing.T) {
	g := pathGraph(5)
	var got [][2]int
	g.Edges(func(u, v int) bool {
		got = append(got, [2]int{u, v})
		return true
	})
	want := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}
	if len(got) != len(want) {
		t.Fatalf("got %d edges, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d: got %v, want %v", i, got[i], want[i])
		}
	}
	count := 0
	g.Edges(func(u, v int) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop: visited %d edges, want 2", count)
	}
}

func TestCloneAndEqual(t *testing.T) {
	g := randomGraph(40, 120, 3)
	h := g.Clone()
	if !g.Equal(h) {
		t.Fatalf("clone not equal to original")
	}
	// Mutating the clone's storage must not affect the original.
	if h.NumArcs() > 0 {
		h.adj[0] = (h.adj[0] + 1) % h.NumNodes()
		if g.Equal(h) && g.adj[0] == h.adj[0] {
			t.Fatalf("clone shares storage with original")
		}
	}
	other := pathGraph(40)
	if g.Equal(other) && g.NumEdges() != other.NumEdges() {
		t.Fatalf("Equal returned true for different graphs")
	}
}

func TestSumSquaredDegrees(t *testing.T) {
	// Star with 4 leaves: center degree 4, leaves degree 1 -> 16 + 4 = 20.
	b := NewBuilder(5)
	for i := 1; i < 5; i++ {
		b.AddEdge(0, i)
	}
	g := b.Build()
	if got := g.SumSquaredDegrees(); got != 20 {
		t.Fatalf("SumSquaredDegrees = %d, want 20", got)
	}
}

func TestFromEdges(t *testing.T) {
	g := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("got %d nodes %d edges, want 4/4", g.NumNodes(), g.NumEdges())
	}
	for u := 0; u < 4; u++ {
		if g.Degree(u) != 2 {
			t.Fatalf("node %d degree = %d, want 2", u, g.Degree(u))
		}
	}
}

// TestFromSortedRows: the direct CSR constructor must agree with the
// Builder on every graph whose rows it is handed, isolated nodes and the
// empty graph included, and must not retain the rows.
func TestFromSortedRows(t *testing.T) {
	for _, want := range []*Graph{NewBuilder(0).Build(), NewBuilder(5).Build(), pathGraph(7), randomGraph(200, 900, 3)} {
		rows := make([][]int, want.NumNodes())
		for u := range rows {
			rows[u] = append([]int(nil), want.Neighbors(u)...)
		}
		got := FromSortedRows(len(rows), func(u int) []int { return rows[u] })
		if !got.Equal(want) {
			t.Fatalf("FromSortedRows differs from Builder on %d nodes / %d edges", want.NumNodes(), want.NumEdges())
		}
		for u := range rows {
			for i := range rows[u] {
				rows[u][i] = -1
			}
		}
		if !got.Equal(want) {
			t.Fatalf("FromSortedRows retained a caller's row")
		}
	}
}
