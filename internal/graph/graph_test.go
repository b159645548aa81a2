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
