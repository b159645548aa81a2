package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dkcore/internal/gen"
	"dkcore/internal/graph"
)

// exportTestGraph is a small graph with a nontrivial core structure:
// a 4-clique with pendant chains.
func exportTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(9)
	edges := [][2]int{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, // clique
		{3, 4}, {4, 5}, {5, 6}, // chain
		{2, 7}, {7, 8},
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// TestApplyRejectsOutOfRangeIDs pins the bounds check on peer-supplied
// node IDs: a decoded batch may name any int, and Apply must treat an
// ID outside the graph as untracked — no panic, no improvement, no
// estimate touched — whether the host translates IDs through its dense
// table, its sparse map, or its owned range.
func TestApplyRejectsOutOfRangeIDs(t *testing.T) {
	g := exportTestGraph(t)
	parts, err := PartitionAll(g, ModuloAssignment{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	dense := parts.NewPartitionState(0)
	if dense.loc == nil || dense.hi > dense.lo {
		t.Fatal("small modulo partition of a small graph did not get the dense table alone")
	}
	blocks, err := PartitionAll(g, BlockAssignment{N: g.NumNodes(), H: 2})
	if err != nil {
		t.Fatal(err)
	}
	ranged := blocks.NewPartitionState(1)
	if ranged.lo != 5 || ranged.hi != 9 {
		t.Fatalf("block partition 1 owns the range [%d, %d), want [5, 9)", ranged.lo, ranged.hi)
	}

	// A two-node partition of a huge graph: 0 and 1 owned and adjacent,
	// with one external neighbor 2 owned elsewhere.
	const bigN = 1 << 20
	owner := func(u int) int {
		if u <= 1 {
			return 0
		}
		return 1
	}
	sparse := NewHostState(0, bigN, []int{0, 1}, []int{0, 2, 4}, []int{1, 2, 0, 2}, owner)
	if sparse.local == nil {
		t.Fatal("tiny partition of a huge graph did not get the sparse map")
	}

	for _, tc := range []struct {
		name     string
		s        *HostState
		numNodes int
	}{{"dense", dense, g.NumNodes()}, {"sparse", sparse, bigN}, {"ranged", ranged, g.NumNodes()}} {
		tc.s.InitEstimates()
		before := slices.Clone(tc.s.est)
		for _, id := range []int{-1, tc.numNodes, math.MaxInt, math.MinInt} {
			if tc.s.Apply(Batch{{Node: id, Core: 0}}) {
				t.Errorf("%s: Apply of node %d reported an improvement", tc.name, id)
			}
			if _, ok := tc.s.Estimate(id); ok {
				t.Errorf("%s: node %d reported as tracked", tc.name, id)
			}
		}
		tc.s.ImproveIfDirty()
		if !slices.Equal(before, tc.s.est) {
			t.Errorf("%s: estimates changed:\n before %v\n after  %v", tc.name, before, tc.s.est)
		}
	}
}

// TestBorderAcrossHostCounts checks the border bookkeeping on both sides
// of 64 hosts (the width of a bitmask over host IDs) under modulo and
// random table assignments: NeighborHosts is sorted and is exactly the
// set of other hosts owning a neighbor, and the first point-to-point
// collection sends host y exactly the owned nodes with a neighbor on y.
func TestBorderAcrossHostCounts(t *testing.T) {
	g := gen.GNM(600, 2400, 5)
	n := g.NumNodes()
	for _, h := range []int{1, 2, 63, 64, 65, 200} {
		rng := rand.New(rand.NewSource(int64(h)))
		table := make([]int, n)
		for u := range table {
			table[u] = rng.Intn(h)
		}
		for _, assign := range []Assignment{ModuloAssignment{H: h}, TableAssignment{Table: table, H: h}} {
			name := fmt.Sprintf("%T/H=%d", assign, h)
			parts, err := PartitionAll(g, assign)
			if err != nil {
				t.Fatal(err)
			}
			for x := 0; x < h; x++ {
				// Brute force: want[y] is the sorted set of owned nodes
				// with a neighbor on host y != x.
				want := map[int][]int{}
				for _, u := range parts.Owned(x) {
					for _, v := range g.Neighbors(u) {
						if y := assign.Host(v); y != x && !slices.Contains(want[y], u) {
							want[y] = append(want[y], u)
						}
					}
				}
				var wantHosts []int
				for y := range want {
					wantHosts = append(wantHosts, y)
				}
				slices.Sort(wantHosts)

				s := parts.NewPartitionState(x)
				if got := s.NeighborHosts(); !slices.Equal(got, wantHosts) {
					t.Fatalf("%s host %d: NeighborHosts %v, want %v", name, x, got, wantHosts)
				}
				s.InitEstimates()
				out := s.CollectPointToPoint()
				if len(out) != len(want) {
					t.Fatalf("%s host %d: batches for %d hosts, want %d", name, x, len(out), len(want))
				}
				for y, nodes := range want {
					var got []int
					for _, m := range out[y] {
						got = append(got, m.Node)
					}
					slices.Sort(got)
					slices.Sort(nodes)
					if !slices.Equal(got, nodes) {
						t.Fatalf("%s host %d -> %d: shipped %v, want %v", name, x, y, got, nodes)
					}
				}
			}
		}
	}
}

// checkSupport recounts every owned node's support — its neighbors with
// estimate at least its own — from the estimate vector, and reports the
// first counter that disagrees. A no-op on oracle hosts, which keep no
// counters.
func (s *HostState) checkSupport() error {
	if s.oracle || !s.initialized {
		return nil
	}
	for l := range s.owned {
		want := 0
		for _, lv := range s.adj(l) {
			if s.est[lv] >= s.est[l] {
				want++
			}
		}
		if int(s.sup[l]) != want {
			return fmt.Errorf("node %d (estimate %d): support counter %d, recount %d",
				s.nodes[l], s.est[l], s.sup[l], want)
		}
	}
	return nil
}

// TestInitEstimatesPeelMatchesCascade pins the round-0 seed: on every
// pool graph at 1, 4 and 70 hosts, the bin-sort peel's InitEstimates
// must land every tracked estimate exactly where the oracle's cascade
// from the degrees does, with recounted support counters. The pool's
// isolated nodes and, at 70 hosts, partitions whose every arc leads to
// a ghost (and partitions owning nothing) must all be exercised.
func TestInitEstimatesPeelMatchesCascade(t *testing.T) {
	var isolated, allGhost, empty int
	for _, hosts := range []int{1, 4, 70} {
		for _, tc := range diffPool() {
			name := fmt.Sprintf("%s/H=%d", tc.name, hosts)
			inc, orc, err := lockstepHosts(tc.g, ModuloAssignment{H: hosts})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for x := range inc {
				inc[x].InitEstimates()
				orc[x].InitEstimates()
				s := inc[x]
				local := 0
				for l := range s.owned {
					if s.degreeOf(l) == 0 {
						isolated++
					}
					for _, lv := range s.adj(l) {
						if s.ownedLocal(lv) {
							local++
						}
					}
				}
				switch {
				case len(s.owned) == 0:
					empty++
				case local == 0 && len(s.adjFlat) > 0:
					allGhost++
				}
				if inc[x].ChangedCount() != len(s.owned) {
					t.Fatalf("%s host %d: %d owned nodes marked changed, want all %d",
						name, x, inc[x].ChangedCount(), len(s.owned))
				}
			}
			compareStates(t, name, "init", tc.g, inc, orc)
		}
	}
	if isolated == 0 || allGhost == 0 || empty == 0 {
		t.Fatalf("pool exercised %d isolated nodes, %d all-ghost and %d empty partitions; want all > 0",
			isolated, allGhost, empty)
	}
}
