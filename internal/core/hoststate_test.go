package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dkcore/internal/gen"
)

// TestApplyRejectsOutOfRangeIDs pins the bounds check on peer-supplied
// node IDs: a decoded batch may name any int, and Apply must treat an
// ID outside the graph as untracked — no panic, no improvement, no
// estimate touched — whether the host translates IDs through its dense
// table or its sparse map.
func TestApplyRejectsOutOfRangeIDs(t *testing.T) {
	g := exportTestGraph(t)
	parts, err := PartitionAll(g, ModuloAssignment{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	dense := parts.NewPartitionState(0)
	if dense.loc == nil {
		t.Fatal("small partition of a small graph did not get the dense table")
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
	}{{"dense", dense, g.NumNodes()}, {"sparse", sparse, bigN}} {
		tc.s.InitEstimates()
		before := tc.s.ExportEstimates(nil)
		for _, id := range []int{-1, tc.numNodes, math.MaxInt, math.MinInt} {
			if tc.s.Apply(Batch{{Node: id, Core: 0}}) {
				t.Errorf("%s: Apply of node %d reported an improvement", tc.name, id)
			}
			if _, ok := tc.s.Estimate(id); ok {
				t.Errorf("%s: node %d reported as tracked", tc.name, id)
			}
		}
		tc.s.ImproveIfDirty()
		if after := tc.s.ExportEstimates(nil); !slices.Equal(before, after) {
			t.Errorf("%s: estimates changed:\n before %v\n after  %v", tc.name, before, after)
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
