package core

import (
	"slices"
	"testing"

	"dkcore/internal/gen"
	"dkcore/internal/graph"
)

// naivePartition is the reference O(n·p) rescan the flat bucketing pass
// replaced: host id's sorted node set plus each owned node's global
// adjacency.
func naivePartition(g *graph.Graph, assign Assignment, id int) (owned []int, adj [][]int) {
	for u := 0; u < g.NumNodes(); u++ {
		if assign.Host(u) == id {
			owned = append(owned, u)
			adj = append(adj, g.Neighbors(u))
		}
	}
	return owned, adj
}

func TestPartitionAllMatchesNaiveRescan(t *testing.T) {
	g := gen.GNM(240, 900, 5)
	n := g.NumNodes()
	assigns := map[string]Assignment{
		"modulo":   ModuloAssignment{H: 7},
		"block":    BlockAssignment{N: n, H: 7},
		"random":   NewRandomAssignment(n, 7, 3),
		"one-host": ModuloAssignment{H: 1},
		"per-node": ModuloAssignment{H: n},
	}
	for name, assign := range assigns {
		t.Run(name, func(t *testing.T) {
			parts, err := PartitionAll(g, assign)
			if err != nil {
				t.Fatal(err)
			}
			if parts.NumParts() != assign.NumHosts() {
				t.Fatalf("NumParts = %d, want %d", parts.NumParts(), assign.NumHosts())
			}
			if parts.NumNodes() != n {
				t.Fatalf("NumNodes = %d, want %d", parts.NumNodes(), n)
			}
			for u := 0; u < n; u++ {
				if parts.HostOf(u) != assign.Host(u) {
					t.Fatalf("HostOf(%d) = %d, want %d", u, parts.HostOf(u), assign.Host(u))
				}
			}
			total := 0
			for x := 0; x < parts.NumParts(); x++ {
				wantOwned, wantAdj := naivePartition(g, assign, x)
				owned, off, flat := parts.CSR(x)
				if !slices.Equal(owned, wantOwned) {
					t.Fatalf("partition %d owned = %v, want %v", x, owned, wantOwned)
				}
				if !slices.Equal(owned, parts.Owned(x)) {
					t.Fatalf("partition %d: CSR and Owned disagree", x)
				}
				if len(off) != len(owned)+1 {
					t.Fatalf("partition %d: %d offsets for %d owned nodes", x, len(off), len(owned))
				}
				for i := range owned {
					if got := flat[off[i]:off[i+1]]; !slices.Equal(got, wantAdj[i]) {
						t.Fatalf("partition %d node %d adjacency = %v, want %v", x, owned[i], got, wantAdj[i])
					}
				}
				total += len(owned)
			}
			if total != n {
				t.Fatalf("partitions cover %d nodes, want %d", total, n)
			}
		})
	}
}

// TestPartitionViewsDoNotAliasGraph is the regression test for the
// aliasing hazard the map-based Partition had: its adjacency values were
// the graph's internal CSR rows, so sorting or scribbling over a
// partition view silently corrupted the shared graph. PartitionAll must
// copy.
func TestPartitionViewsDoNotAliasGraph(t *testing.T) {
	g := gen.GNM(80, 300, 11)
	pristine := g.Clone()
	parts, err := PartitionAll(g, ModuloAssignment{H: 4})
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < parts.NumParts(); x++ {
		owned, off, flat := parts.CSR(x)
		if len(owned) == 0 {
			continue
		}
		for i := off[0]; i < off[len(owned)]; i++ {
			flat[i] = -1
		}
		ov := parts.Owned(x)
		for i := range ov {
			ov[i] = -1
		}
	}
	if !g.Equal(pristine) {
		t.Fatalf("mutating partition views corrupted the source graph")
	}
}

func TestPartitionAllRejectsBadAssignments(t *testing.T) {
	g := gen.Chain(10)
	if _, err := PartitionAll(g, ModuloAssignment{H: 0}); err == nil {
		t.Fatalf("zero-host assignment accepted")
	}
	if _, err := PartitionAll(g, stuckAssignment{h: 3, to: 3}); err == nil {
		t.Fatalf("out-of-range host accepted")
	}
	if _, err := PartitionAll(g, stuckAssignment{h: 3, to: -1}); err == nil {
		t.Fatalf("negative host accepted")
	}
}

// stuckAssignment claims h hosts but routes every node to host `to`.
type stuckAssignment struct{ h, to int }

func (a stuckAssignment) Host(int) int  { return a.to }
func (a stuckAssignment) NumHosts() int { return a.h }

func TestPartitionAllEmptyGraphAndEmptyPartitions(t *testing.T) {
	empty, err := PartitionAll(&graph.Graph{}, ModuloAssignment{H: 3})
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < 3; x++ {
		owned, off, _ := empty.CSR(x)
		if len(owned) != 0 || len(off) != 1 {
			t.Fatalf("empty graph partition %d: owned=%v off=%v", x, owned, off)
		}
		s := empty.NewPartitionState(x)
		s.InitEstimates()
		if s.HasChanges() {
			t.Fatalf("empty partition %d reports changes", x)
		}
	}

	// More hosts than nodes: the high partitions are empty but valid.
	g := gen.Chain(2)
	parts, err := PartitionAll(g, ModuloAssignment{H: 5})
	if err != nil {
		t.Fatal(err)
	}
	for x := 2; x < 5; x++ {
		if len(parts.Owned(x)) != 0 {
			t.Fatalf("partition %d should be empty", x)
		}
	}
}

// TestBlockRangeMatchesHost: the ranges of a block assignment tile
// [0, N) in host order, and each holds exactly the nodes Host sends to
// its host. A node count near the int range must not wrap.
func TestBlockRangeMatchesHost(t *testing.T) {
	for _, a := range []BlockAssignment{
		{N: 0, H: 1}, {N: 0, H: 3}, {N: 1, H: 1}, {N: 5, H: 4}, {N: 10, H: 3}, {N: 40, H: 16}, {N: 7, H: 9},
	} {
		next := 0
		for h := 0; h < a.H; h++ {
			lo, hi := a.Range(h)
			if lo != next || hi < lo || hi > a.N {
				t.Fatalf("%+v: host %d range [%d, %d) after %d", a, h, lo, hi, next)
			}
			for u := lo; u < hi; u++ {
				if a.Host(u) != h {
					t.Fatalf("%+v: node %d in host %d's range, Host says %d", a, u, h, a.Host(u))
				}
			}
			next = hi
		}
		if next != a.N {
			t.Fatalf("%+v: ranges end at %d", a, next)
		}
	}
	huge := BlockAssignment{N: 1<<63 - 1, H: 2}
	if lo, hi := huge.Range(1); lo != 1<<62 || hi != huge.N || huge.Host(lo) != 1 || huge.Host(lo-1) != 0 {
		t.Fatalf("huge range [%d, %d)", lo, hi)
	}
}
