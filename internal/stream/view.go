package stream

import (
	"sort"

	"dkcore/internal/graph"
)

// The O(n) vectors a View shares with its predecessors — coreness and
// adjacency-row headers — are cut into 16-entry leaves under 64-pointer
// directories, so freezing the state after a batch copies the root (one
// pointer per 1024 entries), each directory the batch wrote under (512
// B) and each leaf it wrote (128 B of coreness, 384 B of row headers),
// never the vectors. Random traffic dirties a leaf, and often a
// directory, per entry written: about 4 KiB for a one-event publish at
// 20k nodes, 2.3-2.9 KiB per event in a 16-event frame at 50k-300k.
const (
	leafShift = 4
	leafSize  = 1 << leafShift
	leafMask  = leafSize - 1
	dirShift  = 6 // leaves per directory, as a shift
	dirMask   = 1<<dirShift - 1
	spanShift = leafShift + dirShift // entries per directory, as a shift
	spanMask  = 1<<spanShift - 1
)

// cowTable is the published form of one O(n) vector: entry u lives at
// [u>>spanShift][u>>leafShift&dirMask][u&leafMask]. Directories and
// leaves are written only while Publish builds them and are immutable
// from then on; consecutive tables share every directory and leaf that
// did not change between them. A directory's slots past the vector's
// end are nil.
type cowTable[T any] []*[1 << dirShift]*[leafSize]T

func (t cowTable[T]) at(u int) T { return t[u>>spanShift][u>>leafShift&dirMask][u&leafMask] }

// republish returns the table for flat's current content: prev's
// directories and leaves, except that every leaf listed in dirty is
// copied fresh out of flat, under a fresh copy of its directory. Leaves
// beyond prev must be listed (Maintainer.grow marks them).
func republish[T any](prev cowTable[T], flat []T, dirty []int) cowTable[T] {
	t := make(cowTable[T], (len(flat)+spanMask)>>spanShift)
	for d := copy(t, prev); d < len(t); d++ {
		t[d] = new([1 << dirShift]*[leafSize]T)
	}
	for _, l := range dirty {
		d := l >> dirShift
		if d < len(prev) && t[d] == prev[d] { // the first dirty leaf under a shared directory
			dir := *t[d]
			t[d] = &dir
		}
		lf := new([leafSize]T)
		copy(lf[:], flat[l<<leafShift:])
		t[d][l&dirMask] = lf
	}
	return t
}

// dirtyLeaves records which leaves of one vector the maintainer has
// written since the last Publish. gen holds, per leaf, the publish
// generation it was last marked in, so a Publish clears the whole set by
// bumping the generation.
type dirtyLeaves struct {
	gen  []int
	list []int
}

// mark notes that entry u was written in generation gen.
func (d *dirtyLeaves) mark(u, gen int) {
	if l := u >> leafShift; d.gen[l] != gen {
		d.gen[l] = gen
		d.list = append(d.list, l)
	}
}

// View is the immutable state of a Maintainer as of one Publish call:
// node and edge counts, degeneracy, per-node coreness and the edge set.
// All methods are read-only and safe for concurrent use, including
// while the Maintainer that published the View keeps mutating: a row,
// leaf or directory reachable from a View is never written again.
type View struct {
	n, m, maxCore int
	core          cowTable[int]
	rows          cowTable[[]int]
}

// NumNodes returns the node count.
func (v *View) NumNodes() int { return v.n }

// NumEdges returns the undirected edge count.
func (v *View) NumEdges() int { return v.m }

// MaxCoreness returns the degeneracy.
func (v *View) MaxCoreness() int { return v.maxCore }

// Coreness returns the coreness of node u, or 0 for unknown nodes.
func (v *View) Coreness(u int) int {
	if u < 0 || u >= v.n {
		return 0
	}
	return v.core.at(u)
}

// CorenessValues returns a copy of the per-node coreness array.
func (v *View) CorenessValues() []int {
	out := make([]int, v.n)
	for u := range out {
		out[u] = v.core.at(u)
	}
	return out
}

// CoreMembers returns the sorted IDs of every node with coreness >= k.
// k <= 0 returns every node.
func (v *View) CoreMembers(k int) []int {
	var out []int
	for u := 0; u < v.n; u++ {
		if v.core.at(u) >= k {
			out = append(out, u)
		}
	}
	return out
}

// HasEdge reports whether the undirected edge {u, w} is present.
func (v *View) HasEdge(u, w int) bool {
	if u < 0 || w < 0 || u >= v.n || w >= v.n {
		return false
	}
	return rowHas(v.rows.at(u), w)
}

// Graph materializes the edge set as a CSR graph owned by the caller.
func (v *View) Graph() *graph.Graph { return graph.FromSortedRows(v.n, v.rows.at) }

// rowHas reports whether the sorted row ns contains w.
func rowHas(ns []int, w int) bool {
	i := sort.SearchInts(ns, w)
	return i < len(ns) && ns[i] == w
}
