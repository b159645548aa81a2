package stream

import (
	"sort"

	"dkcore/internal/graph"
)

// The O(n) vectors a View shares with its predecessors — coreness and
// adjacency-row headers — are cut into fixed-size pages behind a page
// table, so freezing the state after a batch copies the table and the
// pages the batch wrote, never the vectors. At 512 entries a one-event
// publish (two 12 KiB row pages, now and then a 4 KiB coreness page)
// stays near 30 KiB, and the tables, 1/512 of the vectors they index,
// weigh less than that up to a million nodes.
const (
	pageShift = 9
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// pageTable is the published form of one O(n) vector: entry u lives at
// [u>>pageShift][u&pageMask]. Pages are written only while Publish
// builds them and are immutable from then on; consecutive tables share
// every page that did not change between them.
type pageTable[T any] []*[pageSize]T

func (t pageTable[T]) at(u int) T { return t[u>>pageShift][u&pageMask] }

// republish returns the table for flat's current content: prev's pages,
// except that every page listed in dirty is copied fresh out of flat.
// Pages beyond prev must be listed (Maintainer.grow marks them).
func republish[T any](prev pageTable[T], flat []T, dirty []int) pageTable[T] {
	t := make(pageTable[T], (len(flat)+pageMask)>>pageShift)
	copy(t, prev)
	for _, p := range dirty {
		pg := new([pageSize]T)
		copy(pg[:], flat[p<<pageShift:])
		t[p] = pg
	}
	return t
}

// dirtyPages records which pages of one vector the maintainer has
// written since the last Publish. gen holds, per page, the publish
// generation it was last marked in, so a Publish clears the whole set by
// bumping the generation.
type dirtyPages struct {
	gen  []int
	list []int
}

// mark notes that entry u was written in generation gen.
func (d *dirtyPages) mark(u, gen int) {
	if p := u >> pageShift; d.gen[p] != gen {
		d.gen[p] = gen
		d.list = append(d.list, p)
	}
}

// View is the immutable state of a Maintainer as of one Publish call:
// node and edge counts, degeneracy, per-node coreness and the edge set.
// All methods are read-only and safe for concurrent use, including
// while the Maintainer that published the View keeps mutating: a row or
// page reachable from a View is never written again.
type View struct {
	n, m, maxCore int
	core          pageTable[int]
	rows          pageTable[[]int]
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
	for p, pg := range v.core {
		copy(out[p<<pageShift:], pg[:])
	}
	return out
}

// CoreMembers returns the sorted IDs of every node with coreness >= k.
// k <= 0 returns every node.
func (v *View) CoreMembers(k int) []int {
	var out []int
	for p, pg := range v.core {
		base := p << pageShift
		for i, c := range pg[:min(pageSize, v.n-base)] {
			if c >= k {
				out = append(out, base+i)
			}
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
