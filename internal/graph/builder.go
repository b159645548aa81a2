package graph

import "fmt"

// Builder accumulates edges and produces an immutable Graph.
//
// Self-loops are dropped and duplicate edges are collapsed at Build time,
// so the result is always a simple undirected graph. The zero value is
// ready to use; node count grows automatically to cover the largest
// endpoint mentioned by AddEdge, and can be raised explicitly with
// EnsureNodes (to allow isolated nodes).
type Builder struct {
	n     int
	edges [][2]int
}

// NewBuilder returns a Builder for a graph with at least n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// EnsureNodes grows the node count to at least n.
func (b *Builder) EnsureNodes(n int) {
	if n > b.n {
		b.n = n
	}
}

// NumNodes returns the current node count.
func (b *Builder) NumNodes() int { return b.n }

// NumEdgesAdded returns the number of AddEdge calls so far (before
// dedup/self-loop removal).
func (b *Builder) NumEdgesAdded() int { return len(b.edges) }

// AddEdge records the undirected edge {u, v}. Endpoints may be given in
// either order; self-loops are recorded but dropped at Build time.
// AddEdge panics if an endpoint is negative, since negative IDs indicate a
// programming error rather than a recoverable condition.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || v < 0 {
		panic(fmt.Sprintf("graph: negative node id in edge {%d, %d}", u, v))
	}
	if u > v {
		u, v = v, u
	}
	if v+1 > b.n {
		b.n = v + 1
	}
	b.edges = append(b.edges, [2]int{u, v})
}

// Build constructs the immutable Graph. The Builder remains usable; calling
// Build again after further AddEdge calls produces a new snapshot.
//
// Build is O(n+m) with no comparison sort. Two counting passes sort the
// edges (u < v, self-loops skipped): the first buckets each edge's u under
// its v, unsorted; the second walks those buckets in increasing v and
// appends v to u's bucket, so each u's bucket lists its larger neighbors
// in increasing order. The copies of an edge land next to each other
// there and only the first is kept, and the degrees counted on the way
// size the CSR exactly. A last pass walks the sorted edges in increasing
// u to fill it: each row receives its smaller neighbors in increasing
// order, then its larger ones.
func (b *Builder) Build() *Graph {
	n := b.n
	belowOff := make([]int, n+1) // bucket sizes of the first pass, then offsets
	aboveOff := make([]int, n+1) // the same for the second
	for _, e := range b.edges {
		if e[0] != e[1] {
			aboveOff[e[0]+1]++
			belowOff[e[1]+1]++
		}
	}
	for i := 1; i <= n; i++ {
		belowOff[i] += belowOff[i-1]
		aboveOff[i] += aboveOff[i-1]
	}

	// First pass: below[belowOff[v]:belowOff[v+1]] holds the smaller
	// endpoint of every edge added at v. next[x] is bucket x's next slot.
	below := make([]int, belowOff[n])
	next := make([]int, n)
	copy(next, belowOff)
	for _, e := range b.edges {
		if u, v := e[0], e[1]; u != v {
			below[next[v]] = u
			next[v]++
		}
	}

	// Second pass: above[aboveOff[u]:next[u]] becomes u's larger neighbors.
	// offsets[x+1] counts x's degree.
	above := make([]int, aboveOff[n])
	copy(next, aboveOff)
	offsets := make([]int, n+1)
	for v := 0; v < n; v++ {
		for _, u := range below[belowOff[v]:belowOff[v+1]] {
			if p := next[u]; p == aboveOff[u] || above[p-1] != v {
				above[p] = v
				next[u] = p + 1
				offsets[u+1]++
				offsets[v+1]++
			}
		}
	}
	for i := 1; i <= n; i++ {
		offsets[i] += offsets[i-1]
	}

	// Fill. When the walk reaches u, every smaller neighbor has written
	// itself into row u, so fill[u] is where u's larger neighbors go.
	adj := make([]int, offsets[n])
	fill := make([]int, n)
	copy(fill, offsets)
	for u := 0; u < n; u++ {
		larger := above[aboveOff[u]:next[u]]
		copy(adj[fill[u]:], larger)
		for _, v := range larger {
			adj[fill[v]] = u
			fill[v]++
		}
	}
	return &Graph{offsets: offsets, adj: adj}
}

// FromEdges builds a graph with n nodes from the given undirected edge list.
func FromEdges(n int, edges [][2]int) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// FromSortedRows builds a graph with n nodes straight from adjacency
// rows: row(u) is node u's neighbor list, already sorted, loop-free,
// duplicate-free and symmetric (v in row(u) iff u in row(v)) — the shape
// a structure that maintains sorted rows holds by construction. The rows
// are copied, not retained, and not re-validated: one prefix-sum pass
// over the lengths and one copy per row, where a Builder would expand,
// sort and dedupe an edge list.
func FromSortedRows(n int, row func(u int) []int) *Graph {
	offsets := make([]int, n+1)
	for u := 0; u < n; u++ {
		offsets[u+1] = offsets[u] + len(row(u))
	}
	adj := make([]int, offsets[n])
	for u := 0; u < n; u++ {
		copy(adj[offsets[u]:offsets[u+1]], row(u))
	}
	return &Graph{offsets: offsets, adj: adj}
}
