package graph

import (
	"fmt"
	"sort"
)

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
func (b *Builder) Build() *Graph {
	// Sort and dedupe the canonical (u<v) edge list, dropping self-loops.
	edges := make([][2]int, 0, len(b.edges))
	for _, e := range b.edges {
		if e[0] != e[1] {
			edges = append(edges, e)
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	uniq := edges[:0]
	for i, e := range edges {
		if i == 0 || e != edges[i-1] {
			uniq = append(uniq, e)
		}
	}
	edges = uniq

	// Counting pass: degree of every node.
	offsets := make([]int, b.n+1)
	for _, e := range edges {
		offsets[e[0]+1]++
		offsets[e[1]+1]++
	}
	for i := 1; i <= b.n; i++ {
		offsets[i] += offsets[i-1]
	}

	// Fill pass. cursor tracks the next free slot per node.
	adj := make([]int, offsets[b.n])
	cursor := make([]int, b.n)
	for _, e := range edges {
		u, v := e[0], e[1]
		adj[offsets[u]+cursor[u]] = v
		cursor[u]++
		adj[offsets[v]+cursor[v]] = u
		cursor[v]++
	}
	// Adjacency lists are already sorted: edges were processed in
	// lexicographic (u, v) order with u < v, so each node receives its
	// larger neighbors in increasing order after its smaller neighbors,
	// which also arrive in increasing order. Sort defensively anyway to
	// keep the invariant independent of the fill strategy.
	for u := 0; u < b.n; u++ {
		ns := adj[offsets[u]:offsets[u+1]]
		if !sort.IntsAreSorted(ns) {
			sort.Ints(ns)
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
