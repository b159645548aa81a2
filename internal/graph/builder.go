package graph

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
)

// MaxNodes is the node-ID ceiling: a Builder takes IDs in [0, MaxNodes)
// and fewer than MaxNodes edges, so its edge list and Build's
// intermediates are 32-bit.
const MaxNodes = math.MaxInt32

const (
	// chunkEdges is the edge count of every stored chunk but the last.
	// Full chunks are never copied: the edge list grows by adding chunks.
	chunkEdges = 1 << 15
	// maxEdges is the edge ceiling: the whole chunks that fit below
	// MaxNodes, so edge counts and bucket offsets fit in int32.
	maxEdges = MaxNodes / chunkEdges * chunkEdges
	// maxBuildWorkers caps Build's goroutines: its passes are bound by
	// memory, and each worker adds 12 bytes per node of its own arrays.
	maxBuildWorkers = 4
)

// Builder accumulates edges and produces an immutable Graph.
//
// Self-loops are dropped and duplicate edges are collapsed at Build time,
// so the result is always a simple undirected graph. The zero value is
// ready to use; node count grows automatically to cover the largest
// endpoint mentioned by AddEdge, and can be raised explicitly with
// EnsureNodes (to allow isolated nodes). Node IDs are below MaxNodes.
type Builder struct {
	n int
	// chunks holds the added edges as (min, max) pairs: every chunk but
	// the last holds chunkEdges, and the last holds tail. Only the first
	// grows by copying, doubling up to chunkEdges.
	chunks [][][2]int32
	tail   int
}

// NewBuilder returns a Builder for a graph with at least n nodes. It
// panics if n > MaxNodes.
func NewBuilder(n int) *Builder {
	b := &Builder{}
	b.EnsureNodes(n)
	return b
}

// EnsureNodes grows the node count to at least n. It panics if
// n > MaxNodes.
func (b *Builder) EnsureNodes(n int) {
	if n > MaxNodes {
		panic(fmt.Sprintf("graph: node count %d above %d", n, MaxNodes))
	}
	if n > b.n {
		b.n = n
	}
}

// NumNodes returns the current node count.
func (b *Builder) NumNodes() int { return b.n }

// NumEdgesAdded returns the number of AddEdge calls so far (before
// dedup/self-loop removal).
func (b *Builder) NumEdgesAdded() int {
	if len(b.chunks) == 0 {
		return 0
	}
	return (len(b.chunks)-1)*chunkEdges + b.tail
}

// AddEdge records the undirected edge {u, v}. Endpoints may be given in
// either order; self-loops are recorded but dropped at Build time.
// AddEdge panics if an endpoint is negative or not below MaxNodes, or if
// the Builder already holds 2^31−2^15 edges, since such input
// indicates a programming error rather than a recoverable condition.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || v < 0 || u >= MaxNodes || v >= MaxNodes {
		panic(fmt.Sprintf("graph: node id outside [0, %d) in edge {%d, %d}", MaxNodes, u, v))
	}
	if u > v {
		u, v = v, u
	}
	if v+1 > b.n {
		b.n = v + 1
	}
	if len(b.chunks) == 0 || b.tail == len(b.chunks[len(b.chunks)-1]) {
		b.grow()
	}
	// Storing into the chunk, not appending to it, writes no slice
	// header, so the hot path has no GC write barrier.
	b.chunks[len(b.chunks)-1][b.tail] = [2]int32{int32(u), int32(v)}
	b.tail++
}

// grow makes room for one more edge when the last chunk is full: the
// first chunk starts small and doubles, so a small graph stays small;
// later ones are allocated whole.
func (b *Builder) grow() {
	last := len(b.chunks) - 1
	switch {
	case last < 0:
		b.chunks = append(b.chunks, make([][2]int32, 64))
	case b.tail < chunkEdges:
		grown := make([][2]int32, 2*b.tail)
		copy(grown, b.chunks[last])
		b.chunks[last] = grown
	case len(b.chunks)*chunkEdges == maxEdges:
		panic(fmt.Sprintf("graph: more than %d edges added", maxEdges))
	default:
		b.chunks = append(b.chunks, make([][2]int32, chunkEdges))
		b.tail = 0
	}
}

// Build constructs the immutable Graph. The Builder remains usable; calling
// Build again after further AddEdge calls produces a new snapshot.
//
// Build is O(n+m) with no comparison sort, and runs its passes on up to
// min(GOMAXPROCS, 4) goroutines; a build of one chunk runs on one. Its
// output does not depend on the goroutine count.
func (b *Builder) Build() *Graph {
	return b.build(max(1, min(runtime.GOMAXPROCS(0), maxBuildWorkers, len(b.chunks))))
}

// build is Build on the given number of workers.
//
// Build sorts by counting, not by comparison. The first pass buckets each
// edge {u < v} (self-loops skipped) under its larger endpoint v, each
// bucket unsorted. The second walks the buckets in increasing v, so each
// u meets its larger neighbors in increasing order, the copies of an edge
// in a row; it keeps the first and counts the degrees that size the CSR.
// The third repeats that walk and writes each u's larger neighbors into
// the end of its row. The fill walks the rows in increasing u and writes u
// into the row of each larger neighbor, so every row gets its smaller
// neighbors in increasing order.
//
// The first pass splits the edge list: each worker buckets its share into
// a region of its own. The other passes split the larger endpoints into
// ranges of about equal edge counts. Each worker keeps, per u, a part of
// u's row of its own: the larger neighbors in its range. In the fill it
// writes the rows of its range, reading only its part of each smaller row.
func (b *Builder) build(workers int) *Graph {
	n, m := b.n, b.NumEdgesAdded()

	// First pass. Worker w's share has smaller endpoints
	// below[w][end[w][v-1]:end[w][v]] at v ≥ 1; there are none at 0.
	below := make([][]int32, workers)
	end := make([][]int32, workers)
	parallel(workers, func(w int) {
		lo, hi := w*m/workers, (w+1)*m/workers
		next := make([]int32, n)
		b.eachEdge(lo, hi, func(es [][2]int32) {
			for _, e := range es {
				if e[0] != e[1] {
					next[e[1]]++
				}
			}
		})
		var sum int32
		for v, c := range next {
			next[v] = sum
			sum += c
		}
		bucketed := make([]int32, sum)
		b.eachEdge(lo, hi, func(es [][2]int32) {
			for _, e := range es {
				if u, v := e[0], e[1]; u != v {
					bucketed[next[v]] = u
					next[v]++
				}
			}
		})
		below[w], end[w] = bucketed, next
	})
	cuts := splitNodes(n, workers, func(x int) (edges int) {
		for _, e := range end {
			if x > 0 {
				edges += int(e[x-1])
			}
		}
		return edges
	})
	// Second pass. part[w][u] is u's part for worker w; last is the last
	// neighbor taken (0 for none, as v > u ≥ 0) and at counts them.
	// smaller[v] counts v's smaller neighbors.
	part := make([][]rowPart, workers)
	smaller := make([]int32, n)
	parallel(workers, func(w int) {
		part[w] = make([]rowPart, n)
		dedupe(below, end, cuts[w], cuts[w+1], part[w], smaller, nil)
	})
	// Each row is its smaller neighbors, then its parts in worker order;
	// at becomes where a part's next neighbor goes. An arc index is below
	// 2·maxEdges < 2^32.
	offsets := make([]int, n+1)
	for x := 0; x < n; x++ {
		at := offsets[x] + int(smaller[x])
		for w := 0; w < workers; w++ {
			p := &part[w][x]
			at, p.at, p.last = at+int(p.at), uint32(at), 0
		}
		offsets[x+1] = at
	}

	// Third pass: after it, u's part for w is adj[from:part[w][u].at],
	// from the end of its part for w-1, or of its smaller neighbors.
	adj := make([]int, offsets[n])
	parallel(workers, func(w int) {
		dedupe(below, end, cuts[w], cuts[w+1], part[w], nil, adj)
	})

	// Fill. fill[v] is where row v's next smaller neighbor goes.
	fill := make([]uint32, n)
	parallel(workers, func(w int) {
		lo, hi := cuts[w], cuts[w+1]
		for v := lo; v < hi; v++ {
			fill[v] = uint32(offsets[v])
		}
		for u := 0; u < hi; u++ {
			from := offsets[u] + int(smaller[u])
			if w > 0 {
				from = int(part[w-1][u].at)
			}
			for _, v := range adj[from:part[w][u].at] {
				adj[fill[v]] = u
				fill[v]++
			}
		}
	})
	return &Graph{offsets: offsets, adj: adj}
}

// rowPart is one worker's part of one node's row: see build.
type rowPart struct{ last, at uint32 }

// dedupe walks the bucketed edges {u < v} with v in [lo, hi) in
// increasing v and takes the first copy of each into u's part: with adj
// nil it counts the part and v's smaller neighbors, else it writes v at
// the part's cursor.
func dedupe(below, end [][]int32, lo, hi int, part []rowPart, smaller []int32, adj []int) {
	for v := max(lo, 1); v < hi; v++ {
		for r, bucket := range below {
			for _, u := range bucket[end[r][v-1]:end[r][v]] {
				p := &part[u]
				if p.last == uint32(v) {
					continue
				}
				p.last = uint32(v)
				if adj == nil {
					smaller[v]++
				} else {
					adj[p.at] = v
				}
				p.at++
			}
		}
	}
}

// eachEdge calls f on the stored edges [lo, hi), one chunk at a time.
func (b *Builder) eachEdge(lo, hi int, f func([][2]int32)) {
	for lo < hi {
		c, i := lo/chunkEdges, lo%chunkEdges
		end := min(chunkEdges, i+hi-lo)
		f(b.chunks[c][i:end])
		lo += end - i
	}
}

// splitNodes cuts [0, n) into parts ranges of about equal weight, where
// before(x) is the weight of the nodes below x, nondecreasing in x: range
// w is [cuts[w], cuts[w+1]).
func splitNodes(n, parts int, before func(x int) int) []int {
	total := before(n)
	cuts := make([]int, parts+1)
	cuts[parts] = n
	for w := 1; w < parts; w++ {
		target := total * w / parts
		cuts[w] = max(cuts[w-1], sort.Search(n, func(x int) bool { return before(x) >= target }))
	}
	return cuts
}

// parallel runs f(0), ..., f(workers-1) concurrently and returns when all
// have returned.
func parallel(workers int, f func(w int)) {
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			f(w)
		}(w)
	}
	f(0)
	wg.Wait()
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
