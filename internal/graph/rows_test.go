package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// checkRowsRoundTrip encodes the rows of [lo, hi) of g as E and decodes
// them back, into fresh arrays and into reused ones, and fails unless
// every row comes back as g has it.
func checkRowsRoundTrip[E int | int32](t *testing.T, g *Graph, lo, hi int) {
	t.Helper()
	row := func(u int) []E {
		r := make([]E, 0, g.Degree(u))
		for _, v := range g.Neighbors(u) {
			r = append(r, E(v))
		}
		return r
	}
	data := AppendRows([]byte("header"), lo, hi, row)[len("header"):]
	var spare []E
	for _, buf := range []func(offs, arcs int) ([]E, []E){
		nil,
		func(offs, arcs int) ([]E, []E) {
			spare = make([]E, offs+arcs+3)
			return spare[:1], spare[offs:offs]
		},
	} {
		off, adj, err := DecodeRows(data, lo, hi, g.NumNodes(), buf)
		if err != nil {
			t.Fatalf("rows [%d, %d) of a %d-node graph: %v", lo, hi, g.NumNodes(), err)
		}
		if len(off) != hi-lo+1 || off[0] != 0 || int(off[hi-lo]) != len(adj) {
			t.Fatalf("rows [%d, %d): %d offsets %v for %d neighbors", lo, hi, len(off), off, len(adj))
		}
		if buf != nil && (&off[0] != &spare[0] || (len(adj) > 0 && &adj[0] != &spare[hi-lo+1])) {
			t.Fatalf("rows [%d, %d): did not decode into the supplied arrays", lo, hi)
		}
		for u := lo; u < hi; u++ {
			if got := adj[off[u-lo]:off[u-lo+1]]; !slices.Equal(got, row(u)) {
				t.Fatalf("rows [%d, %d): node %d decoded as %v, want %v", lo, hi, u, got, row(u))
			}
		}
	}
}

// TestRowsRoundTrip is the codec's property test: for int and int32
// rows of random graphs with isolated nodes, over random ranges that
// mostly start past node 0 and include empty ones, DecodeRows returns
// exactly the rows AppendRows wrote.
func TestRowsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(120)
		g := randomGraph(n, rng.Intn(3*n), int64(trial))
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n-lo+1)
		checkRowsRoundTrip[int](t, g, lo, hi)
		checkRowsRoundTrip[int32](t, g, lo, hi)
	}
	star := NewBuilder(300) // first offsets of both signs and past one byte
	for v := 1; v < 300; v++ {
		star.AddEdge(0, v)
	}
	g := star.Build()
	checkRowsRoundTrip[int](t, g, 0, 300)
	checkRowsRoundTrip[int32](t, g, 250, 300)
}
