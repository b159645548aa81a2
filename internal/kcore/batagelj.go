package kcore

import (
	"context"

	"dkcore/internal/graph"
)

// cancelCheckStride is how many peel steps BinPeel executes between
// context checks: large enough that the check is free, small enough
// that cancellation lands within a few microseconds of work.
const cancelCheckStride = 8192

// Decompose computes the k-core decomposition of g with the
// Batagelj–Zaversnik bucket algorithm in O(n + m) time: nodes are kept
// bucket-sorted by current degree and peeled in increasing-degree order,
// decrementing the effective degree of higher neighbors as they go.
func Decompose(g *graph.Graph) *Decomposition {
	d, _ := DecomposeContext(context.Background(), g)
	return d
}

// DecomposeContext is Decompose with cooperative cancellation: the peel
// checks ctx every cancelCheckStride nodes and returns ctx.Err() if it
// fired. The sequential algorithm has no rounds, so this is its
// equivalent of a per-round cancellation point.
func DecomposeContext(ctx context.Context, g *graph.Graph) (*Decomposition, error) {
	n := g.NumNodes()
	scratch := make([]int32, 3*n+g.MaxDegree()+1)
	deg, vert, pos := scratch[:n:n], scratch[n:2*n:2*n], scratch[2*n:3*n:3*n]
	if err := BinPeel(ctx, n, g.Neighbors, deg, vert, pos, scratch[3*n:]); err != nil {
		return nil, err
	}
	coreness, order := make([]int, n), make([]int, n)
	for i := range deg {
		coreness[i], order[i] = int(deg[i]), int(vert[i])
	}
	return &Decomposition{coreness: coreness, order: order}, nil
}

// BinPeel is the Batagelj–Zaversnik bin-sort peel (Snippet 1 of the
// paper's reference [3]) over nodes [0, n) whose neighbors are row(u).
// A neighbor at index n or above is never peeled, so its arc is
// permanent support: a host peels its own nodes this way while every
// external neighbor still counts.
//
// deg, vert and pos hold n entries each; bins holds at least the
// largest row length plus one entries, all zero, and is all zero again
// after a run that ends. Then deg[u] is u's coreness in that graph and
// vert is the peel order, along which the coreness never decreases. ctx
// is checked every cancelCheckStride nodes; a fired ctx returns
// ctx.Err().
//
//dkcore:noalloc the bin-sort peel behind HostState.InitEstimates' warmed re-runs
func BinPeel[E int | int32](ctx context.Context, n int, row func(u int) []E, deg, vert, pos, bins []int32) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for u := 0; u < n; u++ {
		deg[u] = int32(len(row(u)))
		bins[deg[u]]++
	}
	// Bin starts by prefix sum, then place each node in its bin and
	// shift the advanced cursors back to the starts.
	start := int32(0)
	for d, c := range bins {
		bins[d] = start
		start += c
	}
	for u := 0; u < n; u++ {
		pos[u] = bins[deg[u]]
		vert[pos[u]] = int32(u)
		bins[deg[u]]++
	}
	for d := len(bins) - 1; d > 0; d-- {
		bins[d] = bins[d-1]
	}
	bins[0] = 0
	for i, u := range vert[:n] {
		if i%cancelCheckStride == cancelCheckStride-1 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		du := deg[u]
		for _, v := range row(int(u)) {
			if int(v) >= n || deg[v] <= du {
				continue
			}
			// Move v to the front of its bin, then shrink the bin by
			// one, lowering v's residual degree.
			dv := deg[v]
			pv, pw := pos[v], bins[dv]
			if w := vert[pw]; w != int32(v) {
				vert[pv], vert[pw] = w, int32(v)
				pos[v], pos[w] = pw, pv
			}
			bins[dv]++
			deg[v]--
		}
	}
	clear(bins)
	return nil
}
