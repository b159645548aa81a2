package core

import (
	"math/rand"
	"slices"
	"testing"
)

// kernelGraph is a random symmetric graph over owned nodes [0, owned)
// and externals [owned, len(rows)): rows[u] lists u's neighbors in
// ascending order. Externals keep no support counter, as in HostState.
type kernelGraph[E int | int32] struct {
	owned int
	rows  [][]E
}

func newKernelGraph[E int | int32](rng *rand.Rand) kernelGraph[E] {
	owned, ext := 1+rng.Intn(12), rng.Intn(6)
	n := owned + ext
	adj := make([][]bool, n)
	for u := range adj {
		adj[u] = make([]bool, n)
	}
	for i, m := 0, rng.Intn(4*n); i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			adj[u][v], adj[v][u] = true, true
		}
	}
	g := kernelGraph[E]{owned: owned, rows: make([][]E, n)}
	for u := range adj {
		for v, ok := range adj[u] {
			if ok {
				g.rows[u] = append(g.rows[u], E(v))
			}
		}
	}
	return g
}

// gather returns the estimates of row's nodes as ComputeIndex takes them.
func gather[E int | int32](row []E, est []int32) []int {
	out := make([]int, len(row))
	for i, v := range row {
		out[i] = int(est[v])
	}
	return out
}

// settle lowers the owned estimates to the fixpoint of ComputeIndex with
// the externals held fixed, recomputing from scratch (the specification,
// not the kernel), and recounts every owned counter.
func (g kernelGraph[E]) settle(est, sup []int32) {
	for changed := true; changed; {
		changed = false
		for u := 0; u < g.owned; u++ {
			row := g.rows[u]
			bound := int(min(est[u], int32(len(row))))
			if k := int32(ComputeIndex(gather(row, est), bound, nil)); k < est[u] {
				est[u], changed = k, true
			}
		}
	}
	for u := 0; u < g.owned; u++ {
		sup[u] = Support(g.rows[u], est, est[u])
	}
}

// TestSupportKernel holds the kernel to ComputeIndex and to recounts on
// random graphs whose rows include externals, past the counters: Refine
// returns ComputeIndex's estimate and the recount under it and leaves
// its scratch zeroed; after a Drop (and the dropped node's own recount,
// which is the caller's) every counter equals its recount, and woken
// lists, in row order, exactly the owned nodes then below their estimate
// (the settled state before the drop has none).
func TestSupportKernel(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		if seed%2 == 0 {
			checkSupportKernel[int32](t, seed)
		} else {
			checkSupportKernel[int](t, seed)
		}
	}
}

func checkSupportKernel[E int | int32](t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := newKernelGraph[E](rng)
	n := len(g.rows)
	est := make([]int32, n)
	for u := range est {
		switch {
		case rng.Intn(4) == 0:
			est[u] = InfEstimate
		case u < g.owned:
			est[u] = int32(len(g.rows[u]) + rng.Intn(3))
		default:
			est[u] = int32(1 + rng.Intn(n))
		}
		if len(g.rows[u]) == 0 {
			est[u] = 0
		}
	}
	bins := make([]int32, n+2)
	for u := 0; u < g.owned; u++ {
		k := min(est[u], int32(n+1))
		if k <= 0 {
			continue
		}
		row := g.rows[u]
		gotK, gotSup := Refine(row, est, k, bins)
		if want := int32(ComputeIndex(gather(row, est), int(k), nil)); gotK != want {
			t.Fatalf("seed %d: Refine(node %d, k %d) = %d, ComputeIndex %d", seed, u, k, gotK, want)
		}
		if want := Support(row, est, gotK); gotSup != want {
			t.Fatalf("seed %d: Refine(node %d) support %d, recount %d", seed, u, gotSup, want)
		}
		if slices.ContainsFunc(bins, func(c int32) bool { return c != 0 }) {
			t.Fatalf("seed %d: Refine left its scratch dirty: %v", seed, bins)
		}
	}

	sup := make([]int32, g.owned)
	var woken []E
	for step := 0; step < 40; step++ {
		g.settle(est, sup)
		u := rng.Intn(n)
		old := est[u]
		if old <= 1 {
			continue
		}
		k := int32(1 + rng.Intn(int(min(old, int32(n+1))-1)))
		est[u] = k
		if u < g.owned {
			sup[u] = Support(g.rows[u], est, k) // the caller's recount, as in Apply
		}
		woken = Drop(g.rows[u], est, sup, old, k, woken[:0])
		var want []E
		for _, v := range g.rows[u] {
			if int(v) < g.owned && Support(g.rows[v], est, est[v]) < est[v] {
				want = append(want, v)
			}
		}
		for v := 0; v < g.owned; v++ {
			if got, recount := sup[v], Support(g.rows[v], est, est[v]); got != recount {
				t.Fatalf("seed %d step %d: node %d dropped %d→%d; counter of %d is %d, recount %d",
					seed, step, u, old, k, v, got, recount)
			}
		}
		if !slices.Equal(woken, want) {
			t.Fatalf("seed %d step %d: node %d dropped %d→%d; woken %v, want %v", seed, step, u, old, k, woken, want)
		}
	}
}
