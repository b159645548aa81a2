package stream

import (
	"fmt"
	"math/rand"
	"testing"

	"dkcore/internal/graph"
	"dkcore/internal/kcore"
)

// randomGraph builds a GNM-style random simple graph without importing
// internal/gen (which depends on this package).
func randomGraph(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	seen := make(map[[2]int]bool)
	for len(seen) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		b.AddEdge(u, v)
	}
	return b.Build()
}

// completeGraph builds K_n.
func completeGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// checkOrder verifies the k-order a Maintainer keeps beside the
// coreness: every node is in exactly its level's list, labels ascend
// along each list, dplus[u] is the number of u's neighbors after u and
// never exceeds core[u] (the certificate insertion's O(1) exit trusts),
// the level counts and the degeneracy are current, and no repair left a
// dstar behind.
func checkOrder(t *testing.T, mt *Maintainer, context string) {
	t.Helper()
	seen, top := 0, 0
	for k, lv := range mt.levels {
		count, prev := 0, -1
		for x := lv.head; x >= 0; x = mt.next[x] {
			if mt.core[x] != k || mt.prev[x] != prev || (prev >= 0 && mt.label[prev] >= mt.label[x]) {
				t.Fatalf("%s: level %d list broken at node %d (core %d, prev %d want %d)", context, k, x, mt.core[x], mt.prev[x], prev)
			}
			prev = x
			count++
		}
		if lv.tail != prev || lv.count != count {
			t.Fatalf("%s: level %d: tail %d count %d, walked to %d over %d nodes", context, k, lv.tail, lv.count, prev, count)
		}
		seen += count
		if count > 0 {
			top = k
		}
	}
	if seen != len(mt.core) || mt.maxCore != top {
		t.Fatalf("%s: lists hold %d of %d nodes; maxCore %d, highest occupied level %d", context, seen, len(mt.core), mt.maxCore, top)
	}
	for u := range mt.core {
		after := 0
		for _, v := range mt.adj[u] {
			if mt.before(u, v) {
				after++
			}
		}
		if mt.dplus[u] != after || after > mt.core[u] || mt.dstar[u] != 0 {
			t.Fatalf("%s: node %d (core %d): dplus %d, %d neighbors after it, dstar %d", context, u, mt.core[u], mt.dplus[u], after, mt.dstar[u])
		}
	}
}

// TestSupportCounterInvariant pins the Maintainer's core data-structure
// contracts: after every mutation, supp[u] equals the number of neighbors
// of u with coreness >= core[u] — the deletion cascade trusts this
// counter for its O(1) qualification check — and the k-order is valid
// (checkOrder). A single stale value silently corrupts coreness several
// events later; the direct recount here localizes such a bug to the
// event that introduced it.
func TestSupportCounterInvariant(t *testing.T) {
	check := func(mt *Maintainer, seed int64, step int) {
		t.Helper()
		checkOrder(t, mt, fmt.Sprintf("seed %d step %d", seed, step))
		for u := range mt.core {
			c := 0
			for _, v := range mt.adj[u] {
				if mt.core[v] >= mt.core[u] {
					c++
				}
			}
			if mt.supp[u] != c {
				t.Fatalf("seed %d step %d: supp[%d] = %d, want %d (core %d, deg %d)",
					seed, step, u, mt.supp[u], c, mt.core[u], len(mt.adj[u]))
			}
		}
	}

	const nodes, events = 60, 400
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mt := NewMaintainer(randomGraph(nodes, 3*nodes, seed))
		check(mt, seed, -1)
		for i := 0; i < events; i++ {
			u, v := rng.Intn(nodes+5), rng.Intn(nodes+5)
			if rng.Intn(2) == 0 {
				mt.DeleteEdge(u, v)
			} else {
				mt.InsertEdge(u, v)
			}
			check(mt, seed, i)
		}
	}

	// Dense equal-coreness plateaus exercise the rise path's riser/
	// neighbor repair; the clique's single plateau is the worst case.
	mt := NewMaintainer(completeGraph(16))
	check(mt, -1, -1)
	for i := 0; i < 15; i++ {
		mt.DeleteEdge(0, i+1)
		check(mt, -1, i)
	}
	for i := 0; i < 15; i++ {
		mt.InsertEdge(0, i+1)
		check(mt, -1, 100+i)
	}
}

// TestOrderRepairStress drives the insertion repair's harder cases —
// long candidate chains, evictions that cascade, rises into occupied
// levels — on graphs dense enough to have wide plateaus, checking the
// k-order along the way and the coreness against a from-scratch peel.
func TestOrderRepairStress(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		const nodes = 300
		rng := rand.New(rand.NewSource(seed))
		mt := NewMaintainer(randomGraph(nodes, 5*nodes, seed))
		for i := 0; i < 6000; i++ {
			u, v := rng.Intn(nodes), rng.Intn(nodes)
			if rng.Intn(5) < 2 {
				mt.DeleteEdge(u, v)
			} else {
				mt.InsertEdge(u, v)
			}
			if i%97 == 0 {
				checkOrder(t, mt, fmt.Sprintf("seed %d step %d", seed, i))
			}
		}
		checkOrder(t, mt, fmt.Sprintf("seed %d end", seed))
		want := kcore.Decompose(mt.Graph()).CorenessValues()
		for u, k := range want {
			if mt.core[u] != k {
				t.Fatalf("seed %d: node %d at %d, peel gives %d", seed, u, mt.core[u], k)
			}
		}
	}
}

// TestOrderRenumbering exhausts the label gap at one spot of a level —
// every node in turn moved to right after node 0 — so place must
// renumber the level, and the list must come out in the order asked for.
func TestOrderRenumbering(t *testing.T) {
	const nodes = 80
	mt := NewMaintainer(graph.NewBuilder(nodes).Build())
	for x := 1; x < nodes; x++ {
		mt.moveTo(x, 0, 0)
		checkOrder(t, mt, fmt.Sprintf("after moving %d", x))
	}
	want := 0
	for x, left := mt.levels[0].head, nodes; x >= 0; x, left = mt.next[x], left-1 {
		if x != want {
			t.Fatalf("level 0 lists node %d where %d belongs", x, want)
		}
		want = left - 1
		if x == 0 {
			want = nodes - 1
		}
	}
}
