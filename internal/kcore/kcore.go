// Package kcore implements centralized k-core decomposition and its
// two peel kernels. BinPeel is the Batagelj–Zaversnik O(m) bin sort
// (the paper's reference [3]): Decompose runs it as ground truth and
// baseline, and each one-to-many host runs it over its own nodes.
// LevelPeel is the level-synchronous frontier peel on P workers:
// internal/parallel decomposes with it, and Certify checks a claimed
// coreness exactly with it. A naive peeling reference cross-checks
// Decompose, and helpers inspect the resulting decomposition.
package kcore

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"dkcore/internal/graph"
)

// Decomposition is the result of a k-core decomposition of a graph.
type Decomposition struct {
	coreness []int
	order    []int // peel (degeneracy) order
}

// Coreness returns the coreness (shell index) of node u.
func (d *Decomposition) Coreness(u int) int { return d.coreness[u] }

// CorenessValues returns a copy of the per-node coreness array.
func (d *Decomposition) CorenessValues() []int {
	out := make([]int, len(d.coreness))
	copy(out, d.coreness)
	return out
}

// NumNodes returns the number of nodes in the decomposed graph.
func (d *Decomposition) NumNodes() int { return len(d.coreness) }

// MaxCoreness returns the degeneracy of the graph (the largest k with a
// non-empty k-core), or 0 for an empty graph.
func (d *Decomposition) MaxCoreness() int {
	maxK := 0
	for _, k := range d.coreness {
		if k > maxK {
			maxK = k
		}
	}
	return maxK
}

// AvgCoreness returns the mean coreness over all nodes, or 0 for an empty
// graph.
func (d *Decomposition) AvgCoreness() float64 {
	if len(d.coreness) == 0 {
		return 0
	}
	sum := 0
	for _, k := range d.coreness {
		sum += k
	}
	return float64(sum) / float64(len(d.coreness))
}

// ShellSizes returns a histogram h where h[k] is the number of nodes with
// coreness exactly k. Its length is MaxCoreness()+1.
func (d *Decomposition) ShellSizes() []int {
	h := make([]int, d.MaxCoreness()+1)
	for _, k := range d.coreness {
		h[k]++
	}
	return h
}

// Shell returns the nodes with coreness exactly k, in increasing order.
func (d *Decomposition) Shell(k int) []int {
	var nodes []int
	for u, ku := range d.coreness {
		if ku == k {
			nodes = append(nodes, u)
		}
	}
	return nodes
}

// CoreNodes returns the nodes of the k-core (coreness >= k), in increasing
// order.
func (d *Decomposition) CoreNodes(k int) []int {
	var nodes []int
	for u, ku := range d.coreness {
		if ku >= k {
			nodes = append(nodes, u)
		}
	}
	return nodes
}

// KCore extracts the k-core of g as an induced subgraph, together with the
// mapping from subgraph node IDs to original IDs. The decomposition must
// have been computed on g.
func (d *Decomposition) KCore(g *graph.Graph, k int) (sub *graph.Graph, origID []int) {
	return graph.InducedSubgraph(g, d.CoreNodes(k))
}

// PeelOrder returns the order in which nodes were removed by the bucket
// algorithm. It is a degeneracy ordering: every node is followed by at
// most MaxCoreness() of its neighbors, and coreness is non-decreasing
// along the order.
func (d *Decomposition) PeelOrder() []int {
	out := make([]int, len(d.order))
	copy(out, d.order)
	return out
}

// LocalityError is VerifyLocality's report on the first node whose
// coreness breaks Theorem 1: Count of its neighbors have coreness >=
// AtLeast, which is too few for AtLeast == Coreness and too many for
// AtLeast == Coreness+1.
type LocalityError struct {
	Node, Coreness, Count, AtLeast int
}

func (e *LocalityError) Error() string {
	return fmt.Sprintf("kcore: node %d: coreness %d but %d neighbors with coreness >= %d", e.Node, e.Coreness, e.Count, e.AtLeast)
}

// VerifyLocality is Theorem 1's local check on a claimed coreness
// assignment: for every node u with coreness k, (i) at least k neighbors
// have coreness >= k, and (ii) at most k neighbors have coreness >= k+1.
// It returns a *LocalityError for the first violated node, or nil.
//
// The check is necessary, not sufficient: a vector below the coreness
// can pass it (a triangle labelled all 1s does), and the cascade that
// lowers estimates stops at such a vector if one estimate ever drops
// too low. Certify is the exact check.
func VerifyLocality(g *graph.Graph, coreness []int) error {
	if len(coreness) != g.NumNodes() {
		return fmt.Errorf("kcore: coreness has %d entries for %d nodes", len(coreness), g.NumNodes())
	}
	for u := 0; u < g.NumNodes(); u++ {
		k := coreness[u]
		atLeastK, atLeastK1 := 0, 0
		for _, v := range g.Neighbors(u) {
			if coreness[v] >= k {
				atLeastK++
			}
			if coreness[v] >= k+1 {
				atLeastK1++
			}
		}
		if atLeastK < k {
			return &LocalityError{Node: u, Coreness: k, Count: atLeastK, AtLeast: k}
		}
		if atLeastK1 > k {
			return &LocalityError{Node: u, Coreness: k, Count: atLeastK1, AtLeast: k + 1}
		}
	}
	return nil
}

// LevelError is Certify's report that a claimed coreness is too low: in
// the peel of level Level, node Node, claimed at that level, is left
// with Residual > Level neighbors no peel has removed.
type LevelError struct {
	Level, Node, Residual int
}

func (e *LevelError) Error() string {
	return fmt.Sprintf("kcore: node %d: coreness %d is too low: %d neighbors remain after the peel of level %d", e.Node, e.Level, e.Residual, e.Level)
}

// Certify checks that coreness is exactly g's coreness, in O(n+m) work
// and without a decomposition of its own, on min(GOMAXPROCS, n)
// workers that are gone when it returns. It returns nil, a
// *LocalityError or a *LevelError, the same one whatever the worker
// count: the lowest node failing condition (i) or claiming below 0,
// else the lowest node of the lowest level the peel cannot finish.
//
// Two checks together are exact. The first is VerifyLocality's
// condition (i): every node u has at least coreness[u] neighbors whose
// coreness is at least its own. It proves coreness[u] <= the true
// coreness, as the nodes claimed at j or more span a subgraph of minimum
// degree j; a failure is a *LocalityError. The second is LevelPeel's
// peel by claimed level: in increasing j, it repeatedly removes a node
// claimed at j with at most j neighbors left. Every node goes only if
// the removal order, along which the claims never decrease, leaves each
// node at most its claim of later neighbors, which bounds the true
// coreness by the claim. A node claimed at j that the peel of level j
// cannot remove is a *LevelError.
func Certify(g *graph.Graph, coreness []int) error {
	n := g.NumNodes()
	if len(coreness) != n {
		return fmt.Errorf("kcore: coreness has %d entries for %d nodes", len(coreness), n)
	}
	if n == 0 {
		return nil
	}
	p := min(runtime.GOMAXPROCS(0), n)
	lp, _ := NewLevelPeel(g, p, func(u int) int { return u * p / n }) // always in [0, p)
	defer lp.Close()
	return lp.Run(context.Background(), coreness, math.MaxInt)
}
