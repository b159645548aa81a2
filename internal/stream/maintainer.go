// Package stream maintains a k-core decomposition under a stream of edge
// insertions and deletions without recomputing it from scratch.
//
// The engine builds on the same structural fact the paper's distributed
// protocol exploits: coreness is a local fixpoint (Theorem 1), so a single
// edge mutation can change the coreness only of a bounded region around
// the mutated edge. Concretely, for an edge {u, v} with K = min(core(u),
// core(v)):
//
//   - insertion can raise coreness only for nodes with coreness exactly K
//     that are reachable from the lower endpoint through nodes of
//     coreness K, and only by exactly one;
//   - deletion can lower coreness only for the symmetric region, again by
//     exactly one.
//
// (These are the traversal theorems of Sarıyüce et al., "Streaming
// Algorithms for k-Core Decomposition", VLDB 2013, and Li, Yu & Mao's
// incremental-maintenance work; the paper's upper-bound convergence makes
// them directly applicable here.) Knowing where a change can happen does
// not bound the search for it: on a wide equal-coreness plateau a walk
// that must prove nobody rises visits the whole plateau. Maintainer
// therefore keeps, beside the coreness, a k-order — a total order of the
// nodes, coreness ascending, in which every node has at most coreness(v)
// neighbors after it. Such an order is a certificate that no coreness is
// too low, so an insertion that leaves it valid is finished in O(1), and
// one that does not is repaired by a scan forward from the earlier
// endpoint that touches only nodes whose position or coreness has to
// change (Zhang, Yu, Zhang & Qin, "A Fast Order-Based Approach for Core
// Maintenance", ICDE 2017, in the simplified form of Guo & Sekerinski,
// 2022). Deletion propagates decreases from the endpoints through an
// incrementally maintained support counter (neighbors with coreness >=
// own — the same primitive the distributed engines keep per estimate)
// and appends the nodes that fall to the level below. Either way the
// coreness is exact after every event, in time proportional to what
// changed rather than to the graph or the plateau.
package stream

import (
	"fmt"
	"sort"

	"dkcore/internal/graph"
	"dkcore/internal/kcore"
)

// Maintainer holds a mutable undirected simple graph together with the
// exact coreness of every node, updated incrementally on each mutation.
//
// Node IDs are dense non-negative integers; inserting an edge whose
// endpoints lie beyond the current node count grows the node set with
// isolated (coreness-0) nodes, so memory is proportional to the largest
// node ID mentioned — densify sparse external IDs before feeding them
// in (as cmd/kcore-stream does). A Maintainer is not safe for concurrent
// use; wrap it in a lock, or use dkcore.Session, whose single writer
// goroutine owns one. What is safe to share is a View: Publish freezes
// the current state for any number of concurrent readers, and the View
// keeps sharing with the Maintainer every adjacency row and leaf that
// later mutations do not touch.
type Maintainer struct {
	adj  [][]int // sorted neighbor lists; a row is written only while rowGen says it is private
	core []int   // exact coreness under the current edge set; written only by place
	m    int     // number of undirected edges

	// Copy-on-write bookkeeping behind Publish. gen is the publish
	// generation. rowGen[u] == gen means adj[u]'s backing array was
	// allocated since the last Publish and is private; any other row may
	// be reachable from a View (or from the seed graph) and is copied
	// before its first write (ownRow). coreDirty and rowDirty list the
	// leaves of core and adj written in this generation, and pubCore and
	// pubRows are the last published tables, the source of every clean
	// directory and leaf of the next.
	gen       int
	rowGen    []int
	coreDirty dirtyLeaves
	rowDirty  dirtyLeaves
	pubCore   cowTable[int]
	pubRows   cowTable[[]int]

	// The k-order: levels[k] is the list of the nodes with coreness k
	// (prev/next link it, label orders it), the order is the levels'
	// concatenation, and dplus[x] counts x's neighbors after x in it —
	// never more than core[x]. maxCore is the highest occupied level: the
	// degeneracy without a scan.
	levels  []level
	maxCore int
	label   []int
	prev    []int
	next    []int
	dplus   []int

	// supp[u] is the number of neighbors v with core[v] >= core[u] —
	// the same support counter the distributed engines maintain per
	// estimate (core.HostState's sup), kept exact across
	// every mutation. It answers the deletion cascade's hot question,
	// "can this coreness-k node fall?" (supp < k), in O(1); adjacency
	// walks remain only where a node actually changes level.
	supp []int

	// scratch state reused across updates to keep small mutations
	// allocation-free once warm.
	stamp  int   // current insertion repair; marks below are relative to it
	mark   []int // >= stamp: queued for the repair scan; stamp+1: queued for eviction
	cand   []int // == stamp: candidate to rise
	dstar  []int // candidate neighbors before the node; zero outside a repair
	heap   []int // the scan's pending nodes, a min-heap by label
	queue  []int
	region []int
}

// NewMaintainer returns a Maintainer seeded with g's edges and the exact
// decomposition of g (computed once with the Batagelj–Zaversnik peel).
func NewMaintainer(g *graph.Graph) *Maintainer {
	return newSeeded(g, kcore.Decompose(g))
}

// newSeeded is the shared constructor: g's edges plus d, g's
// decomposition, whose coreness the Maintainer takes over and whose peel
// order becomes its k-order. The rows alias g's CSR (g is immutable, and
// a row is copied before its first write), so seeding allocates a
// handful of O(n) vectors and no per-node row.
func newSeeded(g *graph.Graph, d *kcore.Decomposition) *Maintainer {
	n, coreness := g.NumNodes(), d.CorenessValues()
	leaves := (n + leafMask) >> leafShift
	mt := &Maintainer{
		adj:       make([][]int, n),
		core:      coreness,
		m:         g.NumEdges(),
		gen:       1,
		rowGen:    make([]int, n),
		coreDirty: dirtyLeaves{gen: make([]int, leaves)},
		rowDirty:  dirtyLeaves{gen: make([]int, leaves)},
		levels:    []level{{head: -1, tail: -1}},
		label:     make([]int, n),
		prev:      make([]int, n),
		next:      make([]int, n),
		dplus:     make([]int, n),
		supp:      make([]int, n),
		stamp:     1,
		mark:      make([]int, n),
		cand:      make([]int, n),
		dstar:     make([]int, n),
	}
	for u := 0; u < n; u++ {
		ns := g.Neighbors(u)
		mt.adj[u] = ns[:len(ns):len(ns)]
		c := 0
		for _, v := range ns {
			if coreness[v] >= coreness[u] {
				c++
			}
		}
		mt.supp[u] = c
	}
	mt.seedOrder(d.PeelOrder())
	// No View exists yet, so the first Publish builds every leaf.
	for l := 0; l < leaves; l++ {
		mt.coreDirty.mark(l<<leafShift, mt.gen)
		mt.rowDirty.mark(l<<leafShift, mt.gen)
	}
	return mt
}

// seedOrder builds the k-order of the seed graph from the bin-sort
// peel's order: the coreness never decreases along it, and each node has
// at most its coreness of neighbors after it.
func (mt *Maintainer) seedOrder(order []int) {
	pos := mt.dstar // each node's place in order; dstar is zero outside a repair
	for i, x := range order {
		pos[x] = i
	}
	for _, x := range order {
		k := mt.core[x]
		for len(mt.levels) <= k {
			mt.levels = append(mt.levels, level{head: -1, tail: -1})
		}
		mt.maxCore = k
		mt.place(x, k, mt.levels[k].tail)
		for _, y := range mt.adj[x] {
			if pos[y] > pos[x] {
				mt.dplus[x]++
			}
		}
	}
	clear(pos)
}

// NewMaintainerFromCoreness is NewMaintainer for a coreness assignment
// computed elsewhere — typically by a distributed engine — that
// kcore.Certify checks first: it must be exactly g's coreness, and any
// other vector, a consistent underestimate included, is rejected with
// Certify's error wrapped.
func NewMaintainerFromCoreness(g *graph.Graph, coreness []int) (*Maintainer, error) {
	if err := kcore.Certify(g, coreness); err != nil {
		return nil, fmt.Errorf("stream: seed coreness rejected: %w", err)
	}
	return NewMaintainer(g), nil
}

// CoreMembers returns the sorted IDs of every node in the k-core, i.e.
// with coreness >= k. k <= 0 returns every node.
func (mt *Maintainer) CoreMembers(k int) []int {
	var out []int
	for u, c := range mt.core {
		if c >= k {
			out = append(out, u)
		}
	}
	return out
}

// NumNodes returns the current node count.
func (mt *Maintainer) NumNodes() int { return len(mt.core) }

// NumEdges returns the current undirected edge count.
func (mt *Maintainer) NumEdges() int { return mt.m }

// Degree returns the degree of node u, or 0 for unknown nodes.
func (mt *Maintainer) Degree(u int) int {
	if u < 0 || u >= len(mt.adj) {
		return 0
	}
	return len(mt.adj[u])
}

// Coreness returns the exact coreness of node u under the current edge
// set, or 0 for nodes not yet mentioned by any edge.
func (mt *Maintainer) Coreness(u int) int {
	if u < 0 || u >= len(mt.core) {
		return 0
	}
	return mt.core[u]
}

// CorenessValues returns a copy of the per-node coreness array.
func (mt *Maintainer) CorenessValues() []int {
	out := make([]int, len(mt.core))
	copy(out, mt.core)
	return out
}

// MaxCoreness returns the degeneracy of the current graph, kept current
// by the per-level node counts: an O(1) read.
func (mt *Maintainer) MaxCoreness() int { return mt.maxCore }

// HasEdge reports whether the undirected edge {u, v} is present.
func (mt *Maintainer) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= len(mt.adj) || v >= len(mt.adj) {
		return false
	}
	return rowHas(mt.adj[u], v)
}

// Graph materializes the current edge set as an immutable CSR snapshot,
// straight from the sorted rows.
func (mt *Maintainer) Graph() *graph.Graph {
	return graph.FromSortedRows(len(mt.adj), func(u int) []int { return mt.adj[u] })
}

// Publish freezes the current state as an immutable View, in time
// proportional to what changed since the previous Publish: it copies the
// roots of the two tables (n/1024 pointers each) and the directories,
// leaves and rows written since, and shares every other directory, leaf
// and adjacency row with the earlier Views. From here on the
// Maintainer treats all of them as read-only — the next write to a row
// copies it first, and writes to core and adj land in the Maintainer's
// own flat vectors, which no View references.
func (mt *Maintainer) Publish() *View {
	mt.pubCore = republish(mt.pubCore, mt.core, mt.coreDirty.list)
	mt.pubRows = republish(mt.pubRows, mt.adj, mt.rowDirty.list)
	mt.coreDirty.list = mt.coreDirty.list[:0]
	mt.rowDirty.list = mt.rowDirty.list[:0]
	mt.gen++
	return &View{n: len(mt.core), m: mt.m, maxCore: mt.maxCore, core: mt.pubCore, rows: mt.pubRows}
}

// ownRow makes adj[u] private before a write: a row not allocated in
// this publish generation may be reachable from a View, so it is copied
// (with room for one insertion) and its leaf marked dirty.
func (mt *Maintainer) ownRow(u int) {
	if mt.rowGen[u] == mt.gen {
		return
	}
	mt.rowGen[u] = mt.gen
	mt.rowDirty.mark(u, mt.gen)
	mt.adj[u] = append(make([]int, 0, len(mt.adj[u])+1), mt.adj[u]...)
}

// moveTo puts node x at coreness k — its own level, or one level away
// (the traversal theorems' step) — right after p in level k's list, or at
// the list's head for p < 0, keeping the degeneracy and the dirty-leaf
// set current.
func (mt *Maintainer) moveTo(x, k, p int) {
	old := mt.core[x]
	mt.unlink(x)
	mt.place(x, k, p)
	if k > mt.maxCore || (old == mt.maxCore && mt.levels[old].count == 0) {
		mt.maxCore = k
	}
	if k != old {
		mt.coreDirty.mark(x, mt.gen)
	}
}

// Apply applies one event, returning whether it changed the graph. It
// inherits InsertEdge's and DeleteEdge's tolerance contracts: an event
// that cannot apply (self-loop, negative endpoint, duplicate insert,
// delete of an absent edge or of endpoints beyond the current node set)
// is a no-op returning false, never a panic — so replaying an arbitrary
// or partially stale event stream is always safe.
func (mt *Maintainer) Apply(ev Event) bool {
	if ev.Op == OpDelete {
		return mt.DeleteEdge(ev.U, ev.V)
	}
	return mt.InsertEdge(ev.U, ev.V)
}

// InsertEdge adds the undirected edge {u, v} and updates coreness
// exactly. It reports whether the edge was added; self-loops, negative
// endpoints, and already-present edges leave the graph unchanged.
func (mt *Maintainer) InsertEdge(u, v int) bool {
	if u < 0 || v < 0 || u == v {
		return false
	}
	mt.grow(max(u, v) + 1)
	if mt.HasEdge(u, v) {
		return false
	}
	mt.ownRow(u)
	mt.ownRow(v)
	insertSorted(&mt.adj[u], v)
	insertSorted(&mt.adj[v], u)
	mt.m++
	if mt.core[v] >= mt.core[u] {
		mt.supp[u]++
	}
	if mt.core[u] >= mt.core[v] {
		mt.supp[v]++
	}

	// The new edge gives its earlier endpoint one more neighbor after it.
	// If that is still within the endpoint's coreness the k-order remains
	// a valid certificate and nothing rises.
	if mt.before(v, u) {
		u = v
	}
	k := mt.core[u]
	mt.dplus[u]++
	if mt.dplus[u] > k {
		mt.repairOrder(u, k)
	}
	return true
}

// repairOrder restores the k-order after an insertion left u, at
// coreness k, with more than k neighbors after it. Only coreness-k nodes
// from u onward can be affected, and they are taken in order: a node
// whose neighbors after it, plus its neighbors among the candidates
// before it (dstar), exceed k becomes a candidate to rise and announces
// itself to its level-k neighbors further on; a node that falls short
// stays, which can evict candidates before it that counted on it
// (settle). The scan visits only nodes some candidate announced itself
// to. Candidates that survive rise to k+1, at the head of that level.
func (mt *Maintainer) repairOrder(u, k int) {
	mt.stamp += 2
	mt.region = mt.region[:0]
	mt.heap = mt.heap[:0]
	mt.mark[u] = mt.stamp
	mt.pushHeap(u)
	for len(mt.heap) > 0 {
		w := mt.popHeap()
		switch {
		case mt.dstar[w]+mt.dplus[w] > k:
			mt.cand[w] = mt.stamp
			mt.region = append(mt.region, w)
			for _, y := range mt.adj[w] {
				if mt.core[y] == k && mt.label[w] < mt.label[y] {
					mt.dstar[y]++
					if mt.mark[y] < mt.stamp {
						mt.mark[y] = mt.stamp
						mt.pushHeap(y)
					}
				}
			}
		case mt.dstar[w] > 0:
			mt.settle(w, k)
		}
	}

	// The surviving candidates rise, in order, to the head of level k+1:
	// everything that stays at k is now before them, everything already
	// above k still after them.
	risers := mt.region[:0]
	p := -1
	for _, x := range mt.region {
		if mt.cand[x] == mt.stamp {
			mt.dstar[x] = 0
			mt.moveTo(x, k+1, p)
			p = x
			risers = append(risers, x)
		}
	}
	// Repair the support counters around the risers: each riser's own
	// support is recomputed at its new threshold (its neighbors' levels
	// are final by now), and every non-riser neighbor already sitting at
	// K+1 gains the riser's newly-counting contribution. Neighbors at or
	// below K are unaffected (the riser counted for them before and
	// still does), as are neighbors above K+1.
	for _, x := range risers {
		c := 0
		for _, y := range mt.adj[x] {
			if mt.core[y] >= k+1 {
				c++
				if mt.core[y] == k+1 && mt.cand[y] != mt.stamp {
					mt.supp[y]++
				}
			}
		}
		mt.supp[x] = c
	}
}

// settle fixes coreness-k node w, which the repair scan found unable to
// rise, in place, and evicts every candidate that cannot rise without
// it. A candidate before w loses w from the neighbors after it — whether
// it rises or is evicted it ends up after w — and w gains those
// candidates instead. An evicted candidate moves to just after w (after
// the previous eviction), passing the same loss on to the candidates
// before it and withdrawing its announcement from the nodes after it.
func (mt *Maintainer) settle(w, k int) {
	evicting := mt.stamp + 1
	mt.queue = mt.queue[:0]
	p := w
	for i := -1; i < len(mt.queue); i++ {
		x := w
		if i >= 0 {
			x = mt.queue[i]
			mt.cand[x] = 0
		}
		for _, y := range mt.adj[x] {
			switch {
			case mt.cand[y] == mt.stamp && mt.label[y] < mt.label[x]:
				mt.dplus[y]--
			case i >= 0 && mt.core[y] == k && mt.label[x] < mt.label[y] && mt.dstar[y] > 0:
				mt.dstar[y]--
			default:
				continue
			}
			if mt.cand[y] == mt.stamp && mt.dstar[y]+mt.dplus[y] <= k && mt.mark[y] != evicting {
				mt.mark[y] = evicting
				mt.queue = append(mt.queue, y)
			}
		}
		if i >= 0 {
			mt.moveTo(x, k, p)
			p = x
		}
		mt.dplus[x] += mt.dstar[x]
		mt.dstar[x] = 0
	}
}

// DeleteEdge removes the undirected edge {u, v} and updates coreness
// exactly. It reports whether the edge was present; deleting an absent
// edge — including self-loops, negative endpoints, and endpoints beyond
// the current node count — is a documented no-op returning false, never
// a panic, so deletions arriving ahead of (or instead of) their inserts
// cannot crash a replay.
func (mt *Maintainer) DeleteEdge(u, v int) bool {
	if !mt.HasEdge(u, v) || u == v {
		return false
	}
	k := mt.core[u]
	if mt.core[v] < k {
		k = mt.core[v]
	}
	if mt.before(u, v) {
		mt.dplus[u]--
	} else {
		mt.dplus[v]--
	}
	mt.ownRow(u)
	mt.ownRow(v)
	removeSorted(&mt.adj[u], v)
	removeSorted(&mt.adj[v], u)
	mt.m--
	if mt.core[v] >= mt.core[u] {
		mt.supp[u]--
	}
	if mt.core[u] >= mt.core[v] {
		mt.supp[v]--
	}

	// Only nodes of coreness K can fall, by exactly one. Propagate
	// decreases outward from the endpoints: a coreness-K node falls when
	// its maintained support — neighbors retaining coreness >= K — sits
	// below K, an O(1) read, and each fall decrements its coreness-K
	// neighbors' counters in O(1). During the cascade support only
	// decreases, so a node enqueued deficient is still deficient when
	// popped; the adjacency is walked only for nodes that actually drop,
	// to decrement their neighbors and recompute their own support at
	// the new threshold. A node that drops goes to the tail of level
	// K-1: the neighbors after it there are those still at K or above —
	// its support as it drops, less than K — and the coreness-K neighbors
	// it leaves behind lose it from the neighbors after them if it was.
	mt.queue = mt.queue[:0]
	for _, s := range [2]int{u, v} {
		if mt.core[s] == k && mt.supp[s] < k {
			mt.queue = append(mt.queue, s)
		}
	}
	for len(mt.queue) > 0 {
		x := mt.queue[len(mt.queue)-1]
		mt.queue = mt.queue[:len(mt.queue)-1]
		if mt.core[x] != k {
			continue // already dropped via another path
		}
		c := 0
		for _, y := range mt.adj[x] {
			if mt.core[y] >= k-1 {
				c++
			}
			if mt.core[y] == k {
				if mt.label[y] < mt.label[x] {
					mt.dplus[y]--
				}
				mt.supp[y]--
				if mt.supp[y] < k {
					mt.queue = append(mt.queue, y)
				}
			}
		}
		mt.dplus[x] = mt.supp[x]
		mt.supp[x] = c
		mt.moveTo(x, k-1, mt.levels[k-1].tail)
	}
	return true
}

// grow extends the node set to at least n isolated nodes.
func (mt *Maintainer) grow(n int) {
	for u := len(mt.core); u < n; u++ {
		if u&leafMask == 0 {
			mt.coreDirty.gen = append(mt.coreDirty.gen, 0)
			mt.rowDirty.gen = append(mt.rowDirty.gen, 0)
		}
		mt.coreDirty.mark(u, mt.gen)
		mt.rowDirty.mark(u, mt.gen)
		mt.rowGen = append(mt.rowGen, 0)
		mt.adj = append(mt.adj, nil)
		mt.core = append(mt.core, 0)
		mt.label = append(mt.label, 0)
		mt.prev = append(mt.prev, 0)
		mt.next = append(mt.next, 0)
		mt.dplus = append(mt.dplus, 0)
		mt.supp = append(mt.supp, 0)
		mt.mark = append(mt.mark, 0)
		mt.cand = append(mt.cand, 0)
		mt.dstar = append(mt.dstar, 0)
		mt.place(u, 0, mt.levels[0].tail)
	}
}

func insertSorted(xs *[]int, x int) {
	s := *xs
	i := sort.SearchInts(s, x)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	*xs = s
}

func removeSorted(xs *[]int, x int) {
	s := *xs
	i := sort.SearchInts(s, x)
	*xs = append(s[:i], s[i+1:]...)
}
