package live

import (
	"slices"
	"sync"

	"dkcore/internal/graph"
)

// Mutable runs the synchronous δ-round protocol on a graph that changes
// while the system is up: edge insertions and deletions are buffered and
// absorbed between rounds, so a running decomposition follows the mutating
// graph instead of being restarted from scratch.
//
// The protocol converges from upper bounds downward, which makes the two
// mutation kinds asymmetric:
//
//   - Deletions are native. Coreness only decreases, so the engine removes
//     the edge, recomputes the endpoints' indices, and lets the ordinary
//     rounds propagate the decrease. Deletions are therefore applied
//     immediately, even mid-convergence.
//   - Insertions can raise coreness, which the downward protocol cannot do
//     on its own. The engine waits for quiescence (so estimates equal
//     exact coreness), computes the affected region — the coreness-K
//     component around the new edge, K = min(core(u), core(v)), the only
//     nodes whose coreness can rise, by exactly one — and re-seeds just
//     that neighborhood's upper bounds to min(degree, K+1) before resuming
//     rounds.
//
// All methods are safe for concurrent use; mutations are serialized with
// the round loop. After Converge returns, Coreness is exact for the graph
// that includes every mutation submitted before the call.
type Mutable struct {
	mu      sync.Mutex
	rt      *roundRuntime
	rounds  int
	pending []mutation
	// overlay records the net presence of edges touched by buffered
	// mutations (key has u < v), so presence checks stay O(1) instead of
	// rescanning the pending list.
	overlay map[[2]int]bool
	// started reports whether the initial broadcast round has run.
	started bool
	// quiescent reports whether the runtime is at a protocol fixpoint
	// with no pending mutations applied since.
	quiescent bool
}

type mutation struct {
	del  bool
	u, v int
}

// NewMutable builds a mutable live runtime over g. The initial
// decomposition converges on the first Converge call.
func NewMutable(g *graph.Graph, opts ...Option) *Mutable {
	return &Mutable{rt: newRoundRuntime(g, buildOptions(opts), true)}
}

// NumNodes returns the current node count.
func (m *Mutable) NumNodes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.rt.nodes)
}

// HasEdge reports whether {u, v} is present, counting buffered mutations.
func (m *Mutable) HasEdge(u, v int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hasEdgeLocked(u, v)
}

func (m *Mutable) hasEdgeLocked(u, v int) bool {
	if present, buffered := m.overlay[edgeKey(u, v)]; buffered {
		return present
	}
	if u < 0 || v < 0 || u >= len(m.rt.nodes) || v >= len(m.rt.nodes) {
		return false
	}
	_, ok := slices.BinarySearch(m.rt.nodes[u].st.Neighbors(), v)
	return ok
}

func edgeKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// InsertEdge buffers the insertion of {u, v}, growing the node set as
// needed. It reports whether the edge will be new at application time;
// self-loops, negative endpoints, and duplicates are rejected.
func (m *Mutable) InsertEdge(u, v int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if u < 0 || v < 0 || u == v || m.hasEdgeLocked(u, v) {
		return false
	}
	if m.overlay == nil {
		m.overlay = make(map[[2]int]bool)
	}
	m.overlay[edgeKey(u, v)] = true
	m.pending = append(m.pending, mutation{u: u, v: v})
	return true
}

// DeleteEdge buffers the deletion of {u, v}. It reports whether the edge
// will be present at application time.
func (m *Mutable) DeleteEdge(u, v int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if u == v || !m.hasEdgeLocked(u, v) {
		return false
	}
	if m.overlay == nil {
		m.overlay = make(map[[2]int]bool)
	}
	m.overlay[edgeKey(u, v)] = false
	m.pending = append(m.pending, mutation{del: true, u: u, v: v})
	return true
}

// Converge applies every buffered mutation and drives rounds until the
// protocol quiesces, returning the exact coreness of the mutated graph
// along with cumulative round and message counts.
func (m *Mutable) Converge() *Result {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.started {
		m.started = true
		m.rt.start()
		m.rounds++
	}
	for _, mut := range m.pending {
		if mut.del {
			// Deletions ride the protocol's native downward convergence.
			m.applyDelete(mut.u, mut.v)
		} else {
			// Insertions re-seed upper bounds, which is only sound
			// against exact estimates: quiesce first.
			m.runToQuiescence()
			m.applyInsert(mut.u, mut.v)
		}
	}
	m.pending = m.pending[:0]
	clear(m.overlay)
	m.runToQuiescence()
	m.quiescent = true
	return m.rt.result(m.rounds)
}

// Coreness returns the current per-node estimates (exact after a Converge
// with no later mutations).
func (m *Mutable) Coreness() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rt.coreness()
}

// Graph materializes the current topology (excluding buffered mutations).
func (m *Mutable) Graph() *graph.Graph {
	m.mu.Lock()
	defer m.mu.Unlock()
	b := graph.NewBuilder(len(m.rt.nodes))
	for u, nd := range m.rt.nodes {
		for _, v := range nd.st.Neighbors() {
			if u < v {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

func (m *Mutable) runToQuiescence() {
	if m.quiescent {
		return
	}
	for m.rt.step() {
		m.rounds++
	}
	m.rounds++ // the quiet round that confirmed termination
	m.quiescent = true
}

// growLocked extends the runtime with isolated nodes up to id n-1.
func (m *Mutable) growLocked(n int) {
	for len(m.rt.nodes) < n {
		m.rt.nodes = append(m.rt.nodes, &roundNode{id: len(m.rt.nodes)})
	}
}

// applyDelete removes {u, v} from the topology and recomputes the
// endpoints' indices; the round loop propagates any decrease.
func (m *Mutable) applyDelete(u, v int) {
	nu, nv := m.rt.nodes[u], m.rt.nodes[v]
	if nu.st.RemoveNeighbor(v) {
		nu.changed = true
	}
	if nv.st.RemoveNeighbor(u) {
		nv.changed = true
	}
	m.quiescent = false
}

// applyInsert adds {u, v} and re-seeds the affected region's upper
// bounds. The runtime must be quiescent (estimates exact).
func (m *Mutable) applyInsert(u, v int) {
	m.growLocked(max(u, v) + 1)
	nodes := m.rt.nodes
	nodes[u].st.AddNeighbor(v)
	nodes[v].st.AddNeighbor(u)

	k := min(nodes[u].st.Core(), nodes[v].st.Core())
	// Region: the coreness-K nodes around the new edge whose coreness can
	// rise (to exactly K+1). As in internal/stream, the traversal expands
	// only through candidates — nodes with more than K neighbors of
	// coreness >= K — since anything tighter can neither rise nor
	// transmit a rise.
	visited := make(map[int]bool)
	inRegion := make(map[int]bool)
	var stack []int
	for _, root := range [2]int{u, v} {
		if nodes[root].st.Core() == k && !visited[root] {
			visited[root] = true
			stack = append(stack, root)
		}
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ns := nodes[x].st.Neighbors()
		c := 0
		for _, y := range ns {
			if nodes[y].st.Core() >= k {
				c++
			}
		}
		if c <= k {
			continue
		}
		inRegion[x] = true
		for _, y := range ns {
			if nodes[y].st.Core() == k && !visited[y] {
				visited[y] = true
				stack = append(stack, y)
			}
		}
	}

	// Re-seed: each region node's upper bound rises to min(deg, K+1).
	for x := range inRegion {
		nx := &nodes[x].st
		nx.Reseed(min(len(nx.Neighbors()), k+1))
	}
	// Refresh estimates around the region from actual state. A region
	// node's own estimate vector is rebuilt outright: under the §3.1.2
	// filter entries can sit stale above a neighbor's value — harmless
	// while coreness only falls (they still saturate correctly at the
	// node's cap) but unsound once the reseed raises the cap. Every copy
	// of a region node's old estimate held by its neighbors is raised to
	// its seed; region nodes rebroadcast on the next round.
	boundary := make(map[int]bool)
	for x := range inRegion {
		nx := &nodes[x].st
		for _, y := range nx.Neighbors() {
			ny := &nodes[y].st
			nx.Overwrite(y, ny.Core()) // seed for region neighbors, exact otherwise
			ny.Overwrite(x, nx.Core())
			if !inRegion[y] {
				boundary[y] = true
			}
		}
	}
	// Overwrite raises entries, which only a refiner rebuild absorbs:
	// recompute every neighbor of the region from its refreshed estimate
	// vector, each exactly once — a boundary hub adjacent to many region
	// nodes must not pay one O(deg) rebuild per region neighbor. Raised
	// support cannot lower a quiescent node, so this only resyncs.
	for y := range boundary {
		if nodes[y].st.Recompute() {
			nodes[y].changed = true
		}
	}
	// Immediately re-tighten each region node against its (upper-bound)
	// estimates so nodes that cannot actually rise don't linger at K+1,
	// then mark them for rebroadcast.
	for x := range inRegion {
		nodes[x].st.Recompute()
		nodes[x].changed = true
	}
	m.quiescent = false
}
