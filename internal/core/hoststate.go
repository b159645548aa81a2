package core

import (
	"context"
	"slices"

	"dkcore/internal/kcore"
)

// HostState is the transport-agnostic protocol state machine of a
// one-to-many host (Algorithms 3–5). It is shared by the simulator
// adapter in this package and the networked host in internal/cluster,
// which both drive it through the same calls: callers feed it incoming batches (Apply), run
// the cascade (ImproveIfDirty) and ask it for outgoing batches
// (CollectPointToPoint or CollectBroadcast); the state machine neither
// knows nor cares how batches travel. Batches always name nodes by
// global ID.
//
// Internally every tracked node (owned or external neighbor) gets a
// compact local index — owned nodes occupy [0, len(owned)), externals
// follow — so per-node state lives in dense slices sized by the
// partition, not the graph, and the cascade's hot loop never touches a
// map; global IDs are translated only at the batch boundary, by one
// table built at construction (see lookup). The cascade itself is
// worklist-driven and incremental on one support counter per owned
// node: sup[l] is the number of l's neighbors whose estimate is at
// least est[l], a pure function of the estimate vector. InitEstimates
// seeds the round-0 local fixpoint with a bin-sort peel and counts sup
// in one pass over the arcs; a neighbor drop costs O(1) (decrement the
// counters it crosses), and only a node whose support fell below its
// estimate is enqueued. Improve recomputes such a node with one pass
// over its adjacency that yields both the new estimate and the new
// support, and every such pass lowers the estimate, so total work is
// O(Σ drops × degree). The recompute-from-scratch path survives behind
// SetOracleRefine as the executable specification for differential
// tests and benchmarks.
//
// Buffer-reuse contract: CollectBroadcast and CollectPointToPoint return
// double-buffered storage owned by the HostState — a returned batch (and
// the point-to-point map) stays valid until the second-following Collect
// call, after which it is overwritten. Engines that collect once per
// round and deliver by the next round (every engine in this module) are
// therefore always safe; callers that buffer batches longer must copy.
type HostState struct {
	selfID int
	owned  []int // V(x), global IDs, sorted: nodes[:len(owned)]

	// Local-index node space: owned nodes first (in sorted global
	// order), then external neighbors in first-seen order. Exactly one
	// of loc and local translates global IDs back (see NewHostState).
	nodes []int       // local → global ID
	loc   []int32     // dense: global ID → 1 + local index, 0 = untracked
	local map[int]int // sparse: global ID → local index

	// Flat local adjacency: the local-index neighbors of owned local l
	// are adjFlat[adjOff[l]:adjOff[l+1]] — one contiguous array per
	// partition, owned by the HostState (never aliasing the graph).
	// adjOff[0] is always 0.
	adjOff  []int32
	adjFlat []int32
	// Reverse adjacency of externals, flattened: the owned locals
	// adjacent to external local l are revFlat[revOff[i]:revOff[i+1]]
	// with i = l - len(owned).
	revOff  []int32
	revFlat []int32
	// Border: the positions in neighborHosts of the hosts owning a
	// neighbor of owned local l are border[borderOff[l]:borderOff[l+1]],
	// each listed once.
	borderOff     []int32
	border        []int32
	neighborHosts []int // sorted

	est         []int32 // per local; meaningful after InitEstimates (InfEstimate fits)
	initialized bool

	// sup[l] counts owned local l's neighbors with estimate >= est[l]
	// (externals at InfEstimate always count). Maintained by Apply and
	// Improve unless the oracle path is selected.
	sup []int32
	// Scratch retained across runs so a warmed state re-runs without
	// allocating: vert and pos are the bin-sort peel's order and
	// positions (per owned local); bins (maxDeg+1 entries) holds the
	// peel's bin starts in InitEstimates and the recompute's clamped
	// neighbor-estimate counts in Improve, and is all zero between uses.
	vert, pos []int32
	bins      []int32

	changed     []bool  // owned local marked since last collection
	changedList []int32 // the marked locals; sized for all of them

	queue   []int // FIFO of owned locals awaiting recomputation
	qhead   int
	inQueue []bool
	dirty   bool // est changed since last Improve

	// Double-buffered collection storage (see the type comment's
	// buffer-reuse contract). flip selects the half to overwrite next.
	bcast     [2]Batch
	bcastFlip int
	ptpOut    [2]map[int]Batch
	ptpBufs   [2][]Batch // indexed by neighborHosts position
	ptpFlip   int

	// Oracle refinement (SetOracleRefine): recompute-from-scratch via
	// ComputeIndex, kept as the differential-testing specification.
	oracle bool
	count  []int // ComputeIndex scratch (oracle only)
	ests   []int // neighbor-estimate gather scratch (oracle only)
}

// ownedLocal reports whether local index l is an owned node.
func (s *HostState) ownedLocal(l int32) bool { return int(l) < len(s.owned) }

// adj returns owned local l's local-index neighbors.
func (s *HostState) adj(l int) []int32 { return s.adjFlat[s.adjOff[l]:s.adjOff[l+1]] }

// revOf returns the owned locals adjacent to external local l.
func (s *HostState) revOf(l int) []int32 {
	i := l - len(s.owned)
	return s.revFlat[s.revOff[i]:s.revOff[i+1]]
}

// degreeOf returns owned local l's degree.
func (s *HostState) degreeOf(l int) int { return int(s.adjOff[l+1] - s.adjOff[l]) }

// NewHostState builds the state machine for host selfID from flat CSR
// partition state: owned is the host's node set (sorted ascending,
// global IDs) within a graph of numNodes nodes, and the global-ID
// neighbors of owned[i] are flat[off[i]:off[i+1]] — exactly the views
// Partitions.CSR returns (off[0] need not be zero), or the 32-bit rows
// a cluster host decodes from its config frame. owner maps any node ID
// to its responsible host; partitions built by PartitionAll pass the
// table lookup. The inputs are translated into private 32-bit
// local-index state; the HostState never mutates them.
//
//dkcore:estwrite constructor: allocates the not-yet-published estimate vector
func NewHostState[E int | int32](selfID, numNodes int, owned, off, flat []E, owner func(node int) int) *HostState {
	s := &HostState{selfID: selfID}
	nOwned := len(owned)
	totalDeg := 0
	if nOwned > 0 {
		totalDeg = int(off[nOwned] - off[0])
	}

	// Owned nodes take the first local indices; externals are appended
	// as the adjacency scan discovers them. The tracked-node count is
	// bounded by nOwned plus the externals, which cannot exceed either
	// the arc count or the non-owned remainder of the graph.
	extCap := totalDeg
	if rest := numNodes - nOwned; rest >= 0 && rest < extCap {
		extCap = rest
	}
	s.nodes = make([]int, nOwned, nOwned+extCap)
	for l, u := range owned {
		s.nodes[l] = int(u)
	}
	s.owned = s.nodes[:nOwned:nOwned]

	// Global→local translation: a dense table when the graph is at most
	// a constant factor larger than the partition (one array read per
	// lookup, and all partitions' tables together stay O(n+m)), a map
	// otherwise (many tiny partitions, or a hostile NumNodes from an
	// untrusted cluster config, where an O(numNodes) table per partition
	// would re-create the O(n·p) setup this module removed).
	const denseFactor = 8
	if numNodes <= denseFactor*(nOwned+totalDeg+1) {
		s.loc = make([]int32, numNodes)
		for l, u := range s.owned {
			s.loc[u] = int32(l) + 1
		}
	} else {
		s.local = make(map[int]int, nOwned+extCap)
		for l, u := range s.owned {
			s.local[u] = l
		}
	}

	// One pass over the arcs builds the local adjacency and each owned
	// node's border hosts. owner is asked once per external, when the
	// scan discovers it (extHost[i] is the host of external local
	// nOwned+i); arcs to owned locals never cross a border. stamp[h] is
	// 1 + the last owned local that listed host h, so a host is listed
	// at most once per node in O(1) per arc; the listed host IDs go to
	// one arena, sized for the worst case (one host per arc) so the scan
	// never reallocates.
	s.adjOff = make([]int32, nOwned+1)
	s.adjFlat = make([]int32, totalDeg)
	s.borderOff = make([]int32, nOwned+1)
	border := make([]int32, 0, totalDeg)
	stamp := make([]int32, 64)
	extHost := make([]int32, 0, extCap)
	nHosts, pos := 0, int32(0)
	for lu := range owned {
		s.adjOff[lu] = pos
		s.borderOff[lu] = int32(len(border))
		for _, e := range flat[off[lu]:off[lu+1]] {
			v := int(e)
			lv, ok := s.lookup(v)
			if !ok {
				lv = len(s.nodes)
				s.nodes = append(s.nodes, v)
				if s.loc != nil {
					s.loc[v] = int32(lv) + 1
				} else {
					s.local[v] = lv
				}
				hv := owner(v)
				if hv >= len(stamp) {
					stamp = append(stamp, make([]int32, max(hv+1, 2*len(stamp))-len(stamp))...)
				}
				extHost = append(extHost, int32(hv))
			}
			s.adjFlat[pos] = int32(lv)
			pos++
			if lv < nOwned {
				continue
			}
			hv := extHost[lv-nOwned]
			if int(hv) == selfID {
				continue
			}
			if stamp[hv] == 0 {
				nHosts++
			}
			if stamp[hv] != int32(lu)+1 {
				stamp[hv] = int32(lu) + 1
				border = append(border, hv)
			}
		}
	}
	s.adjOff[nOwned] = pos
	s.borderOff[nOwned] = int32(len(border))

	// Walking the stamps in host order yields the sorted neighborHosts;
	// the stamp table then becomes the host → position map that
	// rewrites the arena in place. An arena mostly left empty (block
	// assignments, where few arcs cross) is copied down to size.
	if nHosts > 0 {
		s.neighborHosts = make([]int, 0, nHosts)
		for h, st := range stamp {
			if st != 0 {
				stamp[h] = int32(len(s.neighborHosts))
				s.neighborHosts = append(s.neighborHosts, h)
			}
		}
		for i, h := range border {
			border[i] = stamp[h]
		}
		if 2*len(border) < cap(border) {
			border = slices.Clone(border)
		}
		s.border = border
	}

	n := len(s.nodes)
	// Reverse adjacency of externals, flattened by counting sort: count
	// each external's owned-neighbor degree, prefix-sum, fill.
	nExt := n - nOwned
	s.revOff = make([]int32, nExt+1)
	for _, lv := range s.adjFlat {
		if int(lv) >= nOwned {
			s.revOff[int(lv)-nOwned+1]++
		}
	}
	for i := 0; i < nExt; i++ {
		s.revOff[i+1] += s.revOff[i]
	}
	s.revFlat = make([]int32, s.revOff[nExt])
	cursor := make([]int32, nExt)
	for lu := 0; lu < nOwned; lu++ {
		for _, lv := range s.adj(lu) {
			if int(lv) >= nOwned {
				i := int(lv) - nOwned
				s.revFlat[s.revOff[i]+cursor[i]] = int32(lu)
				cursor[i]++
			}
		}
	}

	s.est = make([]int32, n)
	maxDeg := 0
	for l := range owned {
		maxDeg = max(maxDeg, s.degreeOf(l))
	}
	// One arena for the support counters and the peel scratch.
	arena := make([]int32, 3*nOwned+maxDeg+1)
	s.sup = arena[:nOwned:nOwned]
	s.vert = arena[nOwned : 2*nOwned : 2*nOwned]
	s.pos = arena[2*nOwned : 3*nOwned : 3*nOwned]
	s.bins = arena[3*nOwned:]
	s.changed = make([]bool, nOwned)
	s.changedList = make([]int32, 0, nOwned)
	s.inQueue = make([]bool, nOwned)
	// The double-buffered collection storage (ptpBufs/ptpOut) is
	// allocated on first collect: paying for it here would put an
	// O(neighborHosts) cost on every partition of a setup that may never
	// ship a batch, visible in the flat-in-p partition-setup gate.
	return s
}

// lookup resolves a global node ID to its local index. IDs come off the
// wire unchecked, so any int — negative, past numNodes — must resolve
// to "untracked" rather than index out of range.
func (s *HostState) lookup(u int) (int, bool) {
	if s.loc == nil {
		l, ok := s.local[u]
		return l, ok
	}
	if uint(u) >= uint(len(s.loc)) {
		return 0, false
	}
	l := int(s.loc[u]) - 1
	return l, l >= 0
}

// SetOracleRefine switches the host between incremental support-counter
// refinement (the default) and the recompute-from-scratch ComputeIndex
// path it replaced. The oracle exists as the executable specification:
// differential tests drive both modes in lockstep and the hot-path
// benchmark quantifies the gap. Must be called before InitEstimates.
//
//dkcore:estwrite allocates the oracle's gather scratch (ests), not live state
func (s *HostState) SetOracleRefine(on bool) {
	if s.initialized {
		panic("core: SetOracleRefine after InitEstimates")
	}
	s.oracle = on
	if on && s.count == nil {
		s.count = make([]int, len(s.bins))
		s.ests = make([]int, 0, len(s.bins)-1)
	}
}

// InitEstimates seeds Algorithm 3's initialization: external neighbors
// start at +∞ and every owned node at its round-0 local fixpoint — the
// value the cascade from est[u] = d(u) reaches while every external
// still reads +∞ — and marks every owned node changed so the first
// collection ships all initial estimates. The incremental path computes
// that fixpoint directly with a bin-sort peel over the owned nodes (an
// arc to an external is permanent support) and then counts sup in one
// pass over the arcs; the oracle path runs its cascade from the
// degrees. It is idempotent and allocation-free after the first call,
// so warmed state can be re-run (the hot-path benchmark's reset).
//
//dkcore:estwrite Algorithm 3 initialization: seeds the round-0 estimates before any exchange
func (s *HostState) InitEstimates() {
	for l := len(s.owned); l < len(s.est); l++ {
		s.est[l] = InfEstimate
	}
	s.initialized = true
	if s.oracle {
		for l := range s.owned {
			s.est[l] = int32(s.degreeOf(l))
			s.enqueue(l)
		}
		s.Improve()
	} else {
		// sup is the peel's residual-degree array; an arc to an external
		// (at +∞ until the first exchange) is never removed. The error is
		// the context's, and a background context never fires.
		_ = kcore.BinPeel(context.Background(), len(s.owned), s.adj, s.sup, s.vert, s.pos, s.bins)
		copy(s.est, s.sup)
		for l := range s.owned {
			s.sup[l] = s.countSupport(l)
		}
	}
	for l := range s.owned {
		s.markChanged(l)
	}
}

// countSupport counts owned local l's neighbors with estimate at least
// its own. O(degree).
//
//dkcore:noalloc adjacency scan
func (s *HostState) countSupport(l int) int32 {
	k, n := s.est[l], int32(0)
	for _, lv := range s.adj(l) {
		if s.est[lv] >= k {
			n++
		}
	}
	return n
}

// Apply lowers known estimates from an incoming batch. A lowered
// external costs O(1) per owned neighbor — decrement the support
// counters it crosses — and enqueues only the owned nodes whose support
// fell below their estimate. It reports whether any entry improved.
//
//dkcore:estwrite THE pointwise-min Apply entry point (Algorithm 3's receive)
//dkcore:noalloc steady-state delivery path, gated by TestRefineSteadyStateAllocs
func (s *HostState) Apply(batch Batch) bool {
	if !s.initialized {
		// Estimates do not exist yet; Algorithm 3's initialization will
		// ship fresher values than anything arriving this early.
		return false
	}
	improved := false
	for _, m := range batch {
		if m.Core < 0 {
			continue
		}
		lu, ok := s.lookup(m.Node)
		if !ok || m.Core >= int(s.est[lu]) {
			continue
		}
		a, b := s.est[lu], int32(m.Core)
		s.est[lu] = b
		s.dirty = true
		improved = true
		if lu < len(s.owned) {
			// A remote authority lowered an owned estimate directly (no
			// well-behaved peer does this, but the protocol tolerates it,
			// and a restore replays its checkpoint this way): recount the
			// node's own support under the new bound and treat the drop
			// like any other for its neighbors, which must hear about it
			// too or stay stale at an overestimate (a bug the
			// differential fuzzer once found here).
			if s.oracle {
				for _, lv := range s.adj(lu) {
					if s.ownedLocal(lv) && s.est[lv] > b {
						s.enqueue(int(lv))
					}
				}
			} else {
				s.sup[lu] = s.countSupport(lu)
				s.propagateDrop(lu, a, b)
			}
			s.enqueue(lu)
		} else if s.oracle {
			for _, lo := range s.revOf(lu) {
				if s.est[lo] > b {
					s.enqueue(int(lo))
				}
			}
		} else {
			for _, lo := range s.revOf(lu) {
				s.lowerOwned(int(lo), a, b)
			}
		}
	}
	return improved
}

// lowerOwned records neighbor drop a→b at owned local lu: the neighbor
// stops supporting lu exactly when b < est[lu] <= a, and lu is enqueued
// once its support falls below its estimate. O(1).
//
//dkcore:noalloc O(1) counter update on the cascade hot loop
func (s *HostState) lowerOwned(lu int, a, b int32) {
	if k := s.est[lu]; b < k && k <= a {
		s.sup[lu]--
		if s.sup[lu] < k {
			s.enqueue(lu)
		}
	}
}

// propagateDrop pushes owned local lv's estimate drop a→b into the
// support counters of its owned neighbors.
//
//dkcore:noalloc cascade hot loop
func (s *HostState) propagateDrop(lv int, a, b int32) {
	for _, lu := range s.adj(lv) {
		if s.ownedLocal(lu) {
			s.lowerOwned(int(lu), a, b)
		}
	}
}

// Improve is Algorithm 4: cascade refinement over the enqueued owned
// nodes until the worklist drains. The fixpoint is the same as a full
// sweep (estimates are monotone non-increasing), only cheaper. FIFO
// order lets a node absorb every pending neighbor drop before its own
// recomputation, so chains converge in one pass per level. A node whose
// support is still intact, or whose estimate is at the floor of 1, is
// skipped in O(1); any other is recomputed by refine, which always
// lowers it.
//
//dkcore:estwrite Algorithm 4's refinement: the only path that lowers owned estimates
//dkcore:noalloc the cascade hot loop, gated by TestRefineSteadyStateAllocs
func (s *HostState) Improve() {
	if s.oracle {
		s.improveOracle()
		return
	}
	for s.qhead < len(s.queue) {
		lu := s.queue[s.qhead]
		s.qhead++
		s.inQueue[lu] = false
		k := s.est[lu]
		if k <= 1 || s.sup[lu] >= k {
			continue
		}
		nk := s.refine(lu, k)
		s.est[lu] = nk
		s.markChanged(lu)
		s.propagateDrop(lu, k, nk)
	}
	s.queue = s.queue[:0]
	s.qhead = 0
	s.dirty = false
}

// refine is Algorithm 2 fused with the support count: one pass over
// owned local lu's adjacency buckets its neighbors' estimates clamped to
// its current estimate k, and a walk down from k finds the largest
// i <= k with at least i neighbors at or above i (floored at 1, as
// ComputeIndex floors it). That count is lu's support under the new
// estimate, stored in sup; the new estimate is returned. O(degree).
//
//dkcore:noalloc the cascade hot loop; bins is retained scratch
func (s *HostState) refine(lu int, k int32) int32 {
	cnt := s.bins[:k+1]
	for _, lv := range s.adj(lu) {
		cnt[min(s.est[lv], k)]++
	}
	i, sup := k, cnt[k]
	for i > 1 && sup < i {
		i--
		sup += cnt[i]
	}
	clear(cnt)
	s.sup[lu] = sup
	return i
}

// improveOracle is the retained recompute-from-scratch cascade: gather
// every neighbor estimate and re-run ComputeIndex — O(deg) per enqueued
// node.
//
//dkcore:estwrite the oracle refinement path, differentially tested against Improve
func (s *HostState) improveOracle() {
	for s.qhead < len(s.queue) {
		lu := s.queue[s.qhead]
		s.qhead++
		s.inQueue[lu] = false
		ku := int(s.est[lu])
		if ku <= 0 {
			continue
		}
		neighbors := s.adj(lu)
		s.ests = s.ests[:0]
		for _, lv := range neighbors {
			s.ests = append(s.ests, int(s.est[lv]))
		}
		k := ComputeIndex(s.ests, ku, s.count)
		if k >= ku {
			continue
		}
		s.est[lu] = int32(k)
		s.markChanged(lu)
		for _, lv := range neighbors {
			// Only a neighbor whose estimate still exceeds u's new value
			// can be lowered by this drop.
			if s.ownedLocal(lv) && int(s.est[lv]) > k {
				s.enqueue(int(lv))
			}
		}
	}
	s.queue = s.queue[:0]
	s.qhead = 0
	s.dirty = false
}

// ImproveIfDirty runs Improve only when an Apply lowered something since
// the last cascade.
//
//dkcore:noalloc cascade hot loop
func (s *HostState) ImproveIfDirty() {
	if s.dirty {
		s.Improve()
	}
}

//dkcore:noalloc worklist push; append reuses the retained queue buffer
func (s *HostState) enqueue(l int) {
	if !s.inQueue[l] {
		s.inQueue[l] = true
		s.queue = append(s.queue, l)
	}
}

//dkcore:noalloc changed-set push; append reuses the retained list buffer
func (s *HostState) markChanged(l int) {
	if !s.changed[l] {
		s.changed[l] = true
		s.changedList = append(s.changedList, int32(l))
	}
}

// HasChanges reports whether any owned estimate awaits shipping.
func (s *HostState) HasChanges() bool { return len(s.changedList) > 0 }

// ChangedCount returns the number of owned estimates changed since the
// last collection.
func (s *HostState) ChangedCount() int { return len(s.changedList) }

// CollectBroadcast returns one batch with every changed owned estimate and
// clears the changed set (the §3.2.1 broadcast policy). It returns nil
// when nothing changed. The batch aliases double-buffered storage: it is
// valid until the second-following Collect call (see the type comment),
// so steady-state rounds ship estimates without allocating.
//
//dkcore:noalloc steady-state collection, double-buffered (TestRefineSteadyStateAllocs)
func (s *HostState) CollectBroadcast() Batch {
	if len(s.changedList) == 0 {
		return nil
	}
	s.bcastFlip ^= 1
	batch := s.bcast[s.bcastFlip][:0]
	for _, l := range s.changedList {
		batch = append(batch, EstimateMsg{Node: s.nodes[l], Core: int(s.est[l])})
	}
	s.bcast[s.bcastFlip] = batch
	s.clearChanged()
	return batch
}

// CollectPointToPoint returns, per neighboring host, the batch of changed
// border estimates relevant to it (Algorithm 5), then clears the changed
// set. Hosts with no relevant changes are absent from the map. The map
// and its batches alias double-buffered storage valid until the
// second-following Collect call (see the type comment); steady-state
// rounds reuse both, allocating nothing.
//
//dkcore:noalloc steady-state collection, double-buffered (TestRefineSteadyStateAllocs)
func (s *HostState) CollectPointToPoint() map[int]Batch {
	if len(s.changedList) == 0 || len(s.neighborHosts) == 0 {
		s.clearChanged()
		return nil
	}
	s.ptpFlip ^= 1
	if s.ptpBufs[s.ptpFlip] == nil {
		//dkcore:lint-ignore KC004 first-collect warmup; never reached in steady state
		s.ptpBufs[s.ptpFlip] = make([]Batch, len(s.neighborHosts))
		//dkcore:lint-ignore KC004 first-collect warmup; never reached in steady state
		s.ptpOut[s.ptpFlip] = make(map[int]Batch, len(s.neighborHosts))
	}
	bufs := s.ptpBufs[s.ptpFlip]
	for i := range bufs {
		bufs[i] = bufs[i][:0]
	}
	for _, l := range s.changedList {
		msg := EstimateMsg{Node: s.nodes[l], Core: int(s.est[l])}
		for _, p := range s.border[s.borderOff[l]:s.borderOff[l+1]] {
			bufs[p] = append(bufs[p], msg)
		}
	}
	s.clearChanged()
	out := s.ptpOut[s.ptpFlip]
	clear(out)
	for p, b := range bufs {
		if len(b) > 0 {
			out[s.neighborHosts[p]] = b
		}
	}
	return out
}

//dkcore:noalloc per-collection reset of retained state
func (s *HostState) clearChanged() {
	for _, l := range s.changedList {
		s.changed[l] = false
	}
	s.changedList = s.changedList[:0]
}

// Estimate returns the current estimate for node u if this host tracks it
// (owned or neighboring).
func (s *HostState) Estimate(u int) (int, bool) {
	if !s.initialized {
		return 0, false
	}
	l, ok := s.lookup(u)
	if !ok {
		return 0, false
	}
	return int(s.est[l]), true
}

// Owned returns the host's node set (sorted, shared slice — do not
// modify).
func (s *HostState) Owned() []int { return s.owned }

// NeighborHosts returns the hosts owning at least one neighbor of this
// host's nodes (sorted, shared slice — do not modify).
func (s *HostState) NeighborHosts() []int { return s.neighborHosts }
