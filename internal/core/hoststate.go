package core

import (
	"context"
	"math/bits"
	"slices"

	"dkcore/internal/kcore"
)

// HostState is the transport-agnostic protocol state machine of a
// one-to-many host (Algorithms 3–5). It is shared by the simulator
// adapter in this package and the networked host in internal/cluster,
// which both drive it through the same calls: callers feed it incoming
// batches (Apply), run the cascade (ImproveIfDirty) and ask it for
// outgoing batches (CollectPointToPoint or CollectBroadcast); the state
// machine neither knows nor cares how batches travel. Batches always
// name nodes by global ID.
//
// Internally every tracked node (owned or external neighbor) gets a
// compact local index — owned nodes occupy [0, len(owned)), externals
// follow — so per-node state lives in dense slices sized by the
// partition, not the graph, and the cascade's hot loop never touches a
// map; global IDs are translated only at the batch boundary (see
// lookup), by subtraction for an owned range (every cluster host's and
// block placement's) and otherwise by one table built at construction.
// The cascade is worklist-driven on the support-counter kernel
// (support.go) that the out-of-core engine shares: InitEstimates seeds
// the round-0 local fixpoint with a bin-sort peel and counts each owned
// node's support, a neighbor drop costs O(1) per counter it crosses, and
// only a node whose support fell below its estimate is enqueued, to be
// lowered, lowest estimate first, by one pass over its adjacency, so
// total work is O(Σ drops × degree). The recompute-from-scratch path
// survives behind SetOracleRefine as the executable specification for
// differential tests and benchmarks.
//
// Buffer-reuse contract: CollectBroadcast and CollectPointToPoint return
// double-buffered storage owned by the HostState — a returned batch (and
// the point-to-point map) stays valid until the second-following Collect
// call, after which it is overwritten. Engines that collect once per
// round and deliver by the next round (every engine in this module) are
// therefore always safe; callers that buffer batches longer must copy.
type HostState struct {
	owned []int // V(x), global IDs, sorted: nodes[:len(owned)]

	// Local-index node space: owned nodes first (in sorted global
	// order), then external neighbors in first-seen order. Exactly one
	// of loc and local translates the IDs outside [lo, hi) back.
	nodes  []int       // local → global ID
	lo, hi int         // the owned range (empty if not a range): ID u is local u−lo
	loc    []int32     // dense: global ID → 1 + local index, 0 = untracked
	local  map[int]int // sparse: global ID → local index

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
	// Improve unless the oracle path is selected. Externals, at local
	// indices >= len(sup), keep none.
	sup []int32
	// Scratch retained across runs so a warmed state re-runs without
	// allocating: vert and pos are the bin-sort peel's order and
	// positions (per owned local); bins (maxDeg+1 entries) holds the
	// peel's bin starts in InitEstimates and the recompute's clamped
	// neighbor-estimate counts in Improve, and is all zero between uses;
	// woken holds the owned locals a Drop left below their estimate.
	vert, pos []int32
	bins      []int32
	woken     []int32
	walked    int64 // adjacency entries Refine scanned: the cascade's work

	changed  []uint64 // bit l: owned local l marked since last collection
	nChanged int      // the bits set

	// The worklist, owned locals bucketed by estimate at enqueue: qhead[k]
	// is 1 + the last pushed at key k, qnext[l] 1 + the one pushed before
	// l (0 ends both), and qmin <= the lowest key (Improve leaves it top).
	qhead   []int32
	qnext   []int32
	qmin    int32
	qlen    int
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
	s := &HostState{}
	nOwned := len(owned)
	// Only arcs that leave the owned range can name an external or list
	// a border host, so their count bounds both; without a range, every
	// arc might. Externals are also bounded by the rest of the graph.
	totalDeg, cross := 0, 0
	if nOwned > 0 {
		totalDeg = int(off[nOwned] - off[0])
		cross = totalDeg
		if int(owned[nOwned-1]-owned[0]) == nOwned-1 {
			s.lo, s.hi, cross = int(owned[0]), int(owned[0])+nOwned, 0
			for _, e := range flat[off[0]:off[nOwned]] {
				if uint(int(e)-s.lo) >= uint(nOwned) {
					cross++
				}
			}
		}
	}
	extCap := cross
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
	} else {
		s.local = make(map[int]int, nOwned+extCap)
	}
	if s.hi == s.lo {
		for l, u := range owned {
			s.track(int(u), l)
		}
	}

	// One pass over the arcs builds the local adjacency and each owned
	// node's border hosts. Owned nodes take the first local indices and
	// externals are appended as the scan discovers them; owner is asked
	// once per external (extHost[i] is the host of external local
	// nOwned+i), and arcs to owned locals never cross a border. stamp[h]
	// is 1 + the last owned local that listed host h, so a host is
	// listed at most once per node in O(1) per arc, into an arena sized
	// for one host per crossing arc so the scan never reallocates.
	s.adjOff = make([]int32, nOwned+1)
	s.adjFlat = make([]int32, totalDeg)
	s.borderOff = make([]int32, nOwned+1)
	border := make([]int32, 0, cross)
	extHost := make([]int32, 0, extCap)
	stamp := make([]int32, 64)
	nHosts, pos, maxDeg := 0, int32(0), 0
	for lu := range owned {
		s.adjOff[lu] = pos
		maxDeg = max(maxDeg, int(off[lu+1]-off[lu]))
		s.borderOff[lu] = int32(len(border))
		for _, e := range flat[off[lu]:off[lu+1]] {
			v := int(e)
			lv, ok := s.lookup(v)
			if !ok {
				lv = len(s.nodes)
				s.nodes = append(s.nodes, v)
				s.track(v, lv)
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
	// rewrites the arena in place. An arena mostly left empty (a node's
	// crossing arcs often share a host) is copied down to size.
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
	// each external's owned-neighbor degree, prefix-sum to the list ends,
	// and fill backwards, which moves each offset down to its start.
	nExt := n - nOwned
	s.revOff = make([]int32, nExt+1)
	for _, lv := range s.adjFlat {
		if int(lv) >= nOwned {
			s.revOff[int(lv)-nOwned]++
		}
	}
	for i := 1; i <= nExt; i++ {
		s.revOff[i] += s.revOff[i-1]
	}
	s.revFlat = make([]int32, s.revOff[nExt])
	for lu := nOwned - 1; lu >= 0; lu-- {
		for _, lv := range s.adj(lu) {
			if i := int(lv) - nOwned; i >= 0 {
				s.revOff[i]--
				s.revFlat[s.revOff[i]] = int32(lu)
			}
		}
	}

	s.est = make([]int32, n)
	// One arena for the support counters, the peel and worklist scratch.
	arena := make([]int32, 4*nOwned+2*(maxDeg+1))
	s.sup = arena[:nOwned:nOwned]
	s.vert = arena[nOwned : 2*nOwned : 2*nOwned]
	s.pos = arena[2*nOwned : 3*nOwned : 3*nOwned]
	s.qnext = arena[3*nOwned : 4*nOwned : 4*nOwned]
	s.bins = arena[4*nOwned : 4*nOwned+maxDeg+1 : 4*nOwned+maxDeg+1]
	s.qhead = arena[4*nOwned+maxDeg+1:]
	s.changed = make([]uint64, (nOwned+63)/64)
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
	if uint(u-s.lo) < uint(s.hi-s.lo) {
		return u - s.lo, true
	}
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

// track records that global ID u has local index l in the table.
func (s *HostState) track(u, l int) {
	if s.loc != nil {
		s.loc[u] = int32(l) + 1
	} else {
		s.local[u] = l
	}
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
			s.sup[l] = Support(s.adj(l), s.est, s.est[l])
		}
	}
	for l := range s.owned {
		s.markChanged(l)
	}
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
				s.sup[lu] = Support(s.adj(lu), s.est, b)
				s.wake(Drop(s.adj(lu), s.est, s.sup, a, b, s.woken[:0]))
			}
			s.enqueue(lu)
		} else if s.oracle {
			for _, lo := range s.revOf(lu) {
				if s.est[lo] > b {
					s.enqueue(int(lo))
				}
			}
		} else {
			s.wake(Drop(s.revOf(lu), s.est, s.sup, a, b, s.woken[:0]))
		}
	}
	return improved
}

// wake enqueues woken in order and keeps the buffer for the next Drop.
//
//dkcore:noalloc cascade hot loop
func (s *HostState) wake(woken []int32) {
	for _, l := range woken {
		s.enqueue(int(l))
	}
	s.woken = woken
}

// Improve is Algorithm 4: cascade refinement over the enqueued owned
// nodes until the worklist drains, lowest estimate first: a hub is
// recomputed once its lower neighbors have settled, not once per level
// they pass through. The order cannot change a count: a recomputation
// never lowers a node below the greatest fixpoint under the round's
// starting estimates, so the cascade drains to that fixpoint in any
// order, and the changed set and every value shipped are the same. A
// node whose support is still intact, or whose estimate is at the floor
// of 1, is skipped in O(1); any other is recomputed by Refine, which
// always lowers it.
//
//dkcore:estwrite Algorithm 4's refinement: the only path that lowers owned estimates
//dkcore:noalloc the cascade hot loop, gated by TestRefineSteadyStateAllocs
func (s *HostState) Improve() {
	if s.oracle {
		s.improveOracle() // drains the queue, so the loop below does nothing
	}
	for s.qlen > 0 {
		lu := s.dequeue()
		k := s.est[lu]
		if k <= 1 || s.sup[lu] >= k {
			continue
		}
		row := s.adj(lu)
		nk, sup := Refine(row, s.est, k, s.bins)
		s.walked += int64(len(row))
		s.est[lu], s.sup[lu] = nk, sup
		s.markChanged(lu)
		s.wake(Drop(row, s.est, s.sup, k, nk, s.woken[:0]))
	}
	s.qmin = int32(len(s.qhead) - 1) // the drained worklist's next push sets it
	s.dirty = false
}

// improveOracle is the retained recompute-from-scratch cascade: gather
// every neighbor estimate and re-run ComputeIndex — O(deg) per enqueued
// node.
//
//dkcore:estwrite the oracle refinement path, differentially tested against Improve
func (s *HostState) improveOracle() {
	for s.qlen > 0 {
		lu := s.dequeue()
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

//dkcore:noalloc worklist push at the local's estimate into the retained buckets
func (s *HostState) enqueue(l int) {
	if !s.inQueue[l] {
		s.inQueue[l] = true
		k := s.est[l]
		s.qnext[l], s.qhead[k] = s.qhead[k], int32(l)+1
		s.qmin = min(s.qmin, k)
		s.qlen++
	}
}

//dkcore:noalloc worklist pop of a lowest-key local; the worklist must not be empty
func (s *HostState) dequeue() int {
	for s.qhead[s.qmin] == 0 {
		s.qmin++
	}
	l := s.qhead[s.qmin] - 1
	s.qhead[s.qmin], s.inQueue[l] = s.qnext[l], false
	s.qlen--
	return int(l)
}

//dkcore:noalloc changed-set push into the retained bitset
func (s *HostState) markChanged(l int) {
	if w, b := l>>6, uint64(1)<<(l&63); s.changed[w]&b == 0 {
		s.changed[w] |= b
		s.nChanged++
	}
}

// HasChanges reports whether any owned estimate awaits shipping.
func (s *HostState) HasChanges() bool { return s.nChanged > 0 }

// ChangedCount returns the number of owned estimates changed since the
// last collection.
func (s *HostState) ChangedCount() int { return s.nChanged }

// CollectBroadcast returns one batch with every changed owned estimate, in
// ascending node order, and clears the changed set (the §3.2.1 broadcast
// policy). It returns nil when nothing changed. The batch aliases
// double-buffered storage: it is valid until the second-following
// Collect call (see the type comment), so steady-state rounds ship
// estimates without allocating.
//
//dkcore:noalloc steady-state collection, double-buffered (TestRefineSteadyStateAllocs)
func (s *HostState) CollectBroadcast() Batch {
	if s.nChanged == 0 {
		return nil
	}
	s.bcastFlip ^= 1
	batch := s.bcast[s.bcastFlip][:0]
	for w, word := range s.changed { // ascending locals, hence nodes
		for ; word != 0; word &= word - 1 {
			l := w<<6 | bits.TrailingZeros64(word)
			batch = append(batch, EstimateMsg{Node: s.nodes[l], Core: int(s.est[l])})
		}
	}
	s.bcast[s.bcastFlip] = batch
	s.clearChanged()
	return batch
}

// CollectPointToPoint returns, per neighboring host, the batch of changed
// border estimates relevant to it (Algorithm 5) in ascending node order,
// then clears the changed set. Hosts with no relevant changes are absent
// from the map. The map and its batches alias double-buffered storage
// valid until the second-following Collect call (see the type comment);
// steady-state rounds reuse both, allocating nothing.
//
//dkcore:noalloc steady-state collection, double-buffered (TestRefineSteadyStateAllocs)
func (s *HostState) CollectPointToPoint() map[int]Batch {
	if s.nChanged == 0 || len(s.neighborHosts) == 0 {
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
	for w, word := range s.changed { // ascending locals, hence nodes
		for ; word != 0; word &= word - 1 {
			l := w<<6 | bits.TrailingZeros64(word)
			msg := EstimateMsg{Node: s.nodes[l], Core: int(s.est[l])}
			for _, p := range s.border[s.borderOff[l]:s.borderOff[l+1]] {
				bufs[p] = append(bufs[p], msg)
			}
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
	clear(s.changed)
	s.nChanged = 0
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
