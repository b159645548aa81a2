package core

import "slices"

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
// worklist-driven and incremental: every owned node maintains a
// histogram of its neighbors' estimates clamped to its own (see
// refine.go), updated in O(1) per neighbor drop, so Apply enqueues only
// the owned nodes whose support actually fell below their estimate, and
// Improve recomputes an enqueued node by walking its histogram downward —
// O(levels dropped), never O(degree). Total refinement work is
// proportional to the sum of estimate drops, not re-enqueues × degree —
// the property that keeps power-law hubs cheap. The recompute-from-
// scratch path survives behind SetOracleRefine as the executable
// specification for differential tests and benchmarks.
//
// Buffer-reuse contract: CollectBroadcast and CollectPointToPoint return
// double-buffered storage owned by the HostState — a returned batch (and
// the point-to-point map) stays valid until the second-following Collect
// call, after which it is overwritten. Engines that collect once per
// round and deliver by the next round (every engine in this module) are
// therefore always safe; callers that buffer batches longer must copy.
type HostState struct {
	selfID int
	owned  []int // V(x), global IDs, sorted

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
	adjOff  []int
	adjFlat []int
	// Reverse adjacency of externals, flattened: the owned locals
	// adjacent to external local l are revFlat[revOff[i]:revOff[i+1]]
	// with i = l - len(owned).
	revOff  []int32
	revFlat []int32
	// Border: the positions in neighborHosts of the hosts owning a
	// neighbor of owned local l are border[borderOff[l]:borderOff[l+1]],
	// each listed once.
	borderOff     []int
	border        []int32
	neighborHosts []int // sorted

	est         []int // per local; meaningful after InitEstimates
	initialized bool

	// histBuf holds every owned node's clamped neighbor-estimate
	// histogram in one flat array: owned local l's buckets are
	// histBuf[adjOff[l]+l : adjOff[l+1]+l+1] (degree+1 buckets, indexed
	// by clamped estimate). Maintained by Apply/Improve unless the
	// oracle path is selected.
	histBuf []int

	changed     []bool // owned local marked since last collection
	changedList []int

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
func (s *HostState) ownedLocal(l int) bool { return l < len(s.owned) }

// hist returns owned local l's clamped neighbor-estimate histogram.
func (s *HostState) hist(l int) []int {
	return s.histBuf[s.adjOff[l]+l : s.adjOff[l+1]+l+1]
}

// revOf returns the owned locals adjacent to external local l.
func (s *HostState) revOf(l int) []int32 {
	i := l - len(s.owned)
	return s.revFlat[s.revOff[i]:s.revOff[i+1]]
}

// degreeOf returns owned local l's degree.
func (s *HostState) degreeOf(l int) int { return s.adjOff[l+1] - s.adjOff[l] }

// NewHostState builds the state machine for host selfID from flat CSR
// partition state: owned is the host's node set (sorted ascending,
// global IDs) within a graph of numNodes nodes, and the global-ID
// neighbors of owned[i] are flat[off[i]:off[i+1]] — exactly the views
// Partitions.CSR returns (off[0] need not be zero). owner maps any node
// ID to its responsible host; partitions built by PartitionAll pass the
// table lookup. The inputs are translated into private local-index
// state; the HostState never mutates them.
//
//dkcore:estwrite constructor: allocates the not-yet-published estimate vector
func NewHostState(selfID, numNodes int, owned, off, flat []int, owner func(node int) int) *HostState {
	s := &HostState{
		selfID: selfID,
		owned:  owned,
	}
	nOwned := len(owned)
	totalDeg := 0
	if nOwned > 0 {
		totalDeg = off[nOwned] - off[0]
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
	copy(s.nodes, owned)

	// Global→local translation: a dense table when the graph is at most
	// a constant factor larger than the partition (one array read per
	// lookup, and all partitions' tables together stay O(n+m)), a map
	// otherwise (many tiny partitions, or a hostile NumNodes from an
	// untrusted cluster config, where an O(numNodes) table per partition
	// would re-create the O(n·p) setup this module removed).
	const denseFactor = 8
	if numNodes <= denseFactor*(nOwned+totalDeg+1) {
		s.loc = make([]int32, numNodes)
		for l, u := range owned {
			s.loc[u] = int32(l) + 1
		}
	} else {
		s.local = make(map[int]int, nOwned+extCap)
		for l, u := range owned {
			s.local[u] = l
		}
	}

	// One pass over the arcs builds the local adjacency and each owned
	// node's border hosts. stamp[h] is 1 + the last owned local that
	// listed host h, so a host is listed at most once per node in O(1)
	// per arc; the listed host IDs go to one arena, sized for the worst
	// case (one host per arc) so the scan never reallocates.
	s.adjOff = make([]int, nOwned+1)
	s.adjFlat = make([]int, totalDeg)
	s.borderOff = make([]int, nOwned+1)
	border := make([]int32, 0, totalDeg)
	stamp := make([]int32, 64)
	nHosts, pos := 0, 0
	for lu := range owned {
		s.adjOff[lu] = pos
		s.borderOff[lu] = len(border)
		for _, v := range flat[off[lu]:off[lu+1]] {
			lv, ok := s.lookup(v)
			if !ok {
				lv = len(s.nodes)
				s.nodes = append(s.nodes, v)
				if s.loc != nil {
					s.loc[v] = int32(lv) + 1
				} else {
					s.local[v] = lv
				}
			}
			s.adjFlat[pos] = lv
			pos++
			hv := owner(v)
			if hv == selfID {
				continue
			}
			if hv >= len(stamp) {
				stamp = append(stamp, make([]int32, max(hv+1, 2*len(stamp))-len(stamp))...)
			}
			if stamp[hv] == 0 {
				nHosts++
			}
			if stamp[hv] != int32(lu)+1 {
				stamp[hv] = int32(lu) + 1
				border = append(border, int32(hv))
			}
		}
	}
	s.adjOff[nOwned] = pos
	s.borderOff[nOwned] = len(border)

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
		if lv >= nOwned {
			s.revOff[lv-nOwned+1]++
		}
	}
	for i := 0; i < nExt; i++ {
		s.revOff[i+1] += s.revOff[i]
	}
	s.revFlat = make([]int32, s.revOff[nExt])
	cursor := make([]int32, nExt)
	for lu := 0; lu < nOwned; lu++ {
		for _, lv := range s.adjFlat[s.adjOff[lu]:s.adjOff[lu+1]] {
			if lv >= nOwned {
				i := lv - nOwned
				s.revFlat[s.revOff[i]+cursor[i]] = int32(lu)
				cursor[i]++
			}
		}
	}

	s.est = make([]int, n)
	s.histBuf = make([]int, totalDeg+nOwned)
	s.changed = make([]bool, nOwned)
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
		maxDeg := 0
		for l := range s.owned {
			if d := s.degreeOf(l); d > maxDeg {
				maxDeg = d
			}
		}
		s.count = make([]int, maxDeg+1)
		s.ests = make([]int, 0, maxDeg)
	}
}

// InitEstimates sets est[u] = d(u) for owned nodes and +∞ for external
// neighbors, builds the support histograms, runs the local cascade, and
// marks every owned node changed so the first collection ships all
// initial estimates (Algorithm 3's initialization). It is idempotent and
// allocation-free after the first call, so warmed state can be re-run
// (the hot-path benchmark's reset).
//
//dkcore:estwrite Algorithm 3 initialization: seeds est[u] = d(u) before any exchange
func (s *HostState) InitEstimates() {
	for l := range s.est {
		if s.ownedLocal(l) {
			s.est[l] = s.degreeOf(l)
		} else {
			s.est[l] = InfEstimate
		}
	}
	if !s.oracle {
		clear(s.histBuf)
		for lu := range s.owned {
			k := s.degreeOf(lu)
			if k == 0 {
				continue
			}
			cnt := s.hist(lu)
			for _, lv := range s.adjFlat[s.adjOff[lu]:s.adjOff[lu+1]] {
				j := s.est[lv]
				if j > k {
					j = k
				}
				cnt[j]++
			}
		}
	}
	s.initialized = true
	for l := range s.owned {
		s.enqueue(l)
	}
	s.Improve()
	for l := range s.owned {
		s.markChanged(l)
	}
}

// Apply lowers known estimates from an incoming batch, updating the
// affected owned nodes' support histograms in O(1) per (neighbor, drop)
// and enqueueing only the nodes whose support actually fell below their
// estimate. It reports whether any entry improved.
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
		if !ok || m.Core >= s.est[lu] {
			continue
		}
		a, b := s.est[lu], m.Core
		s.est[lu] = b
		s.dirty = true
		improved = true
		if s.ownedLocal(lu) {
			// A remote authority lowered an owned estimate directly (no
			// well-behaved peer does this, but the protocol tolerates
			// it): re-clamp the node's own histogram to the new bound
			// and treat the drop like any other for its neighbors. The
			// owned neighbors must hear about the drop too — the
			// pre-histogram code forgot them here, leaving their
			// estimates stale at an overestimate until unrelated traffic
			// happened to re-enqueue them (found by the differential
			// fuzzer); both paths now propagate.
			if s.oracle {
				for _, lv := range s.adjFlat[s.adjOff[lu]:s.adjOff[lu+1]] {
					if s.ownedLocal(lv) && s.est[lv] > b {
						s.enqueue(lv)
					}
				}
			} else {
				if a > 0 {
					supportFold(s.hist(lu), a, b)
				}
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

// lowerOwned records neighbor drop a→b in owned local lu's histogram and
// enqueues lu when its support fell below its estimate. O(1).
//
//dkcore:noalloc O(1) histogram update on the cascade hot loop
func (s *HostState) lowerOwned(lu, a, b int) {
	k := s.est[lu]
	if k <= 0 {
		return
	}
	cnt := s.hist(lu)
	if supportLower(cnt, k, a, b) && cnt[k] < k {
		s.enqueue(lu)
	}
}

// propagateDrop pushes owned local lv's estimate drop a→b into the
// histograms of its owned neighbors.
//
//dkcore:noalloc cascade hot loop
func (s *HostState) propagateDrop(lv, a, b int) {
	for _, lu := range s.adjFlat[s.adjOff[lv]:s.adjOff[lv+1]] {
		if s.ownedLocal(lu) {
			s.lowerOwned(lu, a, b)
		}
	}
}

// Improve is Algorithm 4: cascade refinement over the enqueued owned
// nodes until the worklist drains. The fixpoint is the same as a full
// sweep (estimates are monotone non-increasing), only cheaper. FIFO
// order lets a node absorb every pending neighbor drop before its own
// recomputation, so chains converge in one pass per level. Each
// recomputation walks the node's support histogram downward from its
// current estimate — O(levels dropped) — instead of rescanning its
// adjacency; nodes whose support is still intact are skipped in O(1).
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
		if k <= 0 {
			continue
		}
		cnt := s.hist(lu)
		if cnt[k] >= k {
			continue // support intact; nothing to recompute
		}
		nk := supportRefine(cnt, k)
		if nk >= k {
			continue // at the floor of 1; cannot drop further
		}
		s.est[lu] = nk
		s.markChanged(lu)
		s.propagateDrop(lu, k, nk)
	}
	s.queue = s.queue[:0]
	s.qhead = 0
	s.dirty = false
}

// improveOracle is the retained pre-histogram cascade: gather every
// neighbor estimate and re-run ComputeIndex — O(deg) per enqueued node.
//
//dkcore:estwrite the oracle refinement path, differentially tested against Improve
func (s *HostState) improveOracle() {
	for s.qhead < len(s.queue) {
		lu := s.queue[s.qhead]
		s.qhead++
		s.inQueue[lu] = false
		ku := s.est[lu]
		if ku <= 0 {
			continue
		}
		neighbors := s.adjFlat[s.adjOff[lu]:s.adjOff[lu+1]]
		s.ests = s.ests[:0]
		for _, lv := range neighbors {
			s.ests = append(s.ests, s.est[lv])
		}
		k := ComputeIndex(s.ests, ku, s.count)
		if k >= ku {
			continue
		}
		s.est[lu] = k
		s.markChanged(lu)
		for _, lv := range neighbors {
			// Only a neighbor whose estimate still exceeds u's new value
			// can be lowered by this drop.
			if s.ownedLocal(lv) && s.est[lv] > k {
				s.enqueue(lv)
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
		s.changedList = append(s.changedList, l)
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
		batch = append(batch, EstimateMsg{Node: s.nodes[l], Core: s.est[l]})
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
		msg := EstimateMsg{Node: s.nodes[l], Core: s.est[l]}
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
	return s.est[l], true
}

// Owned returns the host's node set (sorted, shared slice — do not
// modify).
func (s *HostState) Owned() []int { return s.owned }

// NeighborHosts returns the hosts owning at least one neighbor of this
// host's nodes (sorted, shared slice — do not modify).
func (s *HostState) NeighborHosts() []int { return s.neighborHosts }
