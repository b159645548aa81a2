package core

import "slices"

// Checkpoint/restore and repartition support. A checkpoint is the pair
// (estimate vector, support counters) captured at a round boundary;
// restore rebuilds identical state on a fresh HostState by replaying
// the estimate vector through Apply. That works because estimates are
// monotone non-increasing: after InitEstimates every value is at least
// its checkpointed counterpart, so applying the checkpoint batch lowers
// each tracked node to exactly its saved estimate, and the
// incrementally-maintained support counters — a pure function of the
// estimate vector — land in the saved state too. VerifySupport then
// serves as an end-to-end integrity check on the restored cascade
// state.

// ExportEstimates appends every tracked node's current estimate to dst
// as (global ID, estimate) pairs and returns the extended batch.
// External neighbors still at the +∞ sentinel are skipped — they carry
// no information and the sentinel does not survive a wire round trip.
// Returns dst unchanged before InitEstimates.
func (s *HostState) ExportEstimates(dst Batch) Batch {
	if !s.initialized {
		return dst
	}
	for l, g := range s.nodes {
		e := s.est[l]
		if !s.ownedLocal(l) && e == InfEstimate {
			continue
		}
		dst = append(dst, EstimateMsg{Node: g, Core: int(e)})
	}
	return dst
}

// ExportSupport appends every owned node's support counter to dst in
// owned order and returns it: position i is the number of Owned()[i]'s
// neighbors whose estimate is at least its own. Callers treat it as an
// opaque integrity payload to hand back to VerifySupport after a
// restore. Meaningless under SetOracleRefine, where the counters are
// not maintained.
func (s *HostState) ExportSupport(dst []int) []int {
	for _, c := range s.sup {
		dst = append(dst, int(c))
	}
	return dst
}

// VerifySupport reports whether flat matches the current support
// counters — the restore-path integrity check: a host that rebuilt
// state from a checkpoint's estimate vector must land on identical
// counters, since they are a pure function of the estimate vector.
// Always true under SetOracleRefine (no counters to check).
func (s *HostState) VerifySupport(flat []int) bool {
	if s.oracle {
		return true
	}
	return slices.EqualFunc(flat, s.sup, func(a int, b int32) bool { return a == int(b) })
}

// ResetChanged drops every pending changed mark without collecting.
// Repartition uses it to discard the blanket marks a rebuild leaves
// behind before marking the genuinely stale nodes.
func (s *HostState) ResetChanged() {
	s.clearChanged()
}

// MarkNodeChanged marks owned node u (global ID) for shipping at the
// next collection, reporting whether u is in fact owned here.
func (s *HostState) MarkNodeChanged(u int) bool {
	l, ok := s.lookup(u)
	if !ok || !s.ownedLocal(l) {
		return false
	}
	s.markChanged(l)
	return true
}

// EnqueueNode schedules owned node u (global ID) for recomputation in
// the next Improve pass, reporting whether u is owned here. The dirty
// flag is raised so ImproveIfDirty runs the cascade.
func (s *HostState) EnqueueNode(u int) bool {
	l, ok := s.lookup(u)
	if !ok || !s.ownedLocal(l) {
		return false
	}
	s.enqueue(l)
	s.dirty = true
	return true
}

// AppendOwnedEstimates appends every owned node's current estimate to
// dst in owned order (position i is Owned()[i]'s estimate) and returns
// the extended slice — the positional form for gathering a coreness
// vector without a per-node lookup. It is not enough state to rebuild
// the host: external knowledge below a node's own estimate matters for
// future recomputation, which is what the full ExportEstimates
// checkpoint keeps. Returns dst unchanged before InitEstimates.
func (s *HostState) AppendOwnedEstimates(dst []int) []int {
	if !s.initialized {
		return dst
	}
	for _, e := range s.est[:len(s.owned)] {
		dst = append(dst, int(e))
	}
	return dst
}
