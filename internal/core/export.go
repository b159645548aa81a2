package core

// Estimate export. A host's estimates are monotone non-increasing and
// never drop below the coreness, so any exported value is an upper
// bound: applying it to a fresh HostState after InitEstimates is always
// safe, and the cascade from there converges to the same coreness. The
// cluster's checkpoints and restarts rest on this.

// AppendOwnedEstimates appends every owned node's current estimate to
// dst in owned order (position i is Owned()[i]'s estimate) and returns
// the extended slice — the positional form for gathering a coreness
// vector or a checkpoint without a per-node lookup. Returns dst
// unchanged before InitEstimates.
func (s *HostState) AppendOwnedEstimates(dst []int) []int {
	if !s.initialized {
		return dst
	}
	for _, e := range s.est[:len(s.owned)] {
		dst = append(dst, int(e))
	}
	return dst
}
