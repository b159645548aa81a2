package core

import "slices"

// NodeState is Algorithm 1's per-node machine, the counterpart of
// HostState for engines that keep one independent process per graph
// node: the simulated one-to-one node, the live runtimes, and the Pregel
// vertex program all drive this one type and differ only in how messages
// move.
//
// State follows the paper exactly: core is the node's own coreness
// estimate (initialized to the degree) and est holds the most recent
// estimate received from each neighbor (initialized to +∞). ref mirrors
// est as a clamped support histogram so a received drop costs O(1) and a
// recomputation costs the levels walked, not the degree (see refine.go)
// — the node computes exactly what per-message ComputeIndex would,
// cheaper.
//
// The zero value is an isolated node. A NodeState is not safe for
// concurrent use; every engine confines one to a single goroutine at a
// time.
type NodeState struct {
	neighbors []int // sorted adjacency
	est       []int // est[i] is the last estimate received from neighbors[i]
	core      int
	ref       Refiner
}

// NewNodeState returns the initial state of a node with the given sorted
// adjacency, which it aliases; a caller that will mutate the topology
// (AddNeighbor, RemoveNeighbor) passes a copy it owns.
func NewNodeState(neighbors []int) NodeState {
	est := make([]int, len(neighbors))
	for i := range est {
		est[i] = InfEstimate
	}
	s := NodeState{neighbors: neighbors, est: est, core: len(neighbors)}
	s.ref.Rebuild(s.core, est)
	return s
}

// Core returns the node's current coreness estimate.
func (s *NodeState) Core() int { return s.core }

// Neighbors returns the node's sorted adjacency; callers must not modify
// it.
func (s *NodeState) Neighbors() []int { return s.neighbors }

// Deliver handles a ⟨from, k⟩ message: store the improved neighbor
// estimate, recompute the local one, and report whether it was lowered
// — the event after which the node owes its neighbors a send. Messages
// from non-neighbors and estimates that do not improve on the stored one
// are ignored.
//
//dkcore:estwrite the per-node Apply entry point; pointwise-min guarded below
func (s *NodeState) Deliver(from, k int) (lowered bool) {
	i, ok := slices.BinarySearch(s.neighbors, from)
	if !ok || k >= s.est[i] {
		return false
	}
	old := s.est[i]
	s.est[i] = k
	if s.ref.Lower(old, k) {
		if t := s.ref.Refine(); t < s.core {
			s.core = t
			return true
		}
	}
	return false
}

// CanLower is the §3.1.2 send filter: it reports whether sending the
// node's current estimate to Neighbors()[i] can still lower that
// neighbor's index, i.e. whether it is below the last value heard from
// there.
func (s *NodeState) CanLower(i int) bool { return s.core < s.est[i] }

// The methods below absorb topology mutations (live.Mutable) and are the
// only paths that may raise estimate state.

// AddNeighbor inserts v into the adjacency with an initial +∞ estimate.
// Added support can only hold the node's index up, never lower it.
//
//dkcore:estwrite mutation absorption: grows the estimate vector with the adjacency
func (s *NodeState) AddNeighbor(v int) {
	i, _ := slices.BinarySearch(s.neighbors, v)
	s.neighbors = slices.Insert(s.neighbors, i, v)
	s.est = slices.Insert(s.est, i, InfEstimate)
	s.ref.Rebuild(s.core, s.est)
}

// RemoveNeighbor deletes neighbor v with the estimate held for it,
// recomputes the index, and reports whether it dropped.
//
//dkcore:estwrite mutation absorption: shrinks the estimate vector with the adjacency
func (s *NodeState) RemoveNeighbor(v int) (lowered bool) {
	i, _ := slices.BinarySearch(s.neighbors, v)
	s.neighbors = slices.Delete(s.neighbors, i, i+1)
	s.est = slices.Delete(s.est, i, i+1)
	return s.Recompute()
}

// Reseed raises the node's own estimate to the upper bound k — sound
// only against exact estimates, after an insertion widened what the
// node's coreness can be. Like Overwrite it bypasses the refiner's O(1)
// Lower path; a reseed sequence ends with Recompute on every node it
// touched.
func (s *NodeState) Reseed(k int) { s.core = k }

// Overwrite replaces the estimate held for neighbor v with k, which may
// be higher than the stored one: the refresh around a reseeded region.
//
//dkcore:estwrite mutation absorption: refreshes a reseeded region's estimates from actual state
func (s *NodeState) Overwrite(v, k int) {
	i, _ := slices.BinarySearch(s.neighbors, v)
	s.est[i] = k
}

// Recompute re-derives the node's index from its estimate vector —
// rebuilding the refiner, the only way to absorb raised entries — and
// reports whether the estimate dropped. An isolated node has coreness 0.
func (s *NodeState) Recompute() (lowered bool) {
	s.ref.Rebuild(s.core, s.est)
	t := 0 // Refine never returns below 1
	if len(s.neighbors) > 0 {
		t = s.ref.Refine()
	}
	if t < s.core {
		s.core = t
		return true
	}
	return false
}
