package core

import "slices"

// NodeState is Algorithm 1's per-node machine, the counterpart of
// HostState for engines that keep one independent process per graph
// node: the simulated one-to-one node and the live runtimes (async,
// δ-rounds, epidemic) all drive this one type and differ only in how
// messages move. Deliver is its only estimate writer and it applies
// pointwise-min, so a node's estimate can only go down — the paper's
// safety property holds by construction.
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
// adjacency, which it aliases and never writes: the topology is fixed for
// the node's lifetime.
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
