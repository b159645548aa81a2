package core

// This file holds the incremental counterpart of ComputeIndex for the
// per-node machine. A Refiner keeps a histogram of the neighbors'
// estimates clamped to the node's own estimate k (cnt[j] counts the
// neighbors at exactly j), so a neighbor's drop moves one unit between
// two buckets in O(1), and the node needs recomputing only when its top
// bucket, its support, falls below k. The recomputation is the kernel's
// HIndex walk (support.go) from k down, whose cost is the size of the
// drop, not the degree; that suits a node that takes one message at a
// time. HostState and the out-of-core engine, which cascade many nodes
// per pass, keep only the support counter (the kernel's Refine and
// Drop). ComputeIndex remains the executable specification that the
// differential tests hold both to.

// Refiner packages the incremental support histogram for NodeState, the
// per-node machine under every engine that keeps one independent state
// object per node. NodeState stores the raw neighbor estimates; the
// Refiner only sees drops and answers "what is my estimate now" without
// touching the adjacency.
//
// The zero value is a degree-0 node (estimate 0); call Rebuild to bind it
// to a real estimate vector.
type Refiner struct {
	k   int     // current estimate; mirrors the owning node's estimate
	cnt []int32 // clamped histogram, len == initial k + 1
}

// Rebuild resets the refiner to estimate k over the given raw neighbor
// estimates (values above k, including InfEstimate, clamp to k). It is
// the only entry point that may raise the estimate; NewNodeState calls
// it once, when the node's estimate is its degree.
func (r *Refiner) Rebuild(k int, est []int) {
	r.k = k
	if cap(r.cnt) < k+1 {
		r.cnt = make([]int32, k+1)
	} else {
		r.cnt = r.cnt[:k+1]
		clear(r.cnt)
	}
	for _, e := range est {
		if e > k {
			e = k
		}
		if e >= 0 {
			r.cnt[e]++
		}
	}
}

// K returns the current estimate.
func (r *Refiner) K() int { return r.k }

// Lower records a neighbor's estimate dropping from a to b (a > b) and
// reports whether the node's support fell below its estimate — the
// trigger for Refine. O(1).
//
//dkcore:noalloc per-message update on engine hot loops
func (r *Refiner) Lower(a, b int) (deficient bool) {
	k := r.k
	if k <= 0 {
		return false
	}
	// Clamp both ends into [0, k]; a drop entirely above k is invisible,
	// and only a drop out of the top bucket can make the node deficient.
	a, b = min(a, k), min(b, k)
	if a <= b {
		return false
	}
	r.cnt[a]--
	r.cnt[b]++
	return a == k && int(r.cnt[k]) < k
}

// Deficient reports whether fewer than k neighbors currently have
// estimate >= k, i.e. whether Refine would lower the estimate (except at
// the floor of 1, where the estimate cannot drop further).
//
//dkcore:noalloc per-message query on engine hot loops
func (r *Refiner) Deficient() bool {
	return r.k > 0 && int(r.cnt[r.k]) < r.k
}

// Refine walks the histogram down to the Algorithm 2 fixpoint, folds the
// abandoned levels, updates and returns the estimate. Equivalent to
// ComputeIndex over the node's raw estimates with bound K(), at cost
// proportional to the drop instead of the degree.
//
//dkcore:noalloc refinement walk on engine hot loops
func (r *Refiner) Refine() int {
	k := r.k
	if k <= 0 {
		return k
	}
	// Walk down to the largest i <= k with S(i) >= i, then fold the
	// buckets in (i, k] into the new top bucket so the histogram is valid
	// under the new clamp.
	i, sup := HIndex(r.cnt[:k+1])
	clear(r.cnt[i+1 : k+1])
	r.cnt[i] = sup
	r.k = int(i)
	return r.k
}
