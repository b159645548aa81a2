package core

// This file holds the incremental counterpart of ComputeIndex for the
// per-node machine. Instead of recomputing Algorithm 2 over a node's full
// neighbor list on every message, a Refiner maintains a small histogram
// of the neighbors' estimates clamped to the node's own current estimate
// k — cnt[j] is the number of neighbors whose clamped estimate is exactly
// j, so the suffix sum S(i) = Σ_{j>=i} cnt[j] is "how many neighbors have
// estimate >= i", the quantity Algorithm 2 thresholds against.
//
// The histogram admits an O(1) update when a neighbor's estimate drops
// (move one unit of mass between two buckets), and the node itself only
// needs recomputation when the top bucket — its support, the number of
// neighbors with estimate >= k — falls below k. The recomputation walks
// the histogram downward from k accumulating the suffix sum until it
// meets the Algorithm 2 fixpoint, then folds the now-unreachable buckets
// above the new estimate into the new top bucket; its cost is the number
// of levels walked, i.e. the size of the estimate drop, not the node's
// degree. That suits a node that takes one message at a time. HostState,
// which cascades a whole partition per batch, keeps only the top bucket
// — one support counter per node — and recomputes a deficient node with
// one pass over its adjacency (hoststate.go).
//
// ComputeIndex remains the executable specification: a histogram-driven
// refinement must produce exactly the estimates the O(deg) recomputation
// would, which the differential tests assert at every step.

// Refiner packages the incremental support histogram for NodeState, the
// per-node machine under every engine that keeps one independent state
// object per node. NodeState stores the raw neighbor estimates; the
// Refiner only sees drops and answers "what is my estimate now" without
// touching the adjacency.
//
// The zero value is a degree-0 node (estimate 0); call Rebuild to bind it
// to a real estimate vector.
type Refiner struct {
	k   int   // current estimate; mirrors the owning node's estimate
	cnt []int // clamped histogram, len == initial k + 1
}

// Rebuild resets the refiner to estimate k over the given raw neighbor
// estimates (values above k, including InfEstimate, clamp to k). It is
// the only entry point that may raise the estimate; NewNodeState calls
// it once, when the node's estimate is its degree.
func (r *Refiner) Rebuild(k int, est []int) {
	r.k = k
	if cap(r.cnt) < k+1 {
		r.cnt = make([]int, k+1)
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
	return a == k && r.cnt[k] < k
}

// Deficient reports whether fewer than k neighbors currently have
// estimate >= k, i.e. whether Refine would lower the estimate (except at
// the floor of 1, where the estimate cannot drop further).
//
//dkcore:noalloc per-message query on engine hot loops
func (r *Refiner) Deficient() bool {
	return r.k > 0 && r.cnt[r.k] < r.k
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
	// Walk down to the largest i <= k with S(i) >= i, floored at 1 as
	// ComputeIndex floors it, then fold the buckets in (i, k] into the
	// new top bucket so the histogram is valid under the new clamp.
	i, sup := k, r.cnt[k]
	for i > 1 && sup < i {
		i--
		sup += r.cnt[i]
	}
	clear(r.cnt[i+1 : k+1])
	r.cnt[i] = sup
	r.k = i
	return i
}
