package core

// This file holds the incremental counterpart of ComputeIndex: instead of
// recomputing Algorithm 2 over a node's full neighbor list on every
// change, a node maintains a small histogram of its neighbors' estimates
// clamped to its own current estimate k — cnt[j] is the number of
// neighbors whose clamped estimate is exactly j, so the suffix sum
// S(i) = Σ_{j>=i} cnt[j] is "how many neighbors have estimate >= i", the
// quantity Algorithm 2 thresholds against.
//
// The histogram admits an O(1) update when a neighbor's estimate drops
// (move one unit of mass between two buckets), and the node itself only
// needs recomputation when the top bucket — its support, the number of
// neighbors with estimate >= k — falls below k. The recomputation walks
// the histogram downward from k accumulating the suffix sum until it
// meets the Algorithm 2 fixpoint, then folds the now-unreachable buckets
// above the new estimate into the new top bucket; its cost is the number
// of levels walked, i.e. the size of the estimate drop, not the node's
// degree. Total refinement work over a run is therefore proportional to
// the sum of estimate drops — O(Σ_u d(u)) worst case — where the
// recompute-from-scratch path pays O(deg) per re-enqueue and a hub
// re-enqueued r times costs O(r·deg).
//
// ComputeIndex remains the executable specification: a histogram-driven
// refinement must produce exactly the estimates the O(deg) recomputation
// would, which the differential tests assert at every cascade step.

// supportLower moves one neighbor of a node with current estimate k from
// estimate a to estimate b (a > b), clamping both into [0, k]. It reports
// whether the node's support (the top bucket cnt[k]) decreased — the only
// event after which the node may need refinement. Drops entirely above
// the node's estimate are invisible and cost nothing.
//
//dkcore:noalloc O(1) bucket move on the cascade hot loop
func supportLower(cnt []int, k, a, b int) (supportDropped bool) {
	if a > k {
		a = k
	}
	if b > k {
		b = k
	}
	if a <= b {
		return false
	}
	cnt[a]--
	cnt[b]++
	return a == k
}

// supportRefine recomputes the Algorithm 2 fixpoint of a node with
// current estimate k from its clamped histogram: the largest i <= k with
// S(i) >= i, floored at 1 exactly as ComputeIndex floors it. It folds the
// buckets in (i, k] into the new top bucket i, so the histogram is
// immediately valid under the new clamp, and returns the new estimate.
// Cost: O(k - i + 1), the number of levels walked.
//
//dkcore:noalloc histogram walk on the cascade hot loop
func supportRefine(cnt []int, k int) int {
	i, sup := k, cnt[k]
	for i > 1 && sup < i {
		i--
		sup += cnt[i]
	}
	for j := i + 1; j <= k; j++ {
		cnt[j] = 0
	}
	cnt[i] = sup
	return i
}

// supportFold re-clamps a histogram after the node's estimate was lowered
// externally (not by refinement) from k to b: all mass in (b, k] collapses
// into the new top bucket b. Cost: O(k - b).
//
//dkcore:noalloc histogram re-clamp on the cascade hot loop
func supportFold(cnt []int, k, b int) {
	sup := 0
	for j := b; j <= k; j++ {
		sup += cnt[j]
		cnt[j] = 0
	}
	cnt[b] = sup
}

// Refiner packages the incremental support counter for NodeState, the
// per-node machine under every engine that keeps one independent state
// object per node. NodeState stores the raw neighbor estimates; the
// Refiner only sees drops and answers "what is my estimate now" without
// touching the adjacency.
//
// The zero value is a degree-0 node (estimate 0); call Rebuild to bind it
// to a real estimate vector. HostState uses the same supportLower /
// supportRefine primitives over one flat buffer for its whole partition
// instead of per-node Refiners.
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
	if r.k <= 0 {
		return false
	}
	return supportLower(r.cnt, r.k, a, b) && r.cnt[r.k] < r.k
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
	if r.k <= 0 {
		return r.k
	}
	r.k = supportRefine(r.cnt, r.k)
	return r.k
}
