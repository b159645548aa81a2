package core

// The support-counter form of Algorithm 2, shared by HostState and the
// out-of-core engine. A node's support counts its neighbors (indices into
// the caller's estimate vector) at or above its own estimate. The kernel
// writes only the scratch and counters passed to it, never an estimate.

// HIndex walks histogram cnt, where cnt[i] counts values equal to i
// (those above k = len(cnt)-1 clamped into cnt[k]), down from k to the
// largest i <= k with at least i values at or above i, floored at 1. It
// returns i and that count, and leaves cnt as it is.
//
//dkcore:noalloc the h-index walk of every refinement
func HIndex(cnt []int32) (k, sup int32) {
	k = int32(len(cnt) - 1)
	sup = cnt[k]
	for k > 1 && sup < k {
		k--
		sup += cnt[k]
	}
	return k, sup
}

// Refine buckets row's estimates clamped at the node's estimate k and
// returns HIndex's new estimate and the node's support under it. bins is
// zeroed scratch of at least k+1 entries, left zeroed. O(len(row)).
//
//dkcore:noalloc the refinement of every deficient node; bins is retained scratch
func Refine[E int | int32](row []E, est []int32, k int32, bins []int32) (newK, sup int32) {
	cnt := bins[:k+1]
	for _, v := range row {
		cnt[min(est[v], k)]++
	}
	newK, sup = HIndex(cnt)
	clear(cnt)
	return newK, sup
}

// Drop records that the node with neighbors row fell from estimate old
// to k (est already holds k). It decrements the counter of each neighbor
// v < len(sup) with k < est[v] <= old, the ones that stop supporting the
// node, and appends to woken, in row order, each whose support is then
// below its estimate.
//
//dkcore:noalloc the O(1)-per-neighbor drop of every cascade; woken is retained scratch
func Drop[E int | int32](row []E, est, sup []int32, old, k int32, woken []E) []E {
	for _, v := range row {
		if uint(v) >= uint(len(sup)) {
			continue
		}
		if ev := est[v]; k < ev && ev <= old {
			sup[v]--
			if sup[v] < ev {
				woken = append(woken, v)
			}
		}
	}
	return woken
}

// Support counts row's neighbors with estimate at least k.
//
//dkcore:noalloc adjacency scan
func Support[E int | int32](row []E, est []int32, k int32) int32 {
	n := int32(0)
	for _, v := range row {
		if est[v] >= k {
			n++
		}
	}
	return n
}
