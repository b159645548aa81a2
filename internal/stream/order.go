package stream

import "math"

// level is one coreness level of the k-order: how many nodes sit at it
// and the two ends of their list (-1 when empty).
type level struct{ count, head, tail int }

// labelGap is the label distance between neighbors of a freshly
// numbered list, and the step past either end: room for 32 insertions at
// one spot before the level is renumbered.
const labelGap = 1 << 32

// before reports whether x precedes y in the k-order.
func (mt *Maintainer) before(x, y int) bool {
	if mt.core[x] != mt.core[y] {
		return mt.core[x] < mt.core[y]
	}
	return mt.label[x] < mt.label[y]
}

// unlink takes x out of its level's list.
func (mt *Maintainer) unlink(x int) {
	lv := &mt.levels[mt.core[x]]
	p, q := mt.prev[x], mt.next[x]
	if p >= 0 {
		mt.next[p] = q
	} else {
		lv.head = q
	}
	if q >= 0 {
		mt.prev[q] = p
	} else {
		lv.tail = p
	}
	lv.count--
}

// place sets x's coreness to k and links x, which is in no list, into
// level k's right after p, or at the head for p < 0, with a label
// between its new neighbors'.
func (mt *Maintainer) place(x, k, p int) {
	for len(mt.levels) <= k {
		mt.levels = append(mt.levels, level{head: -1, tail: -1})
	}
	lv := &mt.levels[k]
	q := lv.head
	if p >= 0 {
		q = mt.next[p]
	}
	switch {
	case p >= 0 && q >= 0 && mt.label[q]-mt.label[p] < 2,
		p < 0 && q >= 0 && mt.label[q] < math.MinInt+labelGap,
		q < 0 && p >= 0 && mt.label[p] > math.MaxInt-labelGap:
		l := 0
		for y := lv.head; y >= 0; y = mt.next[y] {
			mt.label[y] = l
			l += labelGap
		}
	}
	switch {
	case p >= 0 && q >= 0:
		mt.label[x] = mt.label[p] + (mt.label[q]-mt.label[p])/2
	case p >= 0:
		mt.label[x] = mt.label[p] + labelGap
	case q >= 0:
		mt.label[x] = mt.label[q] - labelGap
	default:
		mt.label[x] = 0
	}
	mt.core[x] = k
	mt.prev[x], mt.next[x] = p, q
	if p >= 0 {
		mt.next[p] = x
	} else {
		lv.head = x
	}
	if q >= 0 {
		mt.prev[q] = x
	} else {
		lv.tail = x
	}
	lv.count++
}

// pushHeap adds x to mt.heap, a binary min-heap of same-level nodes
// keyed by label. Renumbering a level keeps the heap valid: it preserves
// the relative order of every node that does not move.
func (mt *Maintainer) pushHeap(x int) {
	h := append(mt.heap, x)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if mt.label[h[parent]] <= mt.label[h[i]] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	mt.heap = h
}

// popHeap removes and returns the earliest node of mt.heap.
func (mt *Maintainer) popHeap() int {
	h := mt.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && mt.label[h[c+1]] < mt.label[h[c]] {
			c++
		}
		if mt.label[h[i]] <= mt.label[h[c]] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	mt.heap = h
	return top
}
