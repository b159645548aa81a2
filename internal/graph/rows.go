package graph

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// The row codec is the one byte form of a range of sorted CSR rows: the
// graph file, the out-of-core engine's block files and the cluster's
// config frame are each a header followed by it. For the nodes [lo, hi):
//
//	(hi − lo) × uvarint(degree)    the degrees, in node order
//	per node u of degree d ≥ 1, in node order:
//	    varint(first − u)          its first neighbor, as a signed offset from u
//	    (d − 1) × uvarint(gap)     each further neighbor minus the one before
//
// varint is the signed zigzag varint of encoding/binary. The rows are
// strictly increasing, so every gap is at least 1, and gaps and offsets
// from the owner are small numbers that take one or two bytes and that
// DEFLATE compresses well. The degrees come first so that a decoder
// knows the exact sizes of its arrays before it decodes a row.

// AppendRows appends the rows of the nodes [lo, hi) to buf and returns
// the extended slice. row(u) is node u's neighbors, strictly increasing
// (a graph's Neighbors is such a function); a row that is not makes
// bytes DecodeRows rejects.
func AppendRows[E int | int32](buf []byte, lo, hi int, row func(u int) []E) []byte {
	buf = slices.Grow(buf, hi-lo)
	arcs := 0
	for u := lo; u < hi; u++ {
		d := len(row(u))
		arcs += d
		buf = binary.AppendUvarint(buf, uint64(d))
	}
	// Gaps mostly take 1–2 bytes; a larger range grows once.
	buf = slices.Grow(buf, 2*arcs)
	for u := lo; u < hi; u++ {
		r := row(u)
		if len(r) == 0 {
			continue
		}
		prev := int(r[0])
		buf = binary.AppendVarint(buf, int64(prev-u))
		for _, v := range r[1:] {
			buf = binary.AppendUvarint(buf, uint64(int(v)-prev))
			prev = int(v)
		}
	}
	return buf
}

// DecodeRows decodes the rows AppendRows wrote for the nodes [lo, hi) of
// a graph of n nodes; data must hold exactly those rows. The neighbors
// of node lo+i are adj[off[i]:off[i+1]], and off[0] is 0.
//
// It decodes before it allocates: it checks the hi−lo degrees, then
// their sum, against the bytes actually present before it sizes off and
// adj, and it rejects [lo, hi) outside [0, n), n above MaxNodes, a
// truncated varint, trailing bytes, and a row that leaves [0, n), lists
// its own node or is not strictly increasing. Every error wraps
// ErrBadFormat.
//
// Once the sizes are known, buf, if not nil, supplies the arrays for the
// offs = hi−lo+1 offsets and the arcs neighbors. An array too small for
// its share (or a nil buf) is replaced by a fresh one of exactly the
// needed size; the returned slices keep their capacity, so a reused
// array may hold more than the rows need.
func DecodeRows[E int | int32](data []byte, lo, hi, n int, buf func(offs, arcs int) (off, adj []E)) (off, adj []E, err error) {
	if n > MaxNodes || lo < 0 || lo > hi || hi > n {
		return nil, nil, fmt.Errorf("%w: rows [%d, %d) outside [0, %d) or above %d nodes", ErrBadFormat, lo, hi, n, MaxNodes)
	}
	// Every degree costs at least one byte.
	if hi-lo > len(data) {
		return nil, nil, fmt.Errorf("%w: %d degrees exceed payload", ErrBadFormat, hi-lo)
	}
	i, arcs := 0, 0
	for u := lo; u < hi; u++ {
		d, k := binary.Uvarint(data[i:])
		if k <= 0 {
			return nil, nil, fmt.Errorf("%w: degree of node %d truncated", ErrBadFormat, u)
		}
		i += k
		// Every neighbor costs at least one byte, so a degree sum past
		// the bytes left is corrupt. Rejecting it here keeps the sum
		// within the payload, so neither it nor an int32 offset wraps.
		if rem := len(data) - i; d > uint64(rem) || arcs+int(d) > rem || int(E(arcs+int(d))) != arcs+int(d) {
			return nil, nil, fmt.Errorf("%w: degree %d of node %d exceeds payload", ErrBadFormat, d, u)
		}
		arcs += int(d)
	}
	if buf != nil {
		off, adj = buf(hi-lo+1, arcs)
	}
	if cap(off) < hi-lo+1 {
		off = make([]E, hi-lo+1)
	}
	if cap(adj) < arcs {
		adj = make([]E, arcs)
	}
	off, adj = off[:hi-lo+1], adj[:arcs]
	off[0] = 0
	// j walks the degrees again beside the rows, which start at i. They
	// were checked above, so they decode unchecked here.
	j, end := 0, 0
	for u := lo; u < hi; u++ {
		d := 0
		for s := 0; ; s += 7 {
			b := data[j]
			j++
			d |= int(b&0x7f) << s
			if b < 0x80 {
				break
			}
		}
		row := adj[end : end+d]
		end += d
		off[u-lo+1] = E(end)
		if d == 0 {
			continue
		}
		first, k := binary.Varint(data[i:])
		if k <= 0 {
			return nil, nil, fmt.Errorf("%w: first neighbor of node %d truncated", ErrBadFormat, u)
		}
		i += k
		if first < -int64(u) || first >= int64(n-u) {
			return nil, nil, fmt.Errorf("%w: first neighbor of node %d at offset %d outside [0, %d)", ErrBadFormat, u, first, n)
		}
		prev := u + int(first)
		for x := range row {
			if x > 0 {
				// Most gaps take one byte: that case skips the call.
				gap, k := uint64(0), 1
				if i < len(data) && data[i] < 0x80 {
					gap = uint64(data[i])
				} else {
					gap, k = binary.Uvarint(data[i:])
				}
				if k <= 0 {
					return nil, nil, fmt.Errorf("%w: gap %d of node %d truncated", ErrBadFormat, x, u)
				}
				if gap == 0 {
					return nil, nil, fmt.Errorf("%w: node %d: zero gap after %d: not strictly increasing", ErrBadFormat, u, prev)
				}
				if gap > uint64(n-1-prev) {
					return nil, nil, fmt.Errorf("%w: node %d: gap %d after %d leaves [0, %d)", ErrBadFormat, u, gap, prev, n)
				}
				i += k
				prev += int(gap)
			}
			if prev == u {
				return nil, nil, fmt.Errorf("%w: node %d lists itself", ErrBadFormat, u)
			}
			row[x] = E(prev)
		}
	}
	if i != len(data) {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes", ErrBadFormat, len(data)-i)
	}
	return off, adj, nil
}
