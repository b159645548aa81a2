package transport

import (
	"encoding/binary"
	"fmt"
)

// Partition-block wire form: the delta-encoded varint CSR the out-of-core
// engine spills to disk, extending the flat per-partition form the
// cluster coordinator ships (owned + degrees + adjacency) with two
// compressions. Owned nodes are a contiguous ID range, so the node set
// collapses to (first, count); and each node's neighbor list is sorted
// ascending (the graph CSR invariant), so neighbors are gap-encoded —
// the first neighbor absolute, each subsequent one as its positive delta
// from the previous. Random neighbors over a large ID space cost 2-3
// bytes each instead of a fixed word.
//
// Layout, all uvarints:
//
//	count                      number of owned nodes
//	first                      global ID of the first owned node
//	repeat count times:
//	    degree
//	    neighbor[0]            absolute global ID
//	    neighbor[i]-neighbor[i-1]   for i in [1, degree)
//
// Decoders follow the decode-before-allocate contract of
// docs/PROTOCOL.md: every claimed count is checked against the bytes
// actually present (each node costs at least one byte, each neighbor at
// least one byte) before the corresponding allocation is sized.

// AppendCSRBlock appends the block encoding of a contiguous partition to
// buf and returns the extended slice. The partition owns the count nodes
// [first, first+count); the global-ID neighbors of owned node i are
// flat[off[i]:off[i+1]], sorted ascending (off[0] need not be zero) —
// exactly the views core.Partitions.CSR produces under a block
// assignment. Unsorted neighbor lists produce an encoding that fails to
// round-trip; the graph CSR invariant guarantees sortedness for every
// in-repo producer.
func AppendCSRBlock(buf []byte, first, count int, off, flat []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(count))
	buf = binary.AppendUvarint(buf, uint64(first))
	for i := 0; i < count; i++ {
		ns := flat[off[i]:off[i+1]]
		buf = binary.AppendUvarint(buf, uint64(len(ns)))
		prev := 0
		for j, v := range ns {
			if j == 0 {
				buf = binary.AppendUvarint(buf, uint64(v))
			} else {
				buf = binary.AppendUvarint(buf, uint64(v-prev))
			}
			prev = v
		}
	}
	return buf
}

// EncodeCSRBlock is AppendCSRBlock into a fresh, size-hinted buffer.
func EncodeCSRBlock(first, count int, off, flat []int) []byte {
	arcs := 0
	if count > 0 {
		arcs = off[count] - off[0]
	}
	return AppendCSRBlock(make([]byte, 0, 2+5+3*count+5*arcs), first, count, off, flat)
}

// DecodeCSRBlock reverses AppendCSRBlock, returning the first owned
// global ID and freshly allocated zero-based offsets (len count+1) and
// concatenated global-ID neighbor array, each allocated at exactly its
// length for a well-formed block. Hostile inputs — truncated
// varints, counts or degrees exceeding the payload, trailing bytes —
// return an error without large speculative allocations.
func DecodeCSRBlock(data []byte) (first int, off, flat []int, err error) {
	return DecodeCSRBlockInto(data, nil)
}

// DecodeCSRBlockInto is DecodeCSRBlock decoding into the arrays that
// buf, once the block's size is known, returns for its offs = count+1
// offsets and its arcs neighbors. An array too small for its share (or
// a nil buf) is replaced by a fresh one of exactly the needed size; the
// returned slices keep their capacity, so a reused array may hold more
// than the block needs.
func DecodeCSRBlockInto(data []byte, buf func(offs, arcs int) (off, flat []int)) (first int, off, flat []int, err error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, nil, fmt.Errorf("transport: decode block: bad count")
	}
	data = data[n:]
	f, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, nil, fmt.Errorf("transport: decode block: bad first id")
	}
	data = data[n:]
	// Each owned node contributes at least its one-byte degree.
	if count > uint64(len(data)+1) {
		return 0, nil, nil, fmt.Errorf("transport: decode block: count %d exceeds payload", count)
	}
	// Every varint ends in its one byte below 0x80, and a well-formed
	// block holds count degrees and one varint per arc, so this sizes
	// flat exactly and never past the payload. A hostile degree is still
	// checked against the bytes left before it can grow flat.
	arcs := -int(count)
	for _, b := range data {
		if b < 0x80 {
			arcs++
		}
	}
	arcs = max(arcs, 0)
	if buf != nil {
		off, flat = buf(int(count)+1, arcs)
	}
	if uint64(cap(off)) < count+1 {
		off = make([]int, 0, count+1)
	}
	if cap(flat) < arcs {
		flat = make([]int, 0, arcs)
	}
	off, flat = append(off[:0], 0), flat[:0]
	for i := uint64(0); i < count; i++ {
		deg, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, nil, nil, fmt.Errorf("transport: decode block: truncated degree at node %d", i)
		}
		data = data[n:]
		if deg > uint64(len(data)) {
			return 0, nil, nil, fmt.Errorf("transport: decode block: degree %d at node %d exceeds payload", deg, i)
		}
		prev := 0
		for j := uint64(0); j < deg; j++ {
			d, n := binary.Uvarint(data)
			if n <= 0 {
				return 0, nil, nil, fmt.Errorf("transport: decode block: truncated neighbor %d of node %d", j, i)
			}
			data = data[n:]
			if j == 0 {
				prev = int(d)
			} else {
				prev += int(d)
			}
			flat = append(flat, prev)
		}
		off = append(off, len(flat))
	}
	if len(data) != 0 {
		return 0, nil, nil, fmt.Errorf("transport: decode block: %d trailing bytes", len(data))
	}
	return int(f), off, flat, nil
}
