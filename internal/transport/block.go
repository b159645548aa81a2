package transport

import (
	"encoding/binary"
	"fmt"

	"dkcore/internal/graph"
)

// Partition-block wire form: the CSR of a contiguous node range that the
// out-of-core engine spills to disk. The owned nodes are a contiguous ID
// range, so the node set collapses to (first, count), and the rows follow
// in graph.AppendRows form:
//
//	uvarint(count)     number of owned nodes
//	uvarint(first)     global ID of the first owned node
//	rows               graph.AppendRows of [first, first+count)
//
// The decoder follows the decode-before-allocate contract of
// docs/PROTOCOL.md through graph.DecodeRows, which checks every claimed
// size against the bytes actually present before it allocates.

// AppendCSRBlock appends the block encoding of the nodes [lo, hi) to buf
// and returns the extended slice; row(u) is node u's global-ID
// neighbors, strictly increasing (a graph's Neighbors is such a
// function).
func AppendCSRBlock(buf []byte, lo, hi int, row func(u int) []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(hi-lo))
	buf = binary.AppendUvarint(buf, uint64(lo))
	return graph.AppendRows(buf, lo, hi, row)
}

// EncodeCSRBlock encodes the block of the count nodes
// [first, first+count), whose global-ID neighbors of owned node i are
// flat[off[i]:off[i+1]], sorted ascending (off[0] need not be zero) —
// exactly the views core.Partitions.CSR produces under a block
// assignment.
func EncodeCSRBlock(first, count int, off, flat []int) []byte {
	return AppendCSRBlock(nil, first, first+count, func(u int) []int {
		return flat[off[u-first]:off[u-first+1]]
	})
}

// DecodeCSRBlock reverses EncodeCSRBlock for a block of a graph of up to
// graph.MaxNodes nodes, returning the first owned global ID and freshly
// allocated zero-based offsets (len count+1) and concatenated global-ID
// neighbor array, each allocated at exactly its length. Hostile inputs
// — truncated varints, counts or degrees exceeding the payload, rows
// that are not strictly increasing, trailing bytes — return an error
// without large speculative allocations.
func DecodeCSRBlock(data []byte) (first int, off, flat []int, err error) {
	return DecodeCSRBlockInto(data, graph.MaxNodes, nil)
}

// DecodeCSRBlockInto is DecodeCSRBlock for a block of a graph of n
// nodes, which rejects a block whose nodes or neighbors leave [0, n),
// decoding into the arrays that buf, once the block's size is known,
// returns for its offs = count+1 offsets and its arcs neighbors (see
// graph.DecodeRows).
func DecodeCSRBlockInto(data []byte, n int, buf func(offs, arcs int) (off, flat []int)) (first int, off, flat []int, err error) {
	count, k := binary.Uvarint(data)
	if k <= 0 {
		return 0, nil, nil, fmt.Errorf("transport: decode block: bad count")
	}
	data = data[k:]
	f, k := binary.Uvarint(data)
	if k <= 0 {
		return 0, nil, nil, fmt.Errorf("transport: decode block: bad first id")
	}
	if f > uint64(n) || count > uint64(n)-f {
		return 0, nil, nil, fmt.Errorf("transport: decode block: nodes [%d, %d+%d) outside [0, %d)", f, f, count, n)
	}
	first = int(f)
	off, flat, err = graph.DecodeRows(data[k:], first, first+int(count), n, buf)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("transport: decode block: %w", err)
	}
	return first, off, flat, nil
}
