package transport

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"dkcore/internal/core"
)

// EncodeBatch serializes an estimate batch: a uvarint count followed by
// pairs of (node-id delta, estimate), all uvarints. Node IDs are sorted
// ascending before delta-encoding; the order of a batch is not semantic.
// The input batch is left untouched (it is copied before sorting); hot
// paths that can tolerate in-place reordering and want to reuse an
// output buffer use AppendBatch instead.
func EncodeBatch(batch core.Batch) []byte {
	return AppendBatch(make([]byte, 0, 2+5*len(batch)), slices.Clone(batch))
}

// AppendBatch is the allocation-free EncodeBatch: it appends the
// encoding to buf, growing it only when capacity runs out. The batch is
// sorted in place (batch order is not semantic, but callers sharing the
// slice must tolerate the reorder); a sorted one, as HostState collects
// them, costs one linear pass. Per-round senders pass a retained buffer
// truncated to zero length, so steady-state encoding costs no
// allocations once the buffer has warmed to the largest batch.
func AppendBatch(buf []byte, batch core.Batch) []byte {
	slices.SortFunc(batch, func(a, b core.EstimateMsg) int { return cmp.Compare(a.Node, b.Node) })
	buf = binary.AppendUvarint(buf, uint64(len(batch)))
	prev := 0
	for _, m := range batch {
		buf = binary.AppendUvarint(buf, uint64(m.Node-prev))
		buf = binary.AppendUvarint(buf, uint64(m.Core))
		prev = m.Node
	}
	return buf
}

// DecodeBatch reverses EncodeBatch.
func DecodeBatch(data []byte) (core.Batch, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("transport: decode batch: bad count")
	}
	data = data[n:]
	// Each pair takes at least two bytes, so a count beyond len(data)/2
	// is corrupt; checking before allocating keeps a hostile count from
	// inducing a huge allocation.
	if count > uint64(len(data)/2) {
		return nil, fmt.Errorf("transport: decode batch: count %d exceeds payload", count)
	}
	batch := make(core.Batch, 0, count)
	node := 0
	for i := uint64(0); i < count; i++ {
		delta, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("transport: decode batch: truncated at pair %d", i)
		}
		data = data[n:]
		coreVal, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("transport: decode batch: truncated estimate at pair %d", i)
		}
		data = data[n:]
		node += int(delta)
		batch = append(batch, core.EstimateMsg{Node: node, Core: int(coreVal)})
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("transport: decode batch: %d trailing bytes", len(data))
	}
	return batch, nil
}

// ScanBatch validates an encoded estimate batch without materializing
// it, returning the pair count. Relays that forward batches verbatim
// use it to bound and account for traffic at zero allocation; the
// validation is the same as DecodeBatch's, so a batch that scans clean
// will also decode clean at its destination.
func ScanBatch(data []byte) (pairs int, err error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, fmt.Errorf("transport: scan batch: bad count")
	}
	data = data[n:]
	if count > uint64(len(data)/2) {
		return 0, fmt.Errorf("transport: scan batch: count %d exceeds payload", count)
	}
	for i := uint64(0); i < count; i++ {
		_, dn := binary.Uvarint(data)
		if dn <= 0 {
			return 0, fmt.Errorf("transport: scan batch: truncated at pair %d", i)
		}
		data = data[dn:]
		_, en := binary.Uvarint(data)
		if en <= 0 {
			return 0, fmt.Errorf("transport: scan batch: truncated estimate at pair %d", i)
		}
		data = data[en:]
	}
	if len(data) != 0 {
		return 0, fmt.Errorf("transport: scan batch: %d trailing bytes", len(data))
	}
	return int(count), nil
}

// EncodeIntSlice serializes a non-negative int slice as uvarints with a
// leading count.
func EncodeIntSlice(xs []int) []byte {
	buf := make([]byte, 0, 2+3*len(xs))
	buf = binary.AppendUvarint(buf, uint64(len(xs)))
	for _, x := range xs {
		buf = binary.AppendUvarint(buf, uint64(x))
	}
	return buf
}

// DecodeIntSlice reverses EncodeIntSlice. It returns the decoded slice and
// the number of bytes consumed, so slices can be embedded in larger
// payloads.
func DecodeIntSlice(data []byte) (xs []int, consumed int, err error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, 0, fmt.Errorf("transport: decode int slice: bad count")
	}
	consumed = n
	// Each element takes at least one byte; bound the allocation by the
	// bytes actually present.
	if count > uint64(len(data)-n) {
		return nil, 0, fmt.Errorf("transport: decode int slice: count %d exceeds payload", count)
	}
	xs = make([]int, 0, count)
	for i := uint64(0); i < count; i++ {
		x, n := binary.Uvarint(data[consumed:])
		if n <= 0 {
			return nil, 0, fmt.Errorf("transport: decode int slice: truncated at %d", i)
		}
		consumed += n
		xs = append(xs, int(x))
	}
	return xs, consumed, nil
}

// EncodeString serializes a string with a leading uvarint length.
func EncodeString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// DecodeString reverses EncodeString, returning the string and bytes
// consumed.
func DecodeString(data []byte) (s string, consumed int, err error) {
	length, n := binary.Uvarint(data)
	if n <= 0 {
		return "", 0, fmt.Errorf("transport: decode string: bad length")
	}
	if length > uint64(len(data)-n) {
		return "", 0, fmt.Errorf("transport: decode string: truncated")
	}
	return string(data[n : n+int(length)]), n + int(length), nil
}
