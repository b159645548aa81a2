package cluster

import (
	"reflect"
	"testing"

	"dkcore/internal/core"
	"dkcore/internal/graph"
	"dkcore/internal/transport"
)

// FuzzDecodeConfig holds decodeConfig to the obligations docs/PROTOCOL.md
// §2.3 lists: it never panics, everything it accepts satisfies them
// (one strictly increasing row per node of the header's range), and
// whatever it accepts survives an encode/decode round trip unchanged.
// Every neighbor an accepted config names must also map to a host in
// [0, NumHosts) under the range ownership function the host builds
// from it.
func FuzzDecodeConfig(f *testing.F) {
	seeds := []config{
		// Rows {3: [2 4], 4: [3], 5: []}.
		{HostID: 1, NumHosts: 2, NumNodes: 6, AdjOff: []int32{0, 2, 3, 3}, AdjFlat: []int32{2, 4, 3}},
		// Rows {6: [0 5 9], 7: [2], 8: []}.
		{HostID: 2, NumHosts: 4, NumNodes: 10, AdjOff: []int32{0, 3, 4, 4}, AdjFlat: []int32{0, 5, 9, 2}},
		{HostID: 0, NumHosts: 1, NumNodes: 0, AdjOff: []int32{0}},
		// The node ceiling: the last of 65535 hosts owns only node
		// 2^31-2, whose row spans the ID space.
		{HostID: 65534, NumHosts: 65535, NumNodes: graph.MaxNodes, AdjOff: []int32{0, 2}, AdjFlat: []int32{0, graph.MaxNodes - 3}},
	}
	for _, c := range seeds {
		f.Add(encodeConfig(c.HostID, c.NumHosts, c.NumNodes, c.row))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := decodeConfig(data)
		if err != nil {
			return
		}
		if c.NumHosts < 1 || c.NumHosts > maxHosts || c.HostID < 0 || c.HostID >= c.NumHosts || c.NumNodes < 0 || c.NumNodes > graph.MaxNodes {
			t.Fatalf("accepted header hostID=%d numHosts=%d numNodes=%d", c.HostID, c.NumHosts, c.NumNodes)
		}
		lo, hi := c.block().Range(c.HostID)
		if len(c.AdjOff) != hi-lo+1 || c.AdjOff[0] != 0 || int(c.AdjOff[hi-lo]) != len(c.AdjFlat) {
			t.Fatalf("accepted offsets %v for the range [%d, %d) and %d adjacency entries", c.AdjOff, lo, hi, len(c.AdjFlat))
		}
		for u := lo; u < hi; u++ {
			if c.AdjOff[u-lo+1] < c.AdjOff[u-lo] {
				t.Fatalf("accepted decreasing offsets %v", c.AdjOff)
			}
			row := c.row(u)
			for j, v := range row {
				if v < 0 || int(v) >= c.NumNodes {
					t.Fatalf("accepted neighbor %d of node %d outside [0, %d)", v, u, c.NumNodes)
				}
				if j > 0 && row[j-1] >= v {
					t.Fatalf("accepted row %v of node %d not strictly increasing", row, u)
				}
				if h := c.block().Host(int(v)); h < 0 || h >= c.NumHosts {
					t.Fatalf("neighbor %d maps to host %d outside [0, %d)", v, h, c.NumHosts)
				}
			}
		}
		back, err := decodeConfig(encodeConfig(c.HostID, c.NumHosts, c.NumNodes, c.row))
		if err != nil {
			t.Fatalf("re-encoded config rejected: %v", err)
		}
		if !reflect.DeepEqual(back, c) {
			t.Fatalf("round trip changed the config:\n got %+v\nwant %+v", back, c)
		}
	})
}

// FuzzDecodeResult holds decodeResult to its contract: it never panics,
// and a payload it accepts fills exactly the owned entries of the
// coreness vector, each with a value below the node count. The owned
// range is host id%hosts's of hosts%8+1 block-assigned hosts.
func FuzzDecodeResult(f *testing.F) {
	f.Add(transport.EncodeIntSlice([]int{1, 2, 2}), uint8(9), uint8(2), uint8(0))
	f.Add(transport.EncodeIntSlice(nil), uint8(0), uint8(0), uint8(0))
	f.Add(transport.EncodeIntSlice([]int{0, 7}), uint8(8), uint8(3), uint8(1))
	f.Add([]byte{2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0}, uint8(4), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, payload []byte, numNodes, hosts, id uint8) {
		block := core.BlockAssignment{N: int(numNodes), H: int(hosts%8) + 1}
		lo, hi := block.Range(int(id) % block.H)
		coreness := make([]int, numNodes)
		for u := range coreness {
			coreness[u] = -1
		}
		if err := decodeResult(payload, lo, hi, coreness); err != nil {
			for u, k := range coreness {
				if k != -1 {
					t.Fatalf("rejected result wrote node %d", u)
				}
			}
			return
		}
		for u, k := range coreness {
			if owned := lo <= u && u < hi; owned != (k != -1) {
				t.Fatalf("accepted result left node %d at %d for the range [%d, %d)", u, k, lo, hi)
			}
			if k >= len(coreness) {
				t.Fatalf("accepted coreness %d for node %d in a %d-node graph", k, u, len(coreness))
			}
		}
	})
}
