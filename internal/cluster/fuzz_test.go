package cluster

import (
	"reflect"
	"slices"
	"testing"

	"dkcore/internal/core"
	"dkcore/internal/transport"
)

// FuzzDecodeConfig holds decodeConfig to the obligations docs/PROTOCOL.md
// §2.3 lists: it never panics, everything it accepts satisfies them
// (every adjacency row strictly increasing among them), and whatever it
// accepts survives an encode/decode round trip unchanged. Every node an
// accepted config names must also map to a host in [0, NumHosts) under
// the range ownership function the host builds from it.
func FuzzDecodeConfig(f *testing.F) {
	f.Add(encodeConfig(config{
		HostID: 1, NumHosts: 2, NumNodes: 6,
		Owned:   []int{3, 4, 5},
		AdjOff:  []int{0, 2, 3, 3},
		AdjFlat: []int{2, 4, 3},
	}))
	f.Add(encodeConfig(config{
		HostID: 2, NumHosts: 4, NumNodes: 10,
		Owned:   []int{2, 5, 8},
		AdjOff:  []int{0, 3, 4, 4},
		AdjFlat: []int{0, 5, 9, 2},
	}))
	f.Add(encodeConfig(config{HostID: 0, NumHosts: 1, NumNodes: 0, AdjOff: []int{0}}))
	// A node count near the int range: ⌈NumNodes/NumHosts⌉ must not
	// wrap when computed.
	f.Add(encodeConfig(config{
		HostID: 0, NumHosts: 2, NumNodes: 1<<63 - 1,
		Owned:  []int{1<<62 + 5},
		AdjOff: []int{0, 0},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := decodeConfig(data)
		if err != nil {
			return
		}
		if c.NumHosts < 1 || c.NumHosts > maxHosts || c.HostID < 0 || c.HostID >= c.NumHosts || c.NumNodes < 0 {
			t.Fatalf("accepted header hostID=%d numHosts=%d numNodes=%d", c.HostID, c.NumHosts, c.NumNodes)
		}
		inGraph := func(what string, nodes []int, increasing bool) {
			for i, u := range nodes {
				if u < 0 || u >= c.NumNodes {
					t.Fatalf("accepted %s node %d outside [0, %d)", what, u, c.NumNodes)
				}
				if increasing && i > 0 && nodes[i-1] >= u {
					t.Fatalf("accepted %s nodes not strictly increasing at %d", what, u)
				}
				if h := (core.BlockAssignment{N: c.NumNodes, H: c.NumHosts}).Host(u); h < 0 || h >= c.NumHosts {
					t.Fatalf("%s node %d maps to host %d outside [0, %d)", what, u, h, c.NumHosts)
				}
			}
		}
		inGraph("owned", c.Owned, true)
		inGraph("neighbor", c.AdjFlat, false)
		if len(c.AdjOff) != len(c.Owned)+1 || c.AdjOff[0] != 0 || c.AdjOff[len(c.Owned)] != len(c.AdjFlat) {
			t.Fatalf("accepted offsets %v for %d owned nodes and %d adjacency entries", c.AdjOff, len(c.Owned), len(c.AdjFlat))
		}
		for i := 1; i < len(c.AdjOff); i++ {
			if c.AdjOff[i] < c.AdjOff[i-1] {
				t.Fatalf("accepted decreasing offsets %v", c.AdjOff)
			}
			row := c.AdjFlat[c.AdjOff[i-1]:c.AdjOff[i]]
			for j := 1; j < len(row); j++ {
				if row[j-1] >= row[j] {
					t.Fatalf("accepted row %v of node %d not strictly increasing", row, c.Owned[i-1])
				}
			}
		}
		back, err := decodeConfig(encodeConfig(c))
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
// set is every stride-th node from first, as a host's share of a
// cluster could be.
func FuzzDecodeResult(f *testing.F) {
	f.Add(transport.EncodeIntSlice([]int{1, 2, 2}), uint8(9), uint8(3), uint8(0))
	f.Add(transport.EncodeIntSlice(nil), uint8(0), uint8(1), uint8(0))
	f.Add(transport.EncodeIntSlice([]int{0, 7}), uint8(8), uint8(4), uint8(1))
	f.Add([]byte{2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0}, uint8(4), uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, payload []byte, numNodes, stride, first uint8) {
		step := int(stride%8) + 1
		var owned []int
		for u := int(first) % step; u < int(numNodes); u += step {
			owned = append(owned, u)
		}
		coreness := make([]int, numNodes)
		for u := range coreness {
			coreness[u] = -1
		}
		if err := decodeResult(payload, owned, coreness); err != nil {
			return
		}
		filled := 0
		for u, k := range coreness {
			if k == -1 {
				continue
			}
			filled++
			if _, ok := slices.BinarySearch(owned, u); !ok {
				t.Fatalf("accepted result wrote node %d, which the host does not own", u)
			}
			if k >= len(coreness) {
				t.Fatalf("accepted coreness %d for node %d in a %d-node graph", k, u, len(coreness))
			}
		}
		if filled != len(owned) {
			t.Fatalf("accepted result filled %d entries for %d owned nodes", filled, len(owned))
		}
	})
}
