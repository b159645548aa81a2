package transport

import (
	"bytes"
	"slices"
	"testing"

	"dkcore/internal/core"
	"dkcore/internal/gen"
	"dkcore/internal/graph"
)

// blockPool is the ~50-graph pool the round-trip property test sweeps:
// random families across densities plus the structured and degenerate
// shapes the in-memory suites use.
func blockPool() []*graph.Graph {
	var pool []*graph.Graph
	for seed := int64(1); seed <= 12; seed++ {
		n := 40 + 10*int(seed%5)
		pool = append(pool, gen.GNM(n, int(seed)*n/2, seed))
	}
	for seed := int64(1); seed <= 8; seed++ {
		pool = append(pool, gen.GNP(70, 0.02*float64(seed), seed))
	}
	for seed := int64(1); seed <= 8; seed++ {
		pool = append(pool, gen.BarabasiAlbert(80, 1+int(seed%4), seed))
	}
	for seed := int64(1); seed <= 8; seed++ {
		pool = append(pool, gen.PowerLaw(gen.PowerLawConfig{N: 90, Exponent: 2.3, MinDeg: 1}, seed))
	}
	pool = append(pool,
		gen.WattsStrogatz(64, 4, 0.2, 3),
		gen.WattsStrogatz(50, 6, 0, 1),
		gen.Grid(12, 4),
		gen.Ring(40),
		gen.Grid(7, 8),
		gen.Chain(30),
		gen.Complete(12),
		gen.WorstCase(16),
		gen.Star(25),
		gen.Caveman(6, 5),
		graph.NewBuilder(0).Build(),
		graph.NewBuilder(1).Build(),
		graph.NewBuilder(5).Build(), // isolated nodes: empty neighbor lists
		func() *graph.Graph {
			b := graph.NewBuilder(2)
			b.AddEdge(0, 1)
			return b.Build()
		}(),
		func() *graph.Graph { // sparse high IDs: large first-neighbor gaps
			b := graph.NewBuilder(400)
			b.AddEdge(0, 399)
			b.AddEdge(1, 398)
			b.AddEdge(199, 200)
			return b.Build()
		}(),
	)
	return pool
}

// TestCSRBlockRoundTripPool is the round-trip property test: for every
// pool graph split into contiguous blocks, encoding each partition's
// CSR view and decoding it back reproduces exactly the owned range and
// neighbor lists PartitionAll produced.
func TestCSRBlockRoundTripPool(t *testing.T) {
	pool := blockPool()
	if len(pool) < 50 {
		t.Fatalf("only %d pool graphs, want >= 50", len(pool))
	}
	for gi, g := range pool {
		n := g.NumNodes()
		hosts := min(4, max(n, 1))
		parts, err := core.PartitionAll(g, core.BlockAssignment{N: max(n, 1), H: hosts})
		if err != nil {
			t.Fatalf("graph %d: partition: %v", gi, err)
		}
		for h := 0; h < parts.NumParts(); h++ {
			owned, off, flat := parts.CSR(h)
			first := 0
			if len(owned) > 0 {
				first = owned[0]
			}
			enc := EncodeCSRBlock(first, len(owned), off, flat)
			gotFirst, gotOff, gotFlat, err := DecodeCSRBlock(enc)
			if err != nil {
				t.Fatalf("graph %d host %d: decode: %v", gi, h, err)
			}
			if gotFirst != first || len(gotOff) != len(owned)+1 {
				t.Fatalf("graph %d host %d: first %d->%d, %d offsets for %d nodes",
					gi, h, first, gotFirst, len(gotOff), len(owned))
			}
			for i, u := range owned {
				if u != first+i {
					t.Fatalf("graph %d host %d: owned range not contiguous at %d", gi, h, i)
				}
				want := flat[off[i]:off[i+1]]
				got := gotFlat[gotOff[i]:gotOff[i+1]]
				if !slices.Equal(got, want) {
					t.Fatalf("graph %d host %d node %d: neighbors %v, want %v", gi, h, u, got, want)
				}
			}
		}
	}
}

// TestDecodeCSRBlockHostile covers the decode-before-allocate contract
// and the row checks: every malformed shape must error without a large
// speculative allocation (the fuzz target additionally checks allocation
// bounds).
func TestDecodeCSRBlockHostile(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated-count", []byte{0x80}},
		{"missing-first", []byte{0x01}},
		{"truncated-first", []byte{0x01, 0x80}},
		{"count-exceeds-payload", append([]byte{}, append(huge, 0x00)...)},
		{"oversized-count-small-payload", []byte{0x7f, 0x00, 0x01}},
		{"truncated-degree", []byte{0x02, 0x00, 0x01, 0x80}},
		{"degree-exceeds-payload", []byte{0x01, 0x00, 0x7f, 0x01}},
		{"huge-degree", append([]byte{0x01, 0x00}, huge...)},
		{"truncated-neighbor", []byte{0x01, 0x00, 0x02, 0x02, 0x80}},
		{"trailing-bytes", []byte{0x01, 0x00, 0x01, 0x06, 0x09}},
		{"first-neighbor-below-0", []byte{0x01, 0x05, 0x01, 0x0d}},  // node 5: offset -7
		{"self-loop", []byte{0x01, 0x05, 0x01, 0x00}},               // node 5: {5}
		{"repeated-neighbor", []byte{0x01, 0x00, 0x02, 0x02, 0x00}}, // node 0: {1, 1}
		{"nodes-past-max", append(append([]byte{0x01}, huge...), 0x00)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, _, err := DecodeCSRBlock(tc.data); err == nil {
				t.Fatalf("hostile input decoded without error")
			}
		})
	}
	// Sanity: the minimal valid blocks still decode.
	if _, off, flat, err := DecodeCSRBlock([]byte{0x00, 0x00}); err != nil || len(off) != 1 || len(flat) != 0 {
		t.Fatalf("empty block: off=%v flat=%v err=%v", off, flat, err)
	}
	if _, _, flat, err := DecodeCSRBlock([]byte{0x01, 0x00, 0x01, 0x06}); err != nil || !slices.Equal(flat, []int{3}) {
		t.Fatalf("one-node block: flat=%v err=%v", flat, err)
	}
	// Against the node count n = 4 the same block's neighbor 3 is the
	// last node, neighbor 4 and a block of nodes [3, 5) are outside.
	for _, tc := range []struct {
		name string
		data []byte
		ok   bool
	}{
		{"neighbor n-1", []byte{0x01, 0x00, 0x01, 0x06}, true},
		{"neighbor n", []byte{0x01, 0x00, 0x01, 0x08}, false},
		{"gap to n", []byte{0x01, 0x00, 0x02, 0x02, 0x03}, false},
		{"nodes past n", []byte{0x02, 0x03, 0x00, 0x00}, false},
	} {
		if _, _, _, err := DecodeCSRBlockInto(tc.data, 4, nil); (err == nil) != tc.ok {
			t.Errorf("%s: error %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// FuzzBlockDecode feeds arbitrary bytes to the block decoder: it must
// error or produce a block whose allocations are bounded by the input
// and whose re-encoding decodes to the same values — never panic.
func FuzzBlockDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00})
	f.Add([]byte{0x01, 0x00, 0x01, 0x06})
	f.Add(EncodeCSRBlock(10, 2, []int{0, 2, 3}, []int{11, 12, 10}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{0x80})
	g := gen.GNM(60, 180, 4)
	parts, err := core.PartitionAll(g, core.BlockAssignment{N: 60, H: 3})
	if err != nil {
		f.Fatal(err)
	}
	owned, off, flat := parts.CSR(1)
	f.Add(EncodeCSRBlock(owned[0], len(owned), off, flat))

	f.Fuzz(func(t *testing.T, data []byte) {
		first, off, flat, err := DecodeCSRBlock(data)
		if err != nil {
			return
		}
		if len(flat) > len(data) || len(off) > len(data)+2 {
			t.Fatalf("%d neighbors and %d offsets from %d bytes", len(flat), len(off), len(data))
		}
		if off[0] != 0 || off[len(off)-1] != len(flat) {
			t.Fatalf("offsets %v do not delimit %d neighbors", off, len(flat))
		}
		re := EncodeCSRBlock(first, len(off)-1, off, flat)
		first2, off2, flat2, err := DecodeCSRBlock(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if first2 != first || !slices.Equal(off2, off) || !slices.Equal(flat2, flat) {
			t.Fatalf("block round trip: (%d, %v, %v) != (%d, %v, %v)",
				first2, off2, flat2, first, off, flat)
		}
	})
}

// TestEncodeCSRBlockCompactness pins the encoding's reason to exist: a
// dense sorted block must encode well below the flat 8-bytes-per-word
// form it replaces.
func TestEncodeCSRBlockCompactness(t *testing.T) {
	g := gen.GNM(2000, 12000, 9)
	parts, err := core.PartitionAll(g, core.BlockAssignment{N: 2000, H: 1})
	if err != nil {
		t.Fatal(err)
	}
	owned, off, flat := parts.CSR(0)
	enc := EncodeCSRBlock(owned[0], len(owned), off, flat)
	words := 8 * (len(owned) + len(off) + len(flat))
	if len(enc)*2 > words {
		t.Fatalf("block encoding %d bytes, flat form %d — expected at least 2x compression", len(enc), words)
	}
	if !bytes.Equal(enc, AppendCSRBlock(nil, 0, g.NumNodes(), g.Neighbors)) {
		t.Fatal("EncodeCSRBlock of the CSR view and AppendCSRBlock of the graph's rows disagree")
	}
}

// TestAppendCSRBlockNonZeroBasedOffsets covers the documented CSR-view
// contract: off[0] need not be zero (PartitionAll hands each host a
// window into the shared adjacency array).
func TestAppendCSRBlockNonZeroBasedOffsets(t *testing.T) {
	flat := []int{99, 99, 5, 7, 9, 6}
	off := []int{2, 5, 6} // two nodes, window starting at index 2
	enc := EncodeCSRBlock(3, 2, off, flat)
	first, gotOff, gotFlat, err := DecodeCSRBlock(enc)
	if err != nil {
		t.Fatal(err)
	}
	if first != 3 || !slices.Equal(gotOff, []int{0, 3, 4}) || !slices.Equal(gotFlat, []int{5, 7, 9, 6}) {
		t.Fatalf("got first=%d off=%v flat=%v", first, gotOff, gotFlat)
	}
}
