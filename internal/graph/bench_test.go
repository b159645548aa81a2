package graph_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"dkcore/internal/gen"
	"dkcore/internal/graph"
)

// benchGraph is the skew workload's power law at a third of its size:
// 100k nodes, about 500k edges, hubs of degree ~300.
func benchGraph() *graph.Graph {
	return gen.PowerLaw(gen.PowerLawConfig{N: 100_000, Exponent: 2.2, MinDeg: 3}, 1)
}

var sinkGraph *graph.Graph

// BenchmarkReadEdgeList parses the graph's text edge list from memory:
// the windowed parse, the dense-ID remap and Build.
func BenchmarkReadEdgeList(b *testing.B) {
	var text bytes.Buffer
	if err := graph.WriteEdgeList(&text, benchGraph()); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(text.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, _, err := graph.ReadEdgeList(bytes.NewReader(text.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		sinkGraph = g
	}
}

// TestReadEdgeListBytesPerEdge is the ingest-memory gate: reading the
// benchmark graph's text edge list allocates at most 64 bytes per input
// edge, all of ReadEdgeList counted (the read windows and their parsed
// pairs, the dense-ID remap, the stored edges, Build's intermediates and
// the CSR it returns).
func TestReadEdgeListBytesPerEdge(t *testing.T) {
	const maxBytesPerEdge = 64
	g := benchGraph()
	var text bytes.Buffer
	if err := graph.WriteEdgeList(&text, g); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, _, err := graph.ReadEdgeList(bytes.NewReader(text.Bytes()))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != g.NumEdges() {
		t.Fatalf("read %d edges, wrote %d", got.NumEdges(), g.NumEdges())
	}
	perEdge := float64(after.TotalAlloc-before.TotalAlloc) / float64(g.NumEdges())
	t.Logf("%d edges, %.1f B allocated per edge", g.NumEdges(), perEdge)
	if perEdge > maxBytesPerEdge {
		t.Fatalf("ReadEdgeList allocated %.1f B per input edge, want at most %d", perEdge, maxBytesPerEdge)
	}
}

// BenchmarkReadBinary reads the graph's binary file from memory.
func BenchmarkReadBinary(b *testing.B) {
	var file bytes.Buffer
	if err := graph.WriteBinary(&file, benchGraph()); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(file.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := graph.ReadBinary(bytes.NewReader(file.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		sinkGraph = g
	}
}

// TestReadBinaryBytesPerArc is the binary-load memory gate: reading the
// benchmark graph's binary file allocates at most 20 bytes per arc, all
// of ReadBinary counted (the file's bytes, the CSR it returns, whose
// neighbor array alone is 8 bytes per arc, and the twin check).
func TestReadBinaryBytesPerArc(t *testing.T) {
	const maxBytesPerArc = 20
	g := benchGraph()
	var file bytes.Buffer
	if err := graph.WriteBinary(&file, g); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := graph.ReadBinary(bytes.NewReader(file.Bytes()))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(g) {
		t.Fatal("read back a different graph")
	}
	perArc := float64(after.TotalAlloc-before.TotalAlloc) / float64(g.NumArcs())
	t.Logf("%d arcs, %d file bytes, %.1f B allocated per arc", g.NumArcs(), file.Len(), perArc)
	if perArc > maxBytesPerArc {
		t.Fatalf("ReadBinary allocated %.1f B per arc, want at most %d", perArc, maxBytesPerArc)
	}
}

// BenchmarkBuild builds CSR from the graph's edges added in shuffled
// order with random endpoint order, so no pass can lean on sorted input.
func BenchmarkBuild(b *testing.B) {
	g := benchGraph()
	var edges [][2]int
	g.Edges(func(u, v int) bool {
		edges = append(edges, [2]int{u, v})
		return true
	})
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	bld := graph.NewBuilder(g.NumNodes())
	for _, e := range edges {
		if rng.Intn(2) == 0 {
			e[0], e[1] = e[1], e[0]
		}
		bld.AddEdge(e[0], e[1])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkGraph = bld.Build()
	}
}
