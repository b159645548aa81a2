package oocore

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"dkcore/internal/graph"
	"dkcore/internal/kcore"
)

// fuzzMaxNodes caps the fuzzed graphs so each input decomposes in
// microseconds and the fuzzer spends its time on shapes, not size.
const fuzzMaxNodes = 64

// decodeFuzzInput turns fuzz bytes into a graph and engine knobs:
// data[0] picks 0..64 nodes, data[1] a block size of 1..16 nodes,
// data[2:4] a budget of 1..8192 bytes, and each following byte pair one
// edge (endpoints taken modulo the node count; self-loops dropped).
func decodeFuzzInput(data []byte) (g *graph.Graph, blockSize int, budget int64) {
	var hdr [4]byte
	copy(hdr[:], data)
	n := int(hdr[0]) % (fuzzMaxNodes + 1)
	blockSize = int(hdr[1])%16 + 1
	budget = int64(binary.LittleEndian.Uint16(hdr[2:]))%(8<<10) + 1
	b := graph.NewBuilder(n)
	if n > 0 {
		for i := 4; i+1 < len(data); i += 2 {
			b.AddEdge(int(data[i])%n, int(data[i+1])%n)
		}
	}
	return b.Build(), blockSize, budget
}

// encodeFuzzInput is decodeFuzzInput's inverse for seeding: the edges
// of g among its first fuzzMaxNodes nodes.
func encodeFuzzInput(g *graph.Graph, blockSize int, budget int64) []byte {
	n := min(g.NumNodes(), fuzzMaxNodes)
	data := []byte{byte(n), byte(blockSize - 1), 0, 0}
	binary.LittleEndian.PutUint16(data[2:], uint16(budget-1))
	g.Edges(func(u, v int) bool {
		if u < n && v < n {
			data = append(data, byte(u), byte(v))
		}
		return true
	})
	return data
}

// checkSupport recounts, at quiescence, the support counter of every
// node the engine counted — each node whose estimate is above 1 was
// queued at the seed and counted at its first visit — from g's rows,
// and reports the first counter that disagrees or that no longer covers
// its node's estimate.
func (e *engine) checkSupport(g *graph.Graph) error {
	for u, k := range e.est {
		if k <= 1 {
			continue
		}
		want := 0
		for _, v := range g.Neighbors(u) {
			if e.est[v] >= k {
				want++
			}
		}
		if int(e.sup[u]) != want || want < k {
			return fmt.Errorf("node %d (estimate %d): support counter %d, recount %d", u, k, e.sup[u], want)
		}
	}
	return nil
}

// FuzzOOCoreDecompose holds the out-of-core engine to the sequential
// oracle on arbitrary small graphs, block sizes and budgets — including
// budgets below one block, where every pass reloads — and recounts its
// support counters once it is quiet. The spill files live in a memFS, so
// an input costs no fsync and the fuzzer's time goes to the engine.
func FuzzOOCoreDecompose(f *testing.F) {
	for _, g := range testGraphs() {
		f.Add(encodeFuzzInput(g, 8, 1<<10))
		f.Add(encodeFuzzInput(g, 3, 1))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, blockSize, budget := decodeFuzzInput(data)
		res, e, err := decompose(context.Background(), g,
			WithBlockSize(blockSize), WithMemoryBudget(budget), WithFS(newMemFS()))
		if err != nil {
			t.Fatalf("n=%d block=%d budget=%d: %v", g.NumNodes(), blockSize, budget, err)
		}
		if want := kcore.Decompose(g).CorenessValues(); !slices.Equal(res.Coreness, want) {
			t.Fatalf("n=%d block=%d budget=%d: coreness %v, oracle %v",
				g.NumNodes(), blockSize, budget, res.Coreness, want)
		}
		if e == nil {
			return
		}
		if err := e.checkSupport(g); err != nil {
			t.Fatalf("n=%d block=%d budget=%d: %v", g.NumNodes(), blockSize, budget, err)
		}
	})
}
