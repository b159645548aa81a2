package parallel

import (
	"context"
	"slices"
	"testing"

	"dkcore/internal/core"
	"dkcore/internal/gen"
	"dkcore/internal/graph"
	"dkcore/internal/kcore"
)

// fuzzMaxNodes caps the fuzzed graphs so each input decomposes in
// microseconds and the fuzzer spends its time on shapes, not size.
const fuzzMaxNodes = 64

// decodeFuzzInput turns fuzz bytes into a graph and an assignment:
// data[0] picks 0..64 nodes, data[1] 1..8 workers, data[2] the policy
// (block, modulo, random or table), data[3] the seed of the random and
// table policies, and each following byte pair one edge (endpoints taken
// modulo the node count; self-loops dropped).
func decodeFuzzInput(data []byte) (*graph.Graph, core.Assignment) {
	var hdr [4]byte
	copy(hdr[:], data)
	n := int(hdr[0]) % (fuzzMaxNodes + 1)
	w := int(hdr[1])%8 + 1
	seed := int64(hdr[3])
	b := graph.NewBuilder(n)
	if n > 0 {
		for i := 4; i+1 < len(data); i += 2 {
			b.AddEdge(int(data[i])%n, int(data[i+1])%n)
		}
	}
	var a core.Assignment
	switch hdr[2] % 4 {
	case 0:
		a = core.BlockAssignment{N: max(n, 1), H: w}
	case 1:
		a = core.ModuloAssignment{H: w}
	case 2:
		a = core.NewRandomAssignment(n, w, seed)
	default:
		table := make([]int, n)
		for u := range table {
			table[u] = int((uint32(u)*2654435761^uint32(seed))>>16) % w
		}
		a = core.TableAssignment{Table: table, H: w}
	}
	return b.Build(), a
}

// encodeFuzzInput is decodeFuzzInput's inverse for seeding: the edges
// of g among its first fuzzMaxNodes nodes.
func encodeFuzzInput(g *graph.Graph, workers, policy, seed byte) []byte {
	n := min(g.NumNodes(), fuzzMaxNodes)
	data := []byte{byte(n), workers - 1, policy, seed}
	g.Edges(func(u, v int) bool {
		if u < n && v < n {
			data = append(data, byte(u), byte(v))
		}
		return true
	})
	return data
}

// FuzzParallelDecompose holds the frontier peel to the sequential oracle
// and the locality check on arbitrary small graphs, worker counts and
// seeding assignments, and requires a second run to repeat its counters
// exactly although its atomic cascades interleave differently.
func FuzzParallelDecompose(f *testing.F) {
	graphs := []*graph.Graph{
		gen.WorstCase(16),
		gen.Complete(6),
		gen.GNM(40, 120, 3),
		gen.PowerLaw(gen.PowerLawConfig{N: 64, Exponent: 2.2, MinDeg: 1}, 2),
	}
	for _, g := range graphs {
		for policy := byte(0); policy < 4; policy++ {
			f.Add(encodeFuzzInput(g, 3, policy, 7))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, a := decodeFuzzInput(data)
		ctx := context.Background()
		res, err := Decompose(ctx, g, WithAssignment(a))
		if err != nil {
			t.Fatalf("n=%d owners=%d: %v", g.NumNodes(), a.NumHosts(), err)
		}
		if want := kcore.Decompose(g).CorenessValues(); !slices.Equal(res.Coreness, want) {
			t.Fatalf("n=%d owners=%d: coreness %v, oracle %v", g.NumNodes(), a.NumHosts(), res.Coreness, want)
		}
		if err := kcore.VerifyLocality(g, res.Coreness); err != nil {
			t.Fatalf("n=%d owners=%d: %v", g.NumNodes(), a.NumHosts(), err)
		}
		again, err := Decompose(ctx, g, WithAssignment(a))
		if err != nil {
			t.Fatal(err)
		}
		if again.Rounds != res.Rounds || again.EstimatesSent != res.EstimatesSent || again.Batches != res.Batches {
			t.Fatalf("rerun (rounds %d, sent %d, batches %d) != (rounds %d, sent %d, batches %d)",
				again.Rounds, again.EstimatesSent, again.Batches, res.Rounds, res.EstimatesSent, res.Batches)
		}
	})
}
