package dkcore_test

import (
	"fmt"
	"testing"

	"dkcore"
)

// TestCrossScenarioEquivalence asserts that every execution scenario the
// repo offers computes the identical decomposition on a pool of ~50
// seeded random and structured graphs: the sequential baseline, all eight
// engine kinds (simulated one-to-one and one-to-many, live, live-epidemic,
// parallel, cluster, out-of-core), and the streaming Maintainer after
// replaying the whole graph as insertions.
func TestCrossScenarioEquivalence(t *testing.T) {
	type testCase struct {
		name string
		g    *dkcore.Graph
	}
	var cases []testCase

	// Erdős–Rényi family across densities.
	for seed := int64(1); seed <= 12; seed++ {
		n := 40 + 10*int(seed%5)
		m := int(seed) * n / 2
		cases = append(cases, testCase{
			fmt.Sprintf("gnm/n%d-m%d-s%d", n, m, seed),
			dkcore.GenerateGNM(n, m, seed),
		})
	}
	for seed := int64(1); seed <= 6; seed++ {
		cases = append(cases, testCase{
			fmt.Sprintf("gnp/s%d", seed),
			dkcore.GenerateGNP(70, 0.02*float64(seed), seed),
		})
	}

	// Barabási–Albert family across attachment counts.
	for seed := int64(1); seed <= 12; seed++ {
		attach := 1 + int(seed%4)
		cases = append(cases, testCase{
			fmt.Sprintf("ba/a%d-s%d", attach, seed),
			dkcore.GenerateBarabasiAlbert(80, attach, seed),
		})
	}

	// Heavier-tailed and structured families.
	for seed := int64(1); seed <= 4; seed++ {
		cases = append(cases, testCase{
			fmt.Sprintf("powerlaw/s%d", seed),
			dkcore.GeneratePowerLaw(dkcore.PowerLawConfig{N: 90, Exponent: 2.3, MinDeg: 1}, seed),
		})
	}
	cases = append(cases,
		testCase{"ws/rewired", dkcore.GenerateWattsStrogatz(64, 4, 0.2, 3)},
		testCase{"ws/lattice", dkcore.GenerateWattsStrogatz(50, 6, 0, 1)},
		testCase{"grid", dkcore.GenerateGrid(7, 8)},
		testCase{"chain", dkcore.GenerateChain(30)},
		testCase{"complete", dkcore.GenerateComplete(12)},
		testCase{"worstcase", dkcore.GenerateWorstCase(16)},
		testCase{"collab", dkcore.GenerateCollaboration(dkcore.CollaborationConfig{
			N: 70, Papers: 90, MinSize: 2, MaxSize: 5, SizeExponent: 2.0,
		}, 2)},
		testCase{"star-ish", dkcore.FromEdges(21, func() [][2]int {
			var es [][2]int
			for i := 1; i <= 20; i++ {
				es = append(es, [2]int{0, i})
			}
			return es
		}())},
		testCase{"two-cliques-bridge", func() *dkcore.Graph {
			b := dkcore.NewBuilder(0)
			for u := 0; u < 6; u++ {
				for v := u + 1; v < 6; v++ {
					b.AddEdge(u, v)
					b.AddEdge(10+u, 10+v)
				}
			}
			b.AddEdge(5, 10)
			return b.Build()
		}()},
	)

	// Edge cases: empty, singleton, all-isolated, and disconnected
	// multi-component graphs.
	cases = append(cases,
		testCase{"edge/empty", dkcore.NewBuilder(0).Build()},
		testCase{"edge/singleton", dkcore.NewBuilder(1).Build()},
		testCase{"edge/isolated-5", dkcore.NewBuilder(5).Build()},
		testCase{"edge/one-edge", dkcore.FromEdges(2, [][2]int{{0, 1}})},
		testCase{"edge/triangle", dkcore.FromEdges(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})},
		testCase{"edge/disconnected", disconnected()},
		testCase{"edge/components-with-isolates", componentsWithIsolates()},
	)

	if len(cases) < 50 {
		t.Fatalf("only %d scenario graphs, want >= 50", len(cases))
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			g := tc.g
			truth := dkcore.Decompose(g).CorenessValues()

			// Streaming: replay every edge as an insertion into an
			// initially empty maintainer over the same node universe.
			mt := dkcore.NewMaintainer(dkcore.NewBuilder(g.NumNodes()).Build())
			g.Edges(func(u, v int) bool {
				if !mt.InsertEdge(u, v) {
					t.Fatalf("maintainer rejected edge {%d, %d}", u, v)
				}
				return true
			})
			assertSame(t, "maintainer-replay", truth, mt.CorenessValues())

			// All eight engine kinds through Engine.Run, sharded kinds at
			// the engineOptsFor fan-outs (one-to-many on 3 point-to-point
			// hosts, parallel on 4 workers; the cluster kind runs a real
			// TCP-loopback deployment).
			for _, kind := range dkcore.EngineKinds() {
				rep := runEngine(t, g, kind, engineOptsFor(kind)...)
				assertSame(t, "engine/"+kind.String(), truth, rep.Coreness)
			}

			// Out-of-core under a pathologically tiny budget: 8-node
			// blocks against a 16 KiB adjacency cache, so on the larger
			// graphs block passes evict and reload blocks from the spill
			// directory.
			tinyRep := runEngine(t, g, dkcore.OutOfCore,
				dkcore.WithBlockSize(8), dkcore.WithMemoryBudget(16<<10))
			assertSame(t, "oocore-tiny", truth, tinyRep.Coreness)

			if err := dkcore.VerifyLocality(g, truth); err != nil {
				t.Fatalf("locality: %v", err)
			}
		})
	}
}

func assertSame(t *testing.T, scenario string, want, got []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d coreness entries, want %d", scenario, len(got), len(want))
	}
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("%s: node %d: coreness %d, want %d", scenario, u, got[u], want[u])
		}
	}
}

// disconnected builds three separated components: a clique, a cycle, and
// a path.
func disconnected() *dkcore.Graph {
	b := dkcore.NewBuilder(0)
	for u := 0; u < 5; u++ { // K5 on 0-4
		for v := u + 1; v < 5; v++ {
			b.AddEdge(u, v)
		}
	}
	for i := 0; i < 6; i++ { // cycle on 10-15
		b.AddEdge(10+i, 10+(i+1)%6)
	}
	for i := 0; i < 4; i++ { // path on 20-24
		b.AddEdge(20+i, 21+i)
	}
	return b.Build()
}

// componentsWithIsolates interleaves tiny components with isolated nodes.
func componentsWithIsolates() *dkcore.Graph {
	b := dkcore.NewBuilder(40) // nodes 30-39 stay isolated
	b.AddEdge(0, 1)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(5, 3)
	b.AddEdge(9, 12)
	return b.Build()
}
