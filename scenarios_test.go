package dkcore_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
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
	cases := scenarioGraphs()
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
			// The out-of-core kind runs 16-node blocks under a quarter
			// of the graph's decoded size (spillOpts), so it reads blocks
			// back from the spill on every graph of more than one block.
			for _, kind := range dkcore.EngineKinds() {
				rep := runEngine(t, g, kind, engineOptsFor(kind, g)...)
				assertSame(t, "engine/"+kind.String(), truth, rep.Coreness)
				if kind == dkcore.OutOfCore {
					assertReadBack(t, "engine/"+kind.String(), g, 16, rep)
				}
			}

			// Out-of-core at a finer grain: 8-node blocks, evicted and
			// reloaded under the same quarter-size budget.
			tinyRep := runEngine(t, g, dkcore.OutOfCore, spillOpts(g, 8)...)
			assertSame(t, "oocore-tiny", truth, tinyRep.Coreness)
			assertReadBack(t, "oocore-tiny", g, 8, tinyRep)

			if err := dkcore.VerifyLocality(g, truth); err != nil {
				t.Fatalf("locality: %v", err)
			}
		})
	}
}

// TestClusterMatchesOneToMany pins the deployment to its model: on every
// fifth graph of the scenario pool at 1, 2, 4, 8 and 16 hosts, the TCP
// cluster and the one-to-many simulator under strict synchrony,
// point-to-point shipping and block assignment agree on the coreness,
// the estimates shipped and the batch frames sent, and the cluster
// takes exactly one round more (see Report.Rounds).
func TestClusterMatchesOneToMany(t *testing.T) {
	cases := scenarioGraphs()
	for i := 0; i < len(cases); i += 5 {
		tc := cases[i]
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			g := tc.g
			for _, hosts := range []int{1, 2, 4, 8, 16} {
				sim := runEngine(t, g, dkcore.OneToMany,
					dkcore.DisseminationPolicy(dkcore.PointToPoint),
					dkcore.Delivery(dkcore.DeliverNextRound),
					dkcore.PartitionBy(dkcore.BlockAssignment{N: g.NumNodes(), H: hosts}))
				clu := runEngine(t, g, dkcore.Cluster, dkcore.Hosts(hosts))
				assertSame(t, fmt.Sprintf("cluster/%d hosts", hosts), sim.Coreness, clu.Coreness)
				if clu.EstimatesSent != sim.EstimatesSent || clu.TotalMessages != sim.TotalMessages || clu.Rounds != sim.Rounds+1 {
					t.Fatalf("%d hosts: cluster sent %d estimates in %d frames over %d rounds, simulator %d in %d over %d (+1)",
						hosts, clu.EstimatesSent, clu.TotalMessages, clu.Rounds, sim.EstimatesSent, sim.TotalMessages, sim.Rounds)
				}
			}
		})
	}
}

// TestOneToManyGoldenCounts pins the one-to-many protocol's counts on
// the whole scenario pool to testdata/onetomany_counts.txt: for the
// paper's modulo placement and for block placement, at 2, 4 and 16
// hosts, under broadcast and point-to-point shipping, the rounds to
// quiescence, the estimates sent and the messages sent. A change to how
// a host computes (its build, its cascade order, its batch order) must
// leave every row as it is; a mismatch prints the row the run produced.
// A row reads: graph, placement, hosts, policy (1 broadcast, 2
// point-to-point), rounds, estimates sent, messages sent.
func TestOneToManyGoldenCounts(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "onetomany_counts.txt"))
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	var got []string
	for _, tc := range scenarioGraphs() {
		for _, hosts := range []int{2, 4, 16} {
			for _, assign := range []dkcore.Assignment{
				dkcore.ModuloAssignment{H: hosts},
				dkcore.BlockAssignment{N: tc.g.NumNodes(), H: hosts},
			} {
				for _, policy := range []dkcore.Dissemination{dkcore.Broadcast, dkcore.PointToPoint} {
					rep := runEngine(t, tc.g, dkcore.OneToMany, dkcore.PartitionBy(assign), dkcore.DisseminationPolicy(policy))
					got = append(got, fmt.Sprintf("%s %T %d %d %d %d %d", tc.name, assign, hosts, policy,
						rep.Rounds, rep.EstimatesSent, rep.TotalMessages))
				}
			}
		}
	}
	if len(got) != len(rows) {
		t.Fatalf("%d runs, table has %d rows", len(got), len(rows))
	}
	for i := range got {
		if got[i] != rows[i] {
			t.Errorf("row %d: got %q, table %q", i+1, got[i], rows[i])
		}
	}
}

// scenarioGraph is one named graph of the scenario pool.
type scenarioGraph struct {
	name string
	g    *dkcore.Graph
}

// scenarioGraphs is the ~50-graph pool of seeded random and structured
// graphs the equivalence tests sweep.
func scenarioGraphs() []scenarioGraph {
	var cases []scenarioGraph

	// Erdős–Rényi family across densities.
	for seed := int64(1); seed <= 12; seed++ {
		n := 40 + 10*int(seed%5)
		m := int(seed) * n / 2
		cases = append(cases, scenarioGraph{
			fmt.Sprintf("gnm/n%d-m%d-s%d", n, m, seed),
			dkcore.GenerateGNM(n, m, seed),
		})
	}
	for seed := int64(1); seed <= 6; seed++ {
		cases = append(cases, scenarioGraph{
			fmt.Sprintf("gnp/s%d", seed),
			dkcore.GenerateGNP(70, 0.02*float64(seed), seed),
		})
	}

	// Barabási–Albert family across attachment counts.
	for seed := int64(1); seed <= 12; seed++ {
		attach := 1 + int(seed%4)
		cases = append(cases, scenarioGraph{
			fmt.Sprintf("ba/a%d-s%d", attach, seed),
			dkcore.GenerateBarabasiAlbert(80, attach, seed),
		})
	}

	// Heavier-tailed and structured families.
	for seed := int64(1); seed <= 4; seed++ {
		cases = append(cases, scenarioGraph{
			fmt.Sprintf("powerlaw/s%d", seed),
			dkcore.GeneratePowerLaw(dkcore.PowerLawConfig{N: 90, Exponent: 2.3, MinDeg: 1}, seed),
		})
	}
	cases = append(cases,
		scenarioGraph{"ws/rewired", dkcore.GenerateWattsStrogatz(64, 4, 0.2, 3)},
		scenarioGraph{"ws/lattice", dkcore.GenerateWattsStrogatz(50, 6, 0, 1)},
		scenarioGraph{"grid", dkcore.GenerateGrid(7, 8)},
		scenarioGraph{"chain", dkcore.GenerateChain(30)},
		scenarioGraph{"complete", dkcore.GenerateComplete(12)},
		scenarioGraph{"worstcase", dkcore.GenerateWorstCase(16)},
		scenarioGraph{"collab", dkcore.GenerateCollaboration(dkcore.CollaborationConfig{
			N: 70, Papers: 90, MinSize: 2, MaxSize: 5, SizeExponent: 2.0,
		}, 2)},
		scenarioGraph{"star-ish", dkcore.FromEdges(21, func() [][2]int {
			var es [][2]int
			for i := 1; i <= 20; i++ {
				es = append(es, [2]int{0, i})
			}
			return es
		}())},
		scenarioGraph{"two-cliques-bridge", func() *dkcore.Graph {
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
		scenarioGraph{"edge/empty", dkcore.NewBuilder(0).Build()},
		scenarioGraph{"edge/singleton", dkcore.NewBuilder(1).Build()},
		scenarioGraph{"edge/isolated-5", dkcore.NewBuilder(5).Build()},
		scenarioGraph{"edge/one-edge", dkcore.FromEdges(2, [][2]int{{0, 1}})},
		scenarioGraph{"edge/triangle", dkcore.FromEdges(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})},
		scenarioGraph{"edge/disconnected", disconnected()},
		scenarioGraph{"edge/components-with-isolates", componentsWithIsolates()},
	)

	return cases
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

// assertReadBack fails a test leg of blockSize-node out-of-core blocks
// that read nothing back on a graph of more than one block. A run that
// makes no pass (Rounds 0: the spill's seed estimates are already the
// coreness, as on a star) has nothing to load and is exempt.
func assertReadBack(t *testing.T, scenario string, g *dkcore.Graph, blockSize int, rep *dkcore.Report) {
	t.Helper()
	if g.NumNodes() > blockSize && rep.Rounds > 0 && rep.SpillBytesRead == 0 {
		t.Errorf("%s: %d nodes in %d-node blocks read no spill bytes back in %d passes", scenario, g.NumNodes(), blockSize, rep.Rounds)
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
