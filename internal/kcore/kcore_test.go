package kcore_test

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dkcore/internal/gen"
	"dkcore/internal/graph"
	"dkcore/internal/kcore"
)

// paperFig2 returns the 6-node example the paper walks through in §3.1.1:
// edges 1-2, 2-3, 2-4, 3-4, 3-5, 4-5, 5-6 (1-based). Nodes 2..5 have
// degree 3 and coreness 2; nodes 1 and 6 have coreness 1.
func paperFig2() *graph.Graph {
	return graph.FromEdges(6, [][2]int{
		{0, 1}, {1, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 4}, {4, 5},
	})
}

func TestDecomposePaperFig2(t *testing.T) {
	d := kcore.Decompose(paperFig2())
	want := []int{1, 2, 2, 2, 2, 1}
	for u, w := range want {
		if d.Coreness(u) != w {
			t.Fatalf("node %d: coreness %d, want %d", u, d.Coreness(u), w)
		}
	}
	if d.MaxCoreness() != 2 {
		t.Fatalf("max coreness = %d, want 2", d.MaxCoreness())
	}
}

func TestDecomposeKnownFamilies(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want func(u int) int
	}{
		{"complete K7", gen.Complete(7), func(int) int { return 6 }},
		{"ring", gen.Ring(10), func(int) int { return 2 }},
		{"chain", gen.Chain(10), func(int) int { return 1 }},
		{"star", gen.Star(10), func(int) int { return 1 }},
		{"torus (4-regular)", gen.Torus(5, 5), func(int) int { return 4 }},
		{"worst case (all 2)", gen.WorstCase(12), func(int) int { return 2 }},
		{"single node", gen.Chain(1), func(int) int { return 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := kcore.Decompose(tt.g)
			for u := 0; u < tt.g.NumNodes(); u++ {
				if got := d.Coreness(u); got != tt.want(u) {
					t.Fatalf("node %d: coreness %d, want %d", u, got, tt.want(u))
				}
			}
		})
	}
}

func TestDecomposeGridIsTwo(t *testing.T) {
	d := kcore.Decompose(gen.Grid(6, 9))
	for u := 0; u < 54; u++ {
		if d.Coreness(u) != 2 {
			t.Fatalf("grid node %d coreness = %d, want 2", u, d.Coreness(u))
		}
	}
}

func TestDecomposeCaveman(t *testing.T) {
	// Cliques of 5 with single connecting edges: clique nodes keep
	// coreness 4 (the connectors cannot raise it).
	d := kcore.Decompose(gen.Caveman(4, 5))
	for u := 0; u < 20; u++ {
		if d.Coreness(u) != 4 {
			t.Fatalf("caveman node %d coreness = %d, want 4", u, d.Coreness(u))
		}
	}
}

func TestDecomposeIsolatedNodes(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	d := kcore.Decompose(b.Build())
	for u := 2; u < 5; u++ {
		if d.Coreness(u) != 0 {
			t.Fatalf("isolated node %d coreness = %d, want 0", u, d.Coreness(u))
		}
	}
	if d.Coreness(0) != 1 || d.Coreness(1) != 1 {
		t.Fatalf("edge endpoints should have coreness 1")
	}
}

func TestDecomposeEmptyGraph(t *testing.T) {
	d := kcore.Decompose(graph.NewBuilder(0).Build())
	if d.NumNodes() != 0 || d.MaxCoreness() != 0 || d.AvgCoreness() != 0 {
		t.Fatalf("empty graph decomposition malformed")
	}
}

func TestNaiveMatchesBucketProperty(t *testing.T) {
	check := func(seed int64, nRaw, density uint8) bool {
		n := int(nRaw)%40 + 2
		m := (int(density) * n * (n - 1) / 2) / 512
		g := gen.GNM(n, m, seed)
		a := kcore.Decompose(g)
		b := kcore.DecomposeNaive(g)
		for u := 0; u < n; u++ {
			if a.Coreness(u) != b.Coreness(u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalityTheoremProperty(t *testing.T) {
	check := func(seed int64, nRaw, density uint8) bool {
		n := int(nRaw)%60 + 2
		m := (int(density) * n * (n - 1) / 2) / 512
		g := gen.GNM(n, m, seed)
		d := kcore.Decompose(g)
		return kcore.VerifyLocality(g, d.CorenessValues()) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyLocalityRejectsWrongAssignment(t *testing.T) {
	g := paperFig2()
	good := kcore.Decompose(g).CorenessValues()
	if err := kcore.VerifyLocality(g, good); err != nil {
		t.Fatalf("correct assignment rejected: %v", err)
	}
	bad := append([]int(nil), good...)
	bad[1] = 3 // node with degree 3 cannot have coreness 3 here
	if err := kcore.VerifyLocality(g, bad); err == nil {
		t.Fatalf("wrong assignment accepted")
	}
	under := append([]int(nil), good...)
	under[1] = 1 // underestimate: node 1 then has 4 neighbors with coreness >= 2? no, violates (ii)
	if err := kcore.VerifyLocality(g, under); err == nil {
		t.Fatalf("underestimate accepted")
	}
	if err := kcore.VerifyLocality(g, []int{1}); err == nil {
		t.Fatalf("length mismatch accepted")
	}
}

func TestShellAndCoreExtraction(t *testing.T) {
	g := paperFig2()
	d := kcore.Decompose(g)
	sizes := d.ShellSizes()
	if len(sizes) != 3 || sizes[1] != 2 || sizes[2] != 4 {
		t.Fatalf("shell sizes = %v, want [0 2 4]", sizes)
	}
	shell1 := d.Shell(1)
	if len(shell1) != 2 || shell1[0] != 0 || shell1[1] != 5 {
		t.Fatalf("1-shell = %v, want [0 5]", shell1)
	}
	coreNodes := d.CoreNodes(2)
	if len(coreNodes) != 4 {
		t.Fatalf("2-core has %d nodes, want 4", len(coreNodes))
	}
	sub, orig := d.KCore(g, 2)
	if sub.NumNodes() != 4 {
		t.Fatalf("2-core subgraph has %d nodes, want 4", sub.NumNodes())
	}
	if sub.MinDegree() < 2 {
		t.Fatalf("2-core subgraph min degree = %d, want >= 2", sub.MinDegree())
	}
	if len(orig) != 4 || orig[0] != 1 {
		t.Fatalf("orig mapping = %v", orig)
	}
}

func TestCoresAreConcentric(t *testing.T) {
	// By definition cores are nested: (k+1)-core ⊆ k-core (paper Fig. 1).
	g := gen.BarabasiAlbert(300, 4, 8)
	d := kcore.Decompose(g)
	for k := 1; k <= d.MaxCoreness(); k++ {
		inner := d.CoreNodes(k)
		outer := make(map[int]bool)
		for _, u := range d.CoreNodes(k - 1) {
			outer[u] = true
		}
		for _, u := range inner {
			if !outer[u] {
				t.Fatalf("node %d in %d-core but not %d-core", u, k, k-1)
			}
		}
	}
}

func TestKCoreSubgraphMinDegreeProperty(t *testing.T) {
	// Every k-core, as an induced subgraph, must have min degree >= k
	// (Definition 1).
	g := gen.GNM(120, 700, 77)
	d := kcore.Decompose(g)
	for k := 1; k <= d.MaxCoreness(); k++ {
		sub, _ := d.KCore(g, k)
		if sub.NumNodes() > 0 && sub.MinDegree() < k {
			t.Fatalf("%d-core has min degree %d", k, sub.MinDegree())
		}
	}
}

func TestPeelOrderIsDegeneracyOrder(t *testing.T) {
	g := gen.GNM(150, 900, 13)
	d := kcore.Decompose(g)
	order := d.PeelOrder()
	if len(order) != g.NumNodes() {
		t.Fatalf("order length %d != %d", len(order), g.NumNodes())
	}
	seen := make([]bool, g.NumNodes())
	posInOrder := make([]int, g.NumNodes())
	for i, u := range order {
		if seen[u] {
			t.Fatalf("node %d appears twice in peel order", u)
		}
		seen[u] = true
		posInOrder[u] = i
	}
	// Degeneracy property: each node has at most MaxCoreness() neighbors
	// later in the order.
	degeneracy := d.MaxCoreness()
	for u := 0; u < g.NumNodes(); u++ {
		later := 0
		for _, v := range g.Neighbors(u) {
			if posInOrder[v] > posInOrder[u] {
				later++
			}
		}
		if later > degeneracy {
			t.Fatalf("node %d has %d later neighbors > degeneracy %d", u, later, degeneracy)
		}
	}
}

func TestDecomposeLargeSmokeAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		n := 80 + rng.Intn(120)
		m := rng.Intn(n * 3)
		g := gen.GNM(n, m, int64(trial))
		a, b := kcore.Decompose(g), kcore.DecomposeNaive(g)
		for u := 0; u < n; u++ {
			if a.Coreness(u) != b.Coreness(u) {
				t.Fatalf("trial %d node %d: bucket %d naive %d", trial, u, a.Coreness(u), b.Coreness(u))
			}
		}
	}
}

// TestCertifyAcceptsTheCoreness: Certify passes the true coreness of
// random graphs of every density.
func TestCertifyAcceptsTheCoreness(t *testing.T) {
	check := func(seed int64, nRaw, density uint8) bool {
		n := int(nRaw)%60 + 2
		m := (int(density) * n * (n - 1) / 2) / 512
		g := gen.GNM(n, m, seed)
		return kcore.Certify(g, kcore.Decompose(g).CorenessValues()) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	empty := graph.FromEdges(0, nil)
	if err := kcore.Certify(empty, nil); err != nil {
		t.Fatalf("empty graph: %v", err)
	}
}

// TestCertifyIsExact: on random graphs, a vector that moves one or two
// nodes off the coreness, by one either way, never passes Certify.
func TestCertifyIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(50) + 2
		g := gen.GNM(n, rng.Intn(n*(n-1)/2+1), int64(trial))
		truth := kcore.Decompose(g).CorenessValues()
		claim := append([]int(nil), truth...)
		for i := 0; i <= rng.Intn(2); i++ {
			claim[rng.Intn(n)] += 2*rng.Intn(2) - 1
		}
		if slices.Equal(claim, truth) {
			continue
		}
		if err := kcore.Certify(g, claim); err == nil {
			t.Fatalf("trial %d: Certify accepted %v, coreness %v", trial, claim, truth)
		}
	}
}

// TestCertifyRejectsTheAllOnesTriangle: a triangle labelled all 1s
// passes both locality conditions, but its coreness is 2.
func TestCertifyRejectsTheAllOnesTriangle(t *testing.T) {
	g := gen.Complete(3)
	ones := []int{1, 1, 1}
	if err := kcore.VerifyLocality(g, ones); err != nil {
		t.Fatalf("VerifyLocality: %v, want it to pass", err)
	}
	var le *kcore.LevelError
	if err := kcore.Certify(g, ones); !errors.As(err, &le) || le.Level != 1 || le.Residual != 2 {
		t.Fatalf("Certify: %v, want a level-1 LevelError with 2 neighbors left", err)
	}
}

// TestCertifyRejectsALoweredFixpoint: lowering one estimate below the
// coreness and running the paper's cascade (each node's estimate becomes
// the h-index of its neighbors' estimates, capped at its own) to its
// fixpoint can end at a vector below the coreness that passes both
// locality conditions. Certify rejects it.
func TestCertifyRejectsALoweredFixpoint(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 3000, Exponent: 2.2, MinDeg: 3}, 1)
	truth := kcore.Decompose(g).CorenessValues()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		u := rng.Intn(g.NumNodes())
		if truth[u] < 2 {
			continue
		}
		est := append([]int(nil), truth...)
		est[u] = rng.Intn(truth[u])
		cascade(g, est)
		if slices.Equal(est, truth) || kcore.VerifyLocality(g, est) != nil {
			continue
		}
		var le *kcore.LevelError
		if err := kcore.Certify(g, est); !errors.As(err, &le) || est[le.Node] >= truth[le.Node] {
			t.Fatalf("trial %d: Certify: %v, want a LevelError at a node below its coreness", trial, err)
		}
		t.Logf("trial %d: lowered node %d, fixpoint passes VerifyLocality; Certify: %v", trial, u, le)
		return
	}
	t.Fatal("no lowered fixpoint passed VerifyLocality in 200 trials")
}

// cascade runs the paper's update to its fixpoint: est[u] drops to the
// largest k <= est[u] with at least k neighbors estimated at k or more.
func cascade(g *graph.Graph, est []int) {
	for changed := true; changed; {
		changed = false
		for u := 0; u < g.NumNodes(); u++ {
			k := est[u]
			for ; k > 0; k-- {
				atLeast := 0
				for _, v := range g.Neighbors(u) {
					if est[v] >= k {
						atLeast++
					}
				}
				if atLeast >= k {
					break
				}
			}
			if k < est[u] {
				est[u], changed = k, true
			}
		}
	}
}
