package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"dkcore/internal/core"
	"dkcore/internal/gen"
	"dkcore/internal/graph"
	"dkcore/internal/kcore"
)

func assertExact(t *testing.T, g *graph.Graph, res *Result) {
	t.Helper()
	want := kcore.Decompose(g).CorenessValues()
	if len(res.Coreness) != len(want) {
		t.Fatalf("%d coreness entries, want %d", len(res.Coreness), len(want))
	}
	for u := range want {
		if res.Coreness[u] != want[u] {
			t.Fatalf("node %d: coreness %d, want %d", u, res.Coreness[u], want[u])
		}
	}
}

func TestDecomposeMatchesSequential(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnm":       gen.GNM(200, 800, 7),
		"ba":        gen.BarabasiAlbert(150, 3, 2),
		"powerlaw":  gen.PowerLaw(gen.PowerLawConfig{N: 300, Exponent: 2.3, MinDeg: 1}, 3),
		"worstcase": gen.WorstCase(64),
		"chain":     gen.Chain(50),
		"complete":  gen.Complete(20),
	}
	for name, g := range graphs {
		for _, workers := range []int{1, 2, 3, 8, 1000} {
			t.Run(fmt.Sprintf("%s/w%d", name, workers), func(t *testing.T) {
				res, err := Decompose(context.Background(), g, WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				assertExact(t, g, res)
				if want := min(workers, g.NumNodes()); res.Workers != want {
					t.Fatalf("resolved workers = %d, want %d", res.Workers, want)
				}
			})
		}
	}
}

func TestDecomposeAssignments(t *testing.T) {
	g := gen.GNM(120, 500, 11)
	n := g.NumNodes()
	assigns := map[string]core.Assignment{
		"modulo": core.ModuloAssignment{H: 5},
		"block":  core.BlockAssignment{N: n, H: 5},
		"random": core.NewRandomAssignment(n, 5, 42),
	}
	for name, a := range assigns {
		t.Run(name, func(t *testing.T) {
			res, err := Decompose(context.Background(), g, WithAssignment(a))
			if err != nil {
				t.Fatal(err)
			}
			assertExact(t, g, res)
			if res.Workers != 5 {
				t.Fatalf("resolved workers = %d, want 5", res.Workers)
			}
		})
	}
}

func TestDecomposeEdgeCases(t *testing.T) {
	empty, err := Decompose(context.Background(), graph.FromEdges(0, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Coreness) != 0 || empty.Rounds != 0 {
		t.Fatalf("empty graph: %+v", empty)
	}

	isolated, err := Decompose(context.Background(), graph.FromEdges(5, nil), WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	assertExact(t, graph.FromEdges(5, nil), isolated)

	single, err := Decompose(context.Background(), graph.FromEdges(2, [][2]int{{0, 1}}), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	assertExact(t, graph.FromEdges(2, [][2]int{{0, 1}}), single)
}

func TestDecomposeOptionErrors(t *testing.T) {
	g := gen.GNM(30, 60, 1)
	if _, err := Decompose(context.Background(), g, WithWorkers(-1)); err == nil {
		t.Fatal("negative workers accepted")
	}
	if _, err := Decompose(context.Background(), g, WithWorkers(3), WithAssignment(core.ModuloAssignment{H: 4})); err == nil {
		t.Fatal("worker/assignment mismatch accepted")
	}
	if _, err := Decompose(context.Background(), g, WithAssignment(core.ModuloAssignment{H: 0})); err == nil {
		t.Fatal("zero-host assignment accepted")
	}
	if _, err := Decompose(context.Background(), g, WithAssignment(offByOne{n: g.NumNodes()})); err == nil {
		t.Fatal("out-of-range assignment accepted")
	}
	// The 500-node power law of TestDecomposeDeterministic peels in 3
	// levels, one more than the budget.
	deep := gen.PowerLaw(gen.PowerLawConfig{N: 500, Exponent: 2.2, MinDeg: 2}, 9)
	if _, err := Decompose(context.Background(), deep, WithWorkers(4), WithMaxRounds(2)); err == nil {
		t.Fatal("impossible round budget did not error")
	}
}

// offByOne claims 2 hosts but routes every node to host 2.
type offByOne struct{ n int }

func (offByOne) Host(int) int  { return 2 }
func (offByOne) NumHosts() int { return 2 }

func TestDecomposeDeterministic(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 500, Exponent: 2.2, MinDeg: 2}, 9)
	first, err := Decompose(context.Background(), g, WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		again, err := Decompose(context.Background(), g, WithWorkers(8))
		if err != nil {
			t.Fatal(err)
		}
		if again.Rounds != first.Rounds || again.EstimatesSent != first.EstimatesSent ||
			again.Batches != first.Batches {
			t.Fatalf("run %d: (rounds %d, est %d, batches %d) != (rounds %d, est %d, batches %d)",
				rep, again.Rounds, again.EstimatesSent, again.Batches,
				first.Rounds, first.EstimatesSent, first.Batches)
		}
		assertExact(t, g, again)
	}
}

// TestPeelWorkBound pins the peel's O(n+m) work: every node is peeled
// exactly once, by the one worker that seeded or claimed it, and walks
// its adjacency then, so a run reads exactly 2m arcs whatever the worker
// count. A node queued twice (a seed scan racing a cascade, say) walks a
// row twice and shows here. Rounds are levels, at most n.
func TestPeelWorkBound(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 20000, Exponent: 2.2, MinDeg: 2}, 5)
	n, arcs := g.NumNodes(), int64(g.NumArcs())
	for _, w := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("w%d", w), func(t *testing.T) {
			e, err := kcore.NewLevelPeel(g, w, core.BlockAssignment{N: n, H: w}.Host)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if err := e.Run(context.Background(), nil, 8*(n+1)); err != nil {
				t.Fatal(err)
			}
			assertExact(t, g, &Result{Coreness: e.Coreness()})
			walked := e.Arcs
			if walked != arcs {
				t.Errorf("peel walked %d arcs, want exactly 2m = %d", walked, arcs)
			}
			if e.Levels > n {
				t.Errorf("%d rounds on %d nodes, want at most n", e.Levels, n)
			}
		})
	}
}

// TestDecomposeLeavesNoGoroutine: Decompose's workers are gone once it
// returns, whether it succeeds, is cancelled or runs out of levels. A
// worker's last act is to signal the close that waits for it, so its
// exit can trail Decompose's return by a few instructions; one still
// running a second later was left behind.
func TestDecomposeLeavesNoGoroutine(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 500, Exponent: 2.2, MinDeg: 2}, 9)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, tc := range map[string]struct {
		ctx  context.Context
		opts []Option
		ok   func(error) bool
	}{
		"success":      {context.Background(), []Option{WithWorkers(4)}, func(err error) bool { return err == nil }},
		"cancelled":    {cancelled, []Option{WithWorkers(4)}, func(err error) bool { return errors.Is(err, context.Canceled) }},
		"level budget": {context.Background(), []Option{WithWorkers(4), WithMaxRounds(2)}, func(err error) bool { return err != nil }},
	} {
		before := runtime.NumGoroutine()
		if _, err := Decompose(tc.ctx, g, tc.opts...); !tc.ok(err) {
			t.Fatalf("%s: Decompose returned %v", name, err)
		}
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after Decompose, %d before", name, runtime.NumGoroutine(), before)
			}
		}
	}
}
