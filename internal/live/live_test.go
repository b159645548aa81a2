package live

import (
	"context"
	"testing"
	"testing/quick"

	"dkcore/internal/gen"
	"dkcore/internal/graph"
	"dkcore/internal/kcore"
)

func corenessEqual(t *testing.T, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length mismatch: %d vs %d", len(got), len(want))
	}
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("node %d: got coreness %d, want %d", u, got[u], want[u])
		}
	}
}

func TestAsyncDecomposeMatchesSequential(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnm":      gen.GNM(300, 1500, 3),
		"ba":       gen.BarabasiAlbert(400, 3, 4),
		"grid":     gen.Grid(15, 15),
		"chain":    gen.Chain(64),
		"complete": gen.Complete(25),
		"worst":    gen.WorstCase(40),
		"isolated": graph.FromEdges(10, [][2]int{{0, 1}}),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			want := kcore.Decompose(g).CorenessValues()
			res, err := Decompose(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}
			corenessEqual(t, res.Coreness, want)
		})
	}
}

func TestAsyncDecomposeEmptyGraph(t *testing.T) {
	res, err := Decompose(context.Background(), graph.NewBuilder(0).Build())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Coreness) != 0 || res.Messages != 0 {
		t.Fatalf("empty graph: %+v", res)
	}
}

func TestAsyncDecomposeRepeatedRunsAgree(t *testing.T) {
	// Async scheduling is nondeterministic; the fixpoint must not be.
	g := gen.BarabasiAlbert(300, 4, 7)
	want := kcore.Decompose(g).CorenessValues()
	for i := 0; i < 5; i++ {
		res, err := Decompose(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		corenessEqual(t, res.Coreness, want)
	}
}

func TestAsyncSendOptimizationReducesMessages(t *testing.T) {
	g := gen.GNM(300, 2400, 9)
	want := kcore.Decompose(g).CorenessValues()
	plain, err := Decompose(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Decompose(context.Background(), g, WithSendOptimization(true))
	if err != nil {
		t.Fatal(err)
	}
	corenessEqual(t, opt.Coreness, want)
	if opt.Messages >= plain.Messages {
		t.Fatalf("send optimization increased messages: %d >= %d", opt.Messages, plain.Messages)
	}
}

func TestDecomposeRoundsConvergesWithBudget(t *testing.T) {
	g := gen.GNM(200, 1000, 11)
	want := kcore.Decompose(g).CorenessValues()
	res, err := DecomposeRounds(context.Background(), g, 10*g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	corenessEqual(t, res.Coreness, want)
	if res.Rounds < 1 {
		t.Fatalf("rounds = %d", res.Rounds)
	}
}

// roundsToQuiescence runs the δ-round mode on a budget it cannot reach:
// the run stops at quiescence, so the result is exact.
func roundsToQuiescence(t *testing.T, g *graph.Graph, opts ...Option) *Result {
	t.Helper()
	res, err := DecomposeRounds(context.Background(), g, 10*g.NumNodes()+10, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDecomposeRoundsMatchesSequentialAcrossFamilies(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnm":      gen.GNM(250, 1000, 3),
		"ba":       gen.BarabasiAlbert(300, 3, 4),
		"grid":     gen.Grid(12, 12),
		"chain":    gen.Chain(60),
		"complete": gen.Complete(20),
		"worst":    gen.WorstCase(32),
		"star":     gen.Star(50),
		"isolated": graph.FromEdges(8, [][2]int{{0, 1}}),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			res := roundsToQuiescence(t, g)
			corenessEqual(t, res.Coreness, kcore.Decompose(g).CorenessValues())
			if res.Rounds < 1 {
				t.Fatalf("rounds = %d", res.Rounds)
			}
		})
	}
}

func TestDecomposeRoundsRandomProperty(t *testing.T) {
	check := func(seed int64, nRaw, density uint8) bool {
		n := int(nRaw)%40 + 2
		m := (int(density) * n * (n - 1) / 2) / 400
		g := gen.GNM(n, m, seed)
		want := kcore.Decompose(g).CorenessValues()
		got := roundsToQuiescence(t, g).Coreness
		for u := range want {
			if got[u] != want[u] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeRoundsEmptyGraph(t *testing.T) {
	res := roundsToQuiescence(t, graph.NewBuilder(0).Build())
	if len(res.Coreness) != 0 || res.Messages != 0 {
		t.Fatalf("empty graph: %+v", res)
	}
}

func TestDecomposeRoundsApproximationImproves(t *testing.T) {
	// With a tiny budget the estimates must still be safe (>= truth), and
	// the error must shrink as the budget grows (Figure 4's message).
	g := gen.DeepWeb(gen.DeepWebConfig{
		CoreNodes: 30, CoreDegree: 10, MidNodes: 100, MidAttach: 2,
		Filaments: 4, FilamentLen: 30,
	}, 3)
	truth := kcore.Decompose(g).CorenessValues()
	totalErr := func(est []int) int {
		sum := 0
		for u, e := range est {
			if e < truth[u] {
				t.Fatalf("estimate below truth at node %d: %d < %d", u, e, truth[u])
			}
			sum += e - truth[u]
		}
		return sum
	}
	small, err := DecomposeRounds(context.Background(), g, 2)
	if err != nil {
		t.Fatal(err)
	}
	large, err := DecomposeRounds(context.Background(), g, 12)
	if err != nil {
		t.Fatal(err)
	}
	errSmall, errLarge := totalErr(small.Coreness), totalErr(large.Coreness)
	if errLarge > errSmall {
		t.Fatalf("error grew with more rounds: %d -> %d", errSmall, errLarge)
	}
	if errSmall == 0 {
		t.Fatalf("2-round budget should not already be exact on the deep-web graph")
	}
}

func TestDecomposeRoundsRejectsZeroBudget(t *testing.T) {
	if _, err := DecomposeRounds(context.Background(), gen.Chain(4), 0); err == nil {
		t.Fatalf("zero budget accepted")
	}
}

func TestDecomposeEpidemicExact(t *testing.T) {
	g := gen.GNM(200, 1200, 13)
	want := kcore.Decompose(g).CorenessValues()
	res, err := DecomposeEpidemic(context.Background(), g, 30)
	if err != nil {
		t.Fatal(err)
	}
	corenessEqual(t, res.Coreness, want)
}

func TestDecomposeEpidemicOnChain(t *testing.T) {
	// Chains are the worst case for gossip spread; the quiet window must
	// still prevent premature termination with a window near the
	// diameter.
	g := gen.Chain(60)
	want := kcore.Decompose(g).CorenessValues()
	res, err := DecomposeEpidemic(context.Background(), g, 150)
	if err != nil {
		t.Fatal(err)
	}
	corenessEqual(t, res.Coreness, want)
}

func TestDecomposeEpidemicRejectsBadWindow(t *testing.T) {
	if _, err := DecomposeEpidemic(context.Background(), gen.Chain(4), 0); err == nil {
		t.Fatalf("zero quiet window accepted")
	}
}

func TestWorkersOption(t *testing.T) {
	g := gen.GNM(150, 700, 17)
	want := kcore.Decompose(g).CorenessValues()
	for _, workers := range []int{1, 2, 16} {
		res, err := DecomposeRounds(context.Background(), g, 10*g.NumNodes(), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		corenessEqual(t, res.Coreness, want)
	}
}

func TestDecomposeRoundsWorkerCountsAgree(t *testing.T) {
	g := gen.BarabasiAlbert(400, 4, 9)
	want := kcore.Decompose(g).CorenessValues()
	for _, workers := range []int{1, 2, 8, 32} {
		corenessEqual(t, roundsToQuiescence(t, g, WithWorkers(workers)).Coreness, want)
	}
}
