package parallel

import (
	"context"
	"testing"

	"dkcore/internal/core"
	"dkcore/internal/gen"
	"dkcore/internal/kcore"
)

// TestSteadyStateRoundAllocs is the allocation-regression gate CI's
// benchmark-smoke lane runs: a warmed engine must re-run its entire peel
// — reset, level scans, seeding, cascades — without allocating. Anything
// that reintroduces per-round allocation (goroutine respawning, fresh
// queues) multiplies by the round count and fails the per-round bound
// immediately.
func TestSteadyStateRoundAllocs(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 4000, Exponent: 2.2, MinDeg: 2}, 1)
	n := g.NumNodes()
	e, err := kcore.NewLevelPeel(g, 4, core.BlockAssignment{N: n, H: 4}.Host)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()

	if err := e.Run(ctx, nil, 8*(n+1)); err != nil {
		t.Fatal(err)
	}
	rounds := e.Levels
	if rounds < 2 {
		t.Fatalf("power-law run finished in %d rounds; workload too trivial to gate on", rounds)
	}

	var runErr error
	avg := testing.AllocsPerRun(5, func() {
		runErr = e.Run(ctx, nil, 8*(n+1))
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	// The budget is per full re-run: with zero steady-state round
	// allocations only stray runtime bookkeeping (channel sudog refills
	// and the like) can show up, and that stays far below one alloc per
	// round. A regression that allocates each round costs >= `rounds`
	// allocs per run and trips this at once.
	if perRound := avg / float64(rounds); perRound >= 1 {
		t.Errorf("steady-state rounds allocate: %.1f allocs per re-run over %d rounds (%.2f/round), want 0",
			avg, rounds, perRound)
	}

	// Re-running warmed state must still produce the exact decomposition.
	want := kcore.Decompose(g).CorenessValues()
	got := e.Coreness()
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("re-run coreness diverged at node %d: got %d, want %d", u, got[u], want[u])
		}
	}
}
