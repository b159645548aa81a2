// The refinement hot path under a power-law hub stress: the workload the
// incremental support counters exist for. BenchmarkRefineHotPath gates
// the tentpole claims — ≥2× refinement throughput over the retained
// recompute-from-scratch oracle on powerlaw-10k, and zero steady-state
// allocations — and TestRefineSteadyStateAllocs is the deterministic
// version of the allocation claim that CI's benchmark-smoke lane runs.
package dkcore_test

import (
	"testing"

	"dkcore"
	"dkcore/internal/bench"
	"dkcore/internal/core"
)

// hotPathStates builds p partition states over g, optionally on the
// recompute-from-scratch oracle path.
func hotPathStates(tb testing.TB, g *dkcore.Graph, p int, oracle bool) []*core.HostState {
	tb.Helper()
	parts, err := core.PartitionAll(g, core.ModuloAssignment{H: p})
	if err != nil {
		tb.Fatal(err)
	}
	states := make([]*core.HostState, p)
	for x := 0; x < p; x++ {
		states[x] = parts.NewPartitionState(x)
		if oracle {
			states[x].SetOracleRefine(true)
		}
	}
	return states
}

// BenchmarkRefineHotPath stresses estimate refinement on the 10k-node
// power-law generator (the hub-heavy degree profile of the paper's web
// and social datasets; the degree cap is lifted to 1200 so genuine hubs
// exist — the generator's default sqrt(N) cap would truncate exactly the
// nodes this benchmark is about) over 8 partitions. The hoststate-incremental and
// hoststate-oracle variants run the identical BSP schedule, so their
// msgs/s ratio is exactly the tentpole's refinement-throughput claim;
// the incremental variant must also report 0 allocs/op (the buffers are
// warmed before the timer starts). parallel-engine runs the full
// concurrent engine per op — setup included — for the trajectory record.
func BenchmarkRefineHotPath(b *testing.B) {
	g := dkcore.GeneratePowerLaw(dkcore.PowerLawConfig{N: 10000, Exponent: 2.0, MinDeg: 2, MaxDeg: 1200}, 1)
	const p = 8
	for _, mode := range []struct {
		name   string
		oracle bool
	}{
		{"hoststate-incremental", false},
		{"hoststate-oracle", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			states := hotPathStates(b, g, p, mode.oracle)
			inbox := make([][]core.Batch, p)
			next := make([][]core.Batch, p)
			single := make(core.Batch, 1)
			// Warm twice: the double-buffered collect storage alternates
			// halves per run, so one warm run only sizes one parity.
			_, rounds := bench.DriveRefinement(states, inbox, next, single)
			bench.DriveRefinement(states, inbox, next, single)
			b.ReportAllocs()
			b.ResetTimer()
			var total int64
			for i := 0; i < b.N; i++ {
				applied, _ := bench.DriveRefinement(states, inbox, next, single)
				total += applied
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(total)/secs, "msgs/s")
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
	b.Run("parallel-engine", func(b *testing.B) {
		b.ReportAllocs()
		var rounds int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rounds = runEngine(b, g, dkcore.Parallel, dkcore.Workers(p)).Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
}

// TestRefineSteadyStateAllocs asserts the incremental refinement round
// loop allocates nothing once warm — the HostState-level half of the
// allocation gate; internal/parallel's TestSteadyStateRoundAllocs covers
// the full engine with its worker pool.
func TestRefineSteadyStateAllocs(t *testing.T) {
	g := dkcore.GeneratePowerLaw(dkcore.PowerLawConfig{N: 4000, Exponent: 2.2, MinDeg: 2}, 1)
	const p = 4
	states := hotPathStates(t, g, p, false)
	inbox := make([][]core.Batch, p)
	next := make([][]core.Batch, p)
	single := make(core.Batch, 1)
	if applied, _ := bench.DriveRefinement(states, inbox, next, single); applied == 0 {
		t.Fatal("warmup refinement applied no messages; workload too trivial to gate on")
	}
	avg := testing.AllocsPerRun(10, func() {
		bench.DriveRefinement(states, inbox, next, single)
	})
	if avg >= 1 {
		t.Errorf("steady-state refinement allocates: %.1f allocs per run, want 0", avg)
	}
}
