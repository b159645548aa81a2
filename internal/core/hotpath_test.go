package core

// The refinement hot path under a power-law hub stress, through the
// calls every sharded engine makes (Apply, ImproveIfDirty,
// CollectPointToPoint). TestRefineSteadyStateAllocs is the
// deterministic allocation gate `make bench-allocs` runs;
// BenchmarkRefineHotPath times the same loop against the retained
// recompute-from-scratch oracle on an identical schedule.

import (
	"testing"

	"dkcore/internal/gen"
)

// driveRefinement runs one full fine-grained refinement — init plus BSP
// rounds to quiescence, every estimate message applied and cascaded
// individually (the δ→0 regime of the per-node engines, and the hub
// stress where recompute-from-scratch hits its O(re-enqueues × degree)
// worst case) — over warmed partition states on a single goroutine,
// counting the messages applied. InitEstimates is idempotent and the
// inboxes drain at quiescence, so the same states and buffers re-run
// allocation-free.
func driveRefinement(states []*HostState, inbox, next [][]Batch, single Batch) (applied int64, rounds int) {
	for round := 0; ; round++ {
		active := false
		for x, s := range states {
			if round == 0 {
				s.InitEstimates()
			} else {
				for _, b := range inbox[x] {
					for _, m := range b {
						single[0] = m
						s.Apply(single)
						s.ImproveIfDirty()
						applied++
					}
				}
				inbox[x] = inbox[x][:0]
			}
			for dest, batch := range s.CollectPointToPoint() {
				next[dest] = append(next[dest], batch)
				active = true
			}
		}
		if !active {
			return applied, round + 1
		}
		inbox, next = next, inbox
	}
}

// TestRefineSteadyStateAllocs asserts the incremental refinement round
// loop allocates nothing once warm — the HostState-level half of the
// allocation gate; internal/parallel's TestSteadyStateRoundAllocs covers
// the full engine with its worker pool.
func TestRefineSteadyStateAllocs(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 4000, Exponent: 2.2, MinDeg: 2}, 1)
	const p = 4
	states, _, err := lockstepHosts(g, p)
	if err != nil {
		t.Fatal(err)
	}
	inbox := make([][]Batch, p)
	next := make([][]Batch, p)
	single := make(Batch, 1)
	if applied, _ := driveRefinement(states, inbox, next, single); applied == 0 {
		t.Fatal("warmup refinement applied no messages; workload too trivial to gate on")
	}
	avg := testing.AllocsPerRun(10, func() {
		driveRefinement(states, inbox, next, single)
	})
	if avg >= 1 {
		t.Errorf("steady-state refinement allocates: %.1f allocs per run, want 0", avg)
	}
}

// BenchmarkRefineHotPath stresses estimate refinement on the 10k-node
// power-law generator (the hub-heavy degree profile of the paper's web
// and social datasets; the degree cap is lifted to 1200 so genuine hubs
// exist — the generator's default sqrt(N) cap would truncate exactly the
// nodes this benchmark is about) over 8 partitions. The incremental and
// oracle variants run the identical BSP schedule, so their msgs/s are
// directly comparable; the incremental variant must also report
// 0 allocs/op (the buffers are warmed before the timer starts).
func BenchmarkRefineHotPath(b *testing.B) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 10000, Exponent: 2.0, MinDeg: 2, MaxDeg: 1200}, 1)
	const p = 8
	inc, orc, err := lockstepHosts(g, p)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name   string
		states []*HostState
	}{
		{"hoststate-incremental", inc},
		{"hoststate-oracle", orc},
	} {
		b.Run(mode.name, func(b *testing.B) {
			inbox := make([][]Batch, p)
			next := make([][]Batch, p)
			single := make(Batch, 1)
			// Warm twice: the double-buffered collect storage alternates
			// halves per run, so one warm run only sizes one parity.
			_, rounds := driveRefinement(mode.states, inbox, next, single)
			driveRefinement(mode.states, inbox, next, single)
			b.ReportAllocs()
			b.ResetTimer()
			var total int64
			for i := 0; i < b.N; i++ {
				applied, _ := driveRefinement(mode.states, inbox, next, single)
				total += applied
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(total)/secs, "msgs/s")
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}
