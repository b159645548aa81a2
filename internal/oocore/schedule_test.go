package oocore

import (
	"context"
	"slices"
	"testing"

	"dkcore/internal/gen"
	"dkcore/internal/kcore"
)

// TestTightBudgetSchedule gates the I/O schedule where it costs most: on
// the benchmark's spill-shaped graph (a 60k-node power law cut into
// 4096-node blocks), read amplification (block bytes read over the
// store's bytes) and block passes must stay within a fixed margin of
// what the support-counter relax reads once the spill keeps the blocks
// that fit: 4.96 and 619 passes at 2 MiB, 0.75 and 470 at 4 MiB. The
// margins (0.48 and 435 at 2 MiB, 0.13 and 355 at 4 MiB) are those the
// gate allowed before the spill kept any block. The run is
// deterministic, so the figures are exact, not sampled.
func TestTightBudgetSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("out-of-core workload is not short")
	}
	g := gen.PowerLaw(gen.PowerLawConfig{N: 60000, Exponent: 2.2, MinDeg: 3}, 1)
	want := kcore.Decompose(g).CorenessValues()
	for _, tc := range []struct {
		budget    int64
		maxAmp    float64
		maxPasses int
	}{
		{2 << 20, 5.44, 1054},
		{4 << 20, 0.88, 825},
	} {
		res, err := Decompose(context.Background(), g,
			WithMemoryBudget(tc.budget), WithBlockSize(4096), WithSpillDir(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Coreness, want) {
			t.Fatalf("%d MiB: coreness differs from the sequential oracle", tc.budget>>20)
		}
		amp := float64(res.Cache.SpillBytesRead) / float64(res.BlockStoreBytes)
		t.Logf("%d MiB: read amplification %.4f, %d passes, %d cross-block wake-ups",
			tc.budget>>20, amp, res.Passes, res.EstimatesSent)
		if amp > tc.maxAmp {
			t.Errorf("%d MiB: read amplification %.2f, want <= %.2f", tc.budget>>20, amp, tc.maxAmp)
		}
		if res.Passes > tc.maxPasses {
			t.Errorf("%d MiB: %d passes, want <= %d", tc.budget>>20, res.Passes, tc.maxPasses)
		}
	}
}
