package oocore

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dkcore/internal/chaos"
	"dkcore/internal/gen"
	"dkcore/internal/graph"
	"dkcore/internal/kcore"
)

func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"empty":       graph.NewBuilder(0).Build(),
		"singleton":   graph.NewBuilder(1).Build(),
		"one-edge":    gen.Chain(2),
		"chain":       gen.Chain(500),
		"star":        gen.Star(300),
		"complete":    gen.Complete(40),
		"grid":        gen.Grid(20, 25),
		"caveman":     gen.Caveman(12, 8),
		"gnm":         gen.GNM(800, 3200, 7),
		"powerlaw":    gen.PowerLaw(gen.PowerLawConfig{N: 1000, Exponent: 2.2, MinDeg: 2}, 11),
		"worst-case":  gen.WorstCase(600),
		"ba":          gen.BarabasiAlbert(400, 3, 5),
		"watts":       gen.WattsStrogatz(300, 6, 0.1, 3),
		"isolated":    graph.NewBuilder(50).Build(),
		"self-sparse": gen.GNM(200, 40, 9),
	}
}

// optionSets covers the cache regimes: everything resident, moderate
// eviction, and a pathological budget that keeps at most a block or two
// in memory.
func optionSets() map[string][]Option {
	return map[string][]Option{
		"resident":     nil,
		"small-blocks": {WithBlockSize(64)},
		"evicting":     {WithBlockSize(64), WithMemoryBudget(128 << 10)},
		"thrashing":    {WithBlockSize(32), WithMemoryBudget(16 << 10)},
	}
}

func TestDecomposeMatchesSequential(t *testing.T) {
	for gname, g := range testGraphs() {
		want := kcore.Decompose(g).CorenessValues()
		for oname, opts := range optionSets() {
			res, err := Decompose(context.Background(), g, opts...)
			if err != nil {
				t.Fatalf("%s/%s: %v", gname, oname, err)
			}
			if !slices.Equal(res.Coreness, want) {
				t.Errorf("%s/%s: coreness mismatch", gname, oname)
			}
		}
	}
}

func TestThrashingBudgetEvicts(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 2000, Exponent: 2.1, MinDeg: 2}, 3)
	res, err := Decompose(context.Background(), g,
		WithBlockSize(64), WithMemoryBudget(16<<10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks < 10 {
		t.Fatalf("expected many blocks, got %d", res.Blocks)
	}
	if res.Cache.Evictions == 0 {
		t.Error("thrashing budget produced no evictions")
	}
	if res.Cache.Misses <= int64(res.Blocks) {
		t.Errorf("expected reloads beyond the init sweep: misses=%d blocks=%d",
			res.Cache.Misses, res.Blocks)
	}
	if res.Cache.SpillBytesWritten == 0 || res.Cache.SpillBytesRead == 0 {
		t.Errorf("spill traffic not counted: %+v", res.Cache)
	}
	if res.BlockStoreBytes == 0 {
		t.Error("block store footprint not reported")
	}
	want := kcore.Decompose(g).CorenessValues()
	if !slices.Equal(res.Coreness, want) {
		t.Error("coreness mismatch under thrashing budget")
	}
}

func TestGenerousBudgetNeverEvicts(t *testing.T) {
	g := gen.GNM(500, 2000, 1)
	res, err := Decompose(context.Background(), g, WithBlockSize(64))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.Evictions != 0 {
		t.Errorf("default budget evicted %d blocks on a tiny graph", res.Cache.Evictions)
	}
	if res.Cache.Misses != 0 || res.Cache.SpillBytesRead != 0 {
		t.Errorf("misses=%d, %d bytes read back: every block fits, so none should be",
			res.Cache.Misses, res.Cache.SpillBytesRead)
	}
}

// decodedBytes is what WithMemoryBudget charges to hold every block of
// g cut into per-node blocks at once: 8 bytes per offset and arc.
func decodedBytes(g *graph.Graph, per int) int64 {
	blocks := (g.NumNodes() + per - 1) / per
	return 8 * int64(g.NumNodes()+blocks+g.NumArcs())
}

// TestFittingBlocksStayResident: a block the spill pass keeps is never
// read back. At a budget that holds the whole graph, nothing misses and
// nothing is read; at seven eighths of it, every kept block is a hit on
// its first pass and fewer bytes are read than the store holds, which a
// run that reads every block back at least once can never do.
func TestFittingBlocksStayResident(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 2000, Exponent: 2.1, MinDeg: 2}, 3)
	want := kcore.Decompose(g).CorenessValues()
	const per = 64
	whole := decodedBytes(g, per)

	res, err := Decompose(context.Background(), g, WithBlockSize(per), WithMemoryBudget(whole))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Coreness, want) {
		t.Error("whole budget: coreness differs from the sequential oracle")
	}
	cs := res.Cache
	if cs.Misses != 0 || cs.SpillBytesRead != 0 || cs.Evictions != 0 {
		t.Errorf("whole budget: %d misses, %d bytes read, %d evictions, want none", cs.Misses, cs.SpillBytesRead, cs.Evictions)
	}
	if cs.PeakResidentBytes > whole {
		t.Errorf("whole budget: peak %d resident bytes over the %d-byte budget", cs.PeakResidentBytes, whole)
	}
	if cs.Hits != int64(res.Passes) {
		t.Errorf("whole budget: %d hits over %d passes, want one per pass", cs.Hits, res.Passes)
	}

	// Seven eighths of it: drive the scheduler by hand to see each
	// block's first pass.
	e := newEngine(g, per, NewStoreFS(t.TempDir(), chaos.OS{}), 7*whole/8)
	if err := e.spill(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	storeBytes := e.stats.SpillBytesWritten
	kept := make(map[int]bool)
	for id := range e.cache.resident {
		kept[id] = true
	}
	if len(kept) == 0 || len(kept) == e.blocks {
		t.Fatalf("partial budget: spill kept %d of %d blocks, want some", len(kept), e.blocks)
	}
	seen, keptHits := make(map[int]bool), 0
	for {
		id, ok := e.pick()
		if !ok {
			break
		}
		misses := e.stats.Misses
		if err := e.process(context.Background(), id); err != nil {
			t.Fatal(err)
		}
		if kept[id] && !seen[id] {
			if e.stats.Misses != misses {
				t.Errorf("partial budget: kept block %d missed on its first pass", id)
			}
			keptHits++
		}
		seen[id] = true
	}
	if !slices.EqualFunc(e.est, want, func(k int32, w int) bool { return int(k) == w }) {
		t.Error("partial budget: coreness differs from the sequential oracle")
	}
	if keptHits == 0 {
		t.Error("partial budget: no kept block was ever processed")
	}
	if e.stats.SpillBytesRead == 0 || e.stats.SpillBytesRead >= storeBytes {
		t.Errorf("partial budget: read %d bytes of a %d-byte store, want some but fewer", e.stats.SpillBytesRead, storeBytes)
	}
	t.Logf("partial budget: kept %d of %d blocks, %d first passes hit, read %d of %d store bytes",
		len(kept), e.blocks, keptHits, e.stats.SpillBytesRead, storeBytes)
}

func TestSpillDirLifecycle(t *testing.T) {
	root := filepath.Join(t.TempDir(), "spills")
	g := gen.GNM(300, 900, 2)
	if _, err := Decompose(context.Background(), g, WithSpillDir(root), WithBlockSize(64)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatalf("user-supplied spill root should survive the run: %v", err)
	}
	if len(entries) != 0 {
		t.Errorf("run subdirectory not cleaned up: %v", entries)
	}
}

func TestDecomposeOptionValidation(t *testing.T) {
	g := gen.Chain(10)
	if _, err := Decompose(context.Background(), g, WithMemoryBudget(0)); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := Decompose(context.Background(), g, WithBlockSize(-1)); err == nil {
		t.Error("negative block size accepted")
	}
}

func TestDecomposeCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := gen.GNM(500, 2000, 4)
	if _, err := Decompose(ctx, g, WithBlockSize(32)); err == nil {
		t.Error("cancelled context not observed")
	}
}

func TestBlockLargerThanBudgetStillCompletes(t *testing.T) {
	// One block's footprint exceeds the whole budget: the cache must
	// degrade to block-at-a-time rather than fail or live-lock.
	g := gen.Complete(120)
	res, err := Decompose(context.Background(), g, WithBlockSize(60), WithMemoryBudget(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	want := kcore.Decompose(g).CorenessValues()
	if !slices.Equal(res.Coreness, want) {
		t.Error("coreness mismatch with over-budget blocks")
	}
	if res.Cache.PeakResidentBytes <= 1<<10 {
		t.Errorf("peak %d should record the unavoidable overshoot", res.Cache.PeakResidentBytes)
	}
}

// TestLoadChargesDecodedBytes: a block decoded into fresh arrays is
// charged exactly the 8 bytes per decoded offset and arc that
// WithMemoryBudget documents, so the decoder leaves no spare capacity
// the budget does not see. This budget evicts nothing, so no load
// reuses a dropped block's arrays.
func TestLoadChargesDecodedBytes(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 2000, Exponent: 2.1, MinDeg: 2}, 3)
	const per = 64
	e := newEngine(g, per, NewStoreFS(t.TempDir(), chaos.OS{}), 1<<30)
	if err := e.spill(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	// The spill kept every block; empty the cache so each load decodes.
	e.cache = newCache(1<<30, e.stats)
	for id := 0; id < e.blocks; id++ {
		ent, err := e.load(id)
		if err != nil {
			t.Fatal(err)
		}
		if want := 8 * int64(len(ent.off)+len(ent.flat)); ent.bytes != want {
			t.Fatalf("block %d: charged %d bytes for %d offsets and %d arcs, want %d",
				id, ent.bytes, len(ent.off), len(ent.flat), want)
		}
	}
}

// TestLoadReusesDroppedArrays: under a budget below one block every miss
// drops the last block, and a block decoded into the dropped block's
// arrays is charged their whole capacity, as the budget requires.
func TestLoadReusesDroppedArrays(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 2000, Exponent: 2.1, MinDeg: 2}, 3)
	e := newEngine(g, 64, NewStoreFS(t.TempDir(), chaos.OS{}), 1)
	if err := e.spill(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	reused := 0
	var last *entry
	for id := 0; id < e.blocks; id++ {
		ent, err := e.load(id)
		if err != nil {
			t.Fatal(err)
		}
		ent.pinned = false
		if want := 8 * int64(cap(ent.off)+cap(ent.flat)); ent.bytes != want {
			t.Fatalf("block %d: charged %d bytes for capacities %d and %d, want %d",
				id, ent.bytes, cap(ent.off), cap(ent.flat), want)
		}
		if last != nil && cap(last.flat) > 0 && cap(ent.flat) > 0 && &last.flat[:1][0] == &ent.flat[:1][0] {
			reused++
		}
		last = ent
	}
	if e.stats.Evictions != int64(e.blocks-1) {
		t.Errorf("%d evictions over %d loads, want one per load after the first", e.stats.Evictions, e.blocks)
	}
	if reused == 0 {
		t.Error("no load decoded into the dropped block's arrays")
	}
	t.Logf("%d of %d loads reused the dropped block's neighbour array", reused, e.blocks)
}
