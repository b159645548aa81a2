package oocore

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dkcore/internal/chaos"
	"dkcore/internal/gen"
	"dkcore/internal/kcore"
)

// TestTornBlockRenameFailsCleanly tears renames of .blk files — the
// on-disk picture of a non-atomic filesystem dying between write and
// rename. Block files are the engine's only copy of the adjacency, so a
// torn one cannot be healed: every run must end either in the oracle's
// coreness or in an error wrapping ErrCorrupt or chaos.ErrInjected,
// never in a wrong answer or a panic.
func TestTornBlockRenameFailsCleanly(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 1500, Exponent: 2.2, MinDeg: 2}, 17)
	want := kcore.Decompose(g).CorenessValues()
	torn := false
	for seed := int64(1); seed <= 6; seed++ {
		in := chaos.NewInjector(seed, 4)
		fs := in.WrapFS(chaos.OS{}, "oocore", chaos.FSPlan{
			TornRenameProb:  0.3,
			TornRenameMatch: ".blk",
		})
		res, err := Decompose(context.Background(), g,
			WithBlockSize(64), WithMemoryBudget(16<<10), WithFS(fs))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, chaos.ErrInjected) {
				t.Fatalf("seed %d: unstructured failure %v\nfault log:\n%s", seed, err, in.LogString())
			}
			torn = torn || len(in.Events()) > 0
			continue
		}
		if !slices.Equal(res.Coreness, want) {
			t.Fatalf("seed %d: coreness mismatch\nfault log:\n%s", seed, in.LogString())
		}
	}
	if !torn {
		t.Fatal("no seed tore a block file; the scenario exercised nothing")
	}
}

// TestInjectedWriteErrorFailsCleanly: a persistent EIO is not
// recoverable and must surface as a structured error, not a hang or a
// wrong answer.
func TestInjectedWriteErrorFailsCleanly(t *testing.T) {
	g := gen.GNM(400, 1600, 3)
	in := chaos.NewInjector(2, 64)
	fs := in.WrapFS(chaos.OS{}, "oocore", chaos.FSPlan{ErrProb: 1.0})
	_, err := Decompose(context.Background(), g, WithBlockSize(64), WithFS(fs))
	if err == nil {
		t.Fatal("EIO on every open reported success")
	}
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("error should carry the injected cause, got %v", err)
	}
}

// TestCrashAtByteNThenRestart kills the filesystem halfway through the
// spill — the crash offset is half the block store a clean run writes —
// then reruns over the same directory root with a healthy filesystem:
// the "restart". The crashed run must fail with the structured crash
// error, and the restart must be untainted by whatever the crash left
// behind.
func TestCrashAtByteNThenRestart(t *testing.T) {
	root := filepath.Join(t.TempDir(), "spills")
	g := gen.GNM(600, 2400, 5)
	opts := []Option{WithBlockSize(64), WithMemoryBudget(16 << 10), WithSpillDir(root)}
	clean, err := Decompose(context.Background(), g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	in := chaos.NewInjector(3, 8)
	fs := in.WrapFS(chaos.OS{}, "oocore", chaos.FSPlan{CrashAfterBytes: clean.BlockStoreBytes / 2})
	_, err = Decompose(context.Background(), g, append(opts, WithFS(fs))...)
	if !errors.Is(err, chaos.ErrCrashed) {
		t.Fatalf("crashed run returned %v, want ErrCrashed", err)
	}
	res, err := Decompose(context.Background(), g, opts...)
	if err != nil {
		t.Fatalf("restart after crash: %v", err)
	}
	want := kcore.Decompose(g).CorenessValues()
	if !slices.Equal(res.Coreness, want) {
		t.Fatal("coreness mismatch on restart after crash")
	}
}

// TestSweepQuarantinesTornFiles plants one valid and one torn file of
// each kind in a spill directory plus a stray .tmp, and checks Sweep
// quarantines exactly the torn ones.
func TestSweepQuarantinesTornFiles(t *testing.T) {
	dir := t.TempDir()
	st := NewStore(dir)
	if _, err := st.WriteBlock(0, 0, 2, []int{0, 1, 2}, []int{1, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.WriteBlock(1, 2, 2, []int{0, 1, 2}, []int{3, 2}); err != nil {
		t.Fatal(err)
	}
	// Tear block 1 by truncating it.
	blk1 := filepath.Join(dir, "block-000001.blk")
	data, err := os.ReadFile(blk1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(blk1, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// A torn checkpoint and a stray tmp.
	if err := os.WriteFile(filepath.Join(dir, "block-000000.est"), []byte("DKE1garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "block-000002.blk.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	quarantined, err := st.Sweep()
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	slices.Sort(quarantined)
	want := []string{"block-000000.est", "block-000001.blk"}
	if !slices.Equal(quarantined, want) {
		t.Fatalf("quarantined %v, want %v", quarantined, want)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	slices.Sort(names)
	for _, n := range names {
		if strings.HasSuffix(n, ".tmp") {
			t.Fatalf("stray tmp survived the sweep: %v", names)
		}
	}
	wantNames := []string{"block-000000.est.torn", "block-000001.blk.torn", "block-000000.blk"}
	for _, w := range wantNames {
		if !slices.Contains(names, w) {
			t.Fatalf("missing %s after sweep: %v", w, names)
		}
	}
	// The healthy block still loads; the torn one is now a clean miss.
	if _, _, _, _, err := st.LoadBlock(0); err != nil {
		t.Fatalf("healthy block after sweep: %v", err)
	}
	if _, _, _, _, err := st.LoadBlock(1); !os.IsNotExist(errors.Unwrap(err)) {
		t.Fatalf("torn block should be a clean miss, got %v", err)
	}
}

// TestWriteCheckpointAtomic corrupts nothing but checks the atomic
// write contract directly: after a WriteCheckpoint the directory holds
// no .tmp residue and the file round-trips.
func TestWriteCheckpointAtomic(t *testing.T) {
	dir := t.TempDir()
	st := NewStore(dir)
	if _, err := st.WriteCheckpoint(4, nil); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "block-000004.est" {
		t.Fatalf("unexpected directory contents: %v", entries)
	}
	if _, _, ok, err := st.LoadCheckpoint(4); err != nil || !ok {
		t.Fatalf("checkpoint round trip: ok=%v err=%v", ok, err)
	}
}
