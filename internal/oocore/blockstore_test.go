package oocore

import (
	"os"
	"slices"
	"testing"

	"dkcore/internal/core"
	"dkcore/internal/gen"
)

func TestStoreBlockRoundTrip(t *testing.T) {
	st := NewStore(t.TempDir())
	g := gen.PowerLaw(gen.PowerLawConfig{N: 300, Exponent: 2.3, MinDeg: 1}, 8)
	const per = 64
	blocks := (g.NumNodes() + per - 1) / per
	for b := 0; b < blocks; b++ {
		lo := b * per
		hi := min(lo+per, g.NumNodes())
		off := []int{0}
		var flat []int
		for u := lo; u < hi; u++ {
			flat = append(flat, g.Neighbors(u)...)
			off = append(off, len(flat))
		}
		if _, err := st.WriteBlock(b, lo, hi-lo, off, flat); err != nil {
			t.Fatal(err)
		}
		first, gotOff, gotFlat, _, err := st.LoadBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		if first != lo || !slices.Equal(gotOff, off) || !slices.Equal(gotFlat, flat) {
			t.Fatalf("block %d did not round-trip", b)
		}
	}
	total, err := st.BlockStoreBytes()
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Error("block store reports zero bytes after writes")
	}
}

func TestStoreLoadBlockDetectsCorruption(t *testing.T) {
	st := NewStore(t.TempDir())
	off := []int{0, 3, 5}
	flat := []int{1, 7, 9, 0, 4}
	if _, err := st.WriteBlock(0, 0, 2, off, flat); err != nil {
		t.Fatal(err)
	}
	path := st.blockPath(0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := st.LoadBlock(0); err == nil {
		t.Error("corrupted block loaded without error")
	}
}

func TestStoreLoadBlockDetectsWrongID(t *testing.T) {
	st := NewStore(t.TempDir())
	if _, err := st.WriteBlock(3, 96, 1, []int{0, 1}, []int{2}); err != nil {
		t.Fatal(err)
	}
	// Simulate a misplaced file: block 3's bytes under block 4's name.
	data, err := os.ReadFile(st.blockPath(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.blockPath(4), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := st.LoadBlock(4); err == nil {
		t.Error("block header naming another ID loaded without error")
	}
}

func TestStoreCheckpointRoundTrip(t *testing.T) {
	st := NewStore(t.TempDir())
	if _, _, ok, err := st.LoadCheckpoint(2); err != nil || ok {
		t.Fatalf("missing checkpoint should be (ok=false, nil), got ok=%v err=%v", ok, err)
	}
	ckpt := core.Batch{{Node: 128, Core: 4}, {Node: 129, Core: 0}, {Node: 7, Core: 17}}
	if _, err := st.WriteCheckpoint(2, ckpt); err != nil {
		t.Fatal(err)
	}
	got, _, ok, err := st.LoadCheckpoint(2)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	// The batch codec sorts by node ID.
	want := core.Batch{{Node: 7, Core: 17}, {Node: 128, Core: 4}, {Node: 129, Core: 0}}
	if !slices.Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	// Overwrite replaces, not appends.
	if _, err := st.WriteCheckpoint(2, core.Batch{{Node: 9, Core: 9}}); err != nil {
		t.Fatal(err)
	}
	got, _, _, err = st.LoadCheckpoint(2)
	if err != nil || !slices.Equal(got, core.Batch{{Node: 9, Core: 9}}) {
		t.Fatalf("overwrite: got %v err=%v", got, err)
	}
}
