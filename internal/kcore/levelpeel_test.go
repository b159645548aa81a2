package kcore_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"dkcore/internal/gen"
	"dkcore/internal/graph"
	"dkcore/internal/kcore"
)

// fuzzMaxNodes caps the fuzzed graphs so each input certifies in
// microseconds and the fuzzer spends its time on shapes, not size.
const fuzzMaxNodes = 64

// decodeCertifyInput turns fuzz bytes into a graph and a claim: data[0]
// picks 0..64 nodes, data[1] 0..3 edits, the next two bytes of each edit
// a node (modulo the node count) and a change of -2..2 to its coreness,
// and each following byte pair one edge (endpoints modulo the node
// count; self-loops dropped). The claim is the coreness with the edits.
func decodeCertifyInput(data []byte) (*graph.Graph, []int) {
	var hdr [2]byte
	copy(hdr[:], data)
	n := int(hdr[0]) % (fuzzMaxNodes + 1)
	edits := data[min(len(data), 2):]
	edits = edits[:min(len(edits), 2*(int(hdr[1])%4))]
	b := graph.NewBuilder(n)
	if n > 0 {
		for i := 2 + len(edits); i+1 < len(data); i += 2 {
			b.AddEdge(int(data[i])%n, int(data[i+1])%n)
		}
	}
	g := b.Build()
	claim := kcore.Decompose(g).CorenessValues()
	for i := 0; n > 0 && i+1 < len(edits); i += 2 {
		claim[int(edits[i])%n] += int(int8(edits[i+1])) % 3
	}
	return g, claim
}

// encodeCertifyInput is decodeCertifyInput's inverse for seeding: the
// edges of g among its first fuzzMaxNodes nodes, after the edits given
// as (node, change) pairs.
func encodeCertifyInput(g *graph.Graph, edits ...int) []byte {
	n := min(g.NumNodes(), fuzzMaxNodes)
	data := []byte{byte(n), byte(len(edits) / 2)}
	for _, e := range edits {
		data = append(data, byte(e))
	}
	g.Edges(func(u, v int) bool {
		if u < n && v < n {
			data = append(data, byte(u), byte(v))
		}
		return true
	})
	return data
}

// certifyOn runs Certify's peel on w workers, node u on worker u mod w.
func certifyOn(g *graph.Graph, claim []int, w int) error {
	lp, err := kcore.NewLevelPeel(g, w, func(u int) int { return u % w })
	if err != nil {
		return err
	}
	defer lp.Close()
	return lp.Run(context.Background(), claim, math.MaxInt)
}

// FuzzCertify holds Certify to the sequential oracle: it accepts a claim
// if and only if the claim is the coreness, and the error it returns is
// the same at 1, 2 and 8 workers although their cascades interleave
// differently.
func FuzzCertify(f *testing.F) {
	f.Add(encodeCertifyInput(gen.Complete(3), 0, -1, 1, -1, 2, -1))
	f.Add(encodeCertifyInput(gen.Ring(12), 5, -1))
	f.Add(encodeCertifyInput(gen.WorstCase(16), 3, 1))
	f.Add(encodeCertifyInput(gen.Complete(6), 0, -2, 4, 2))
	f.Add(encodeCertifyInput(gen.GNM(40, 120, 3)))
	f.Add(encodeCertifyInput(gen.PowerLaw(gen.PowerLawConfig{N: 64, Exponent: 2.2, MinDeg: 1}, 2), 7, 1, 9, -1))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, claim := decodeCertifyInput(data)
		truth := kcore.Decompose(g).CorenessValues()
		err := kcore.Certify(g, claim)
		if exact := slices.Equal(claim, truth); exact != (err == nil) {
			t.Fatalf("claim %v, coreness %v: Certify returned %v", claim, truth, err)
		}
		if g.NumNodes() == 0 {
			return
		}
		first := certifyOn(g, claim, 1)
		for _, w := range []int{2, 8} {
			if again := certifyOn(g, claim, w); !reflect.DeepEqual(again, first) {
				t.Fatalf("claim %v: %v at %d workers, %v at 1", claim, again, w, first)
			}
		}
	})
}

// settles reports whether the goroutine count falls back to want. A
// worker's last act is to signal the call that waits for it, so its
// exit can trail that call's return by a few instructions; a worker
// still running a second later was left behind.
func settles(want int) bool {
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > want; {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// TestCertifyLeavesNoGoroutine: Certify's workers are gone once it
// returns, whether it accepts or returns either kind of error.
func TestCertifyLeavesNoGoroutine(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 2000, Exponent: 2.2, MinDeg: 2}, 4)
	truth := kcore.Decompose(g).CorenessValues()
	over := slices.Clone(truth)
	over[0] = g.Degree(0) + 1
	var le *kcore.LocalityError
	var lv *kcore.LevelError
	for name, tc := range map[string]struct {
		g     *graph.Graph
		claim []int
		ok    func(error) bool
	}{
		"accept":        {g, truth, func(err error) bool { return err == nil }},
		"LocalityError": {g, over, func(err error) bool { return errors.As(err, &le) }},
		"LevelError":    {gen.Complete(3), []int{1, 1, 1}, func(err error) bool { return errors.As(err, &lv) }},
	} {
		before := runtime.NumGoroutine()
		if err := kcore.Certify(tc.g, tc.claim); !tc.ok(err) {
			t.Fatalf("%s: Certify returned %v", name, err)
		}
		if !settles(before) {
			t.Errorf("%s: %d goroutines after Certify, %d before", name, runtime.NumGoroutine(), before)
		}
	}
}
