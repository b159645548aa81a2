package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dkcore/internal/gen"
	"dkcore/internal/graph"
)

// TestComputeIndexScratchSmallerThanBound is the regression test for the
// scratch hazard: callers size count by their degree while the bound k
// can arrive from an external estimate, and slicing count[:k+1] past the
// scratch's capacity panicked. ComputeIndex must grow defensively and
// still compute the right answer.
func TestComputeIndexScratchSmallerThanBound(t *testing.T) {
	est := []int{InfEstimate, InfEstimate, InfEstimate}
	for _, scratch := range [][]int{nil, make([]int, 0, 2), make([]int, 2)} {
		if got := ComputeIndex(est, 3, scratch); got != 3 {
			t.Fatalf("ComputeIndex with undersized scratch (cap %d) = %d, want 3", cap(scratch), got)
		}
	}
	// A bound far beyond the scratch must also survive, saturating as
	// always at the estimate count.
	if got := ComputeIndex([]int{1, 1}, 1000, make([]int, 4)); got != 1 {
		t.Fatalf("oversized bound: got %d, want 1", got)
	}
}

// TestRefinerMatchesComputeIndex drives a Refiner through random drop
// sequences — including drops from InfEstimate, drops to 0, and
// repeated drops of the same neighbor — asserting after every step that
// its estimate equals ComputeIndex over the raw estimate vector with the
// same running bound, then does the same through NodeState.Deliver. This
// is the per-node machine's differential harness; the HostState-level
// one lives in TestHostStateOracleLockstep.
func TestRefinerMatchesComputeIndex(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		deg := rng.Intn(12)
		est := make([]int, deg)
		for i := range est {
			if rng.Intn(3) == 0 {
				est[i] = InfEstimate
			} else {
				est[i] = rng.Intn(deg + 2)
			}
		}
		var ref Refiner
		ref.Rebuild(deg, est)
		// Rebuild does not refine; callers whose estimate vector may
		// already sit below the fixpoint settle it explicitly (the
		// engines start at all-∞ support and never need this).
		if ref.Deficient() {
			ref.Refine()
		}
		if want := ComputeIndex(est, deg, nil); deg > 0 && ref.K() != want {
			t.Fatalf("seed %d: after rebuild: refiner %d, ComputeIndex %d (est %v)", seed, ref.K(), want, est)
		}
		k := ref.K()
		for step := 0; step < 60; step++ {
			// Pick a neighbor whose estimate can still drop.
			if deg == 0 {
				break
			}
			i := rng.Intn(deg)
			if est[i] <= 0 {
				continue
			}
			drop := 1 + rng.Intn(4)
			b := est[i] - drop
			if est[i] == InfEstimate {
				b = rng.Intn(deg + 2)
			}
			if b < 0 {
				b = 0
			}
			old := est[i]
			est[i] = b
			if ref.Lower(old, b) {
				ref.Refine()
			}
			want := ComputeIndex(est, k, nil)
			if k <= 0 {
				want = k
			}
			if ref.K() != want {
				t.Fatalf("seed %d step %d: refiner %d, ComputeIndex %d (est %v, bound %d)",
					seed, step, ref.K(), want, est, k)
			}
			k = ref.K()
		}

		// The same harness over the per-node machine that owns a Refiner
		// in every one-process-per-node engine: random ⟨from, k⟩
		// deliveries — improving, stale, and from strangers — after each
		// of which the node's estimate must equal ComputeIndex over its
		// estimate vector under the previous bound, and never rise.
		neighbors := make([]int, deg)
		for i := range neighbors {
			neighbors[i] = 3*i + 1 // sorted, with gaps for non-neighbors
		}
		st := NewNodeState(neighbors)
		for step := 0; step < 80; step++ {
			from, val := rng.Intn(3*deg+2), rng.Intn(deg+2)
			prev := st.Core()
			lowered := st.Deliver(from, val)
			if want := ComputeIndex(st.est, prev, nil); st.Core() != want {
				t.Fatalf("seed %d step %d: NodeState %d after ⟨%d,%d⟩, ComputeIndex %d (est %v, bound %d)",
					seed, step, st.Core(), from, val, want, st.est, prev)
			}
			if st.Core() > prev || lowered != (st.Core() < prev) {
				t.Fatalf("seed %d step %d: estimate %d -> %d, lowered=%v", seed, step, prev, st.Core(), lowered)
			}
			if i, ok := slices.BinarySearch(neighbors, from); ok && st.est[i] > val {
				t.Fatalf("seed %d step %d: est[%d] = %d after hearing %d", seed, step, i, st.est[i], val)
			}
		}
	}
}

// diffPool returns the ~50-graph pool the incremental-vs-oracle lockstep
// runs on: random families across densities, heavy tails, and the
// structured shapes that stress k=0 isolated nodes, k=1 chains, and
// InfEstimate saturation on first contact.
func diffPool() []struct {
	name string
	g    *graph.Graph
} {
	type tc = struct {
		name string
		g    *graph.Graph
	}
	var cases []tc
	for seed := int64(1); seed <= 12; seed++ {
		n := 40 + 10*int(seed%5)
		cases = append(cases, tc{fmt.Sprintf("gnm/s%d", seed), gen.GNM(n, int(seed)*n/2, seed)})
	}
	for seed := int64(1); seed <= 10; seed++ {
		cases = append(cases, tc{fmt.Sprintf("gnp/s%d", seed), gen.GNP(60, 0.02*float64(seed%8+1), seed)})
	}
	for seed := int64(1); seed <= 12; seed++ {
		cases = append(cases, tc{fmt.Sprintf("ba/s%d", seed), gen.BarabasiAlbert(70, 1+int(seed%4), seed)})
	}
	for seed := int64(1); seed <= 6; seed++ {
		cases = append(cases, tc{fmt.Sprintf("powerlaw/s%d", seed),
			gen.PowerLaw(gen.PowerLawConfig{N: 80, Exponent: 2.3, MinDeg: 1}, seed)})
	}
	cases = append(cases,
		tc{"chain", gen.Chain(30)},         // every coreness exactly 1
		tc{"grid", gen.Grid(7, 8)},         // plateau of 2s
		tc{"complete", gen.Complete(12)},   // single dense plateau
		tc{"worstcase", gen.WorstCase(16)}, // longest dependency chain
		tc{"star", gen.GNM(1, 0, 1)},       // single isolated node, k=0
		tc{"empty", gen.GNM(25, 0, 1)},     // all isolated, k=0
		tc{"two-edges", gen.Chain(3)},      // k=1 with a 2-path
		tc{"ws", gen.WattsStrogatz(48, 4, 0.2, 3)},
		tc{"torus", gen.Torus(6, 6)},
		tc{"caveman", gen.Caveman(5, 6)},
	)
	return cases
}

// lockstepHosts builds one incremental and one oracle HostState set over
// the same partitions.
func lockstepHosts(g *graph.Graph, hosts int) (inc, orc []*HostState, err error) {
	parts, err := PartitionAll(g, ModuloAssignment{H: hosts})
	if err != nil {
		return nil, nil, err
	}
	inc = make([]*HostState, hosts)
	orc = make([]*HostState, hosts)
	for x := 0; x < hosts; x++ {
		inc[x] = parts.NewPartitionState(x)
		orc[x] = parts.NewPartitionState(x)
		orc[x].SetOracleRefine(true)
	}
	return inc, orc, nil
}

// compareStates fails the test at the first estimate where the
// incremental host diverges from its oracle twin. Both owned and
// external (mirrored) estimates are compared — a histogram bug that only
// corrupts the view of a remote node must surface too.
func compareStates(t *testing.T, name string, step string, g *graph.Graph, inc, orc []*HostState) {
	t.Helper()
	for x := range inc {
		for u := 0; u < g.NumNodes(); u++ {
			ie, iok := inc[x].Estimate(u)
			oe, ook := orc[x].Estimate(u)
			if iok != ook || ie != oe {
				t.Fatalf("%s %s: host %d node %d: incremental (%d,%v) vs oracle (%d,%v)",
					name, step, x, u, ie, iok, oe, ook)
			}
		}
	}
}

// TestHostStateOracleLockstep is the 50-graph differential leg: on every
// pool graph, the incremental support-counter hosts and the retained
// O(deg) ComputeIndex oracle hosts run the same BSP schedule — identical
// batches in the same order — and every tracked estimate is compared
// after every Apply/Improve cascade step of every round, through
// InfEstimate saturation on round 0 and down to the k=0/1 floors. It
// runs at 4 hosts and at 70, past the 64 host IDs one bitmask word
// holds.
func TestHostStateOracleLockstep(t *testing.T) {
	pool := diffPool()
	if len(pool) < 50 {
		t.Fatalf("pool has %d graphs, want >= 50", len(pool))
	}
	for _, hosts := range []int{4, 70} {
		for _, tc := range pool {
			lockstepRun(t, tc.name, tc.g, hosts)
		}
	}
}

// lockstepRun drives one graph's incremental and oracle hosts through
// the same BSP schedule, comparing after every cascade step.
func lockstepRun(t *testing.T, name string, g *graph.Graph, hosts int) {
	t.Helper()
	name = fmt.Sprintf("%s/H=%d", name, hosts)
	inc, orc, err := lockstepHosts(g, hosts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for x := 0; x < hosts; x++ {
		inc[x].InitEstimates()
		orc[x].InitEstimates()
	}
	compareStates(t, name, "init", g, inc, orc)

	inbox := make([][]Batch, hosts)
	for round := 0; round < 8*(g.NumNodes()+1); round++ {
		active := false
		for x := 0; x < hosts; x++ {
			// The oracle's batches drive both sides so the schedules
			// cannot drift; the incremental side must emit the same
			// batches, which the estimate comparison below implies.
			ob := orc[x].CollectPointToPoint()
			ib := inc[x].CollectPointToPoint()
			if len(ob) != len(ib) {
				t.Fatalf("%s round %d host %d: %d oracle batches vs %d incremental",
					name, round, x, len(ob), len(ib))
			}
			for dest, batch := range ob {
				// Copy: collected batches alias double-buffered
				// storage, and this harness holds them across the
				// destination's own collect.
				cp := append(Batch(nil), batch...)
				inbox[dest] = append(inbox[dest], cp)
				active = true
			}
		}
		if !active {
			return
		}
		for x := 0; x < hosts; x++ {
			for _, b := range inbox[x] {
				inc[x].Apply(b)
				orc[x].Apply(b)
				inc[x].ImproveIfDirty()
				orc[x].ImproveIfDirty()
				compareStates(t, name, fmt.Sprintf("round %d", round), g, inc, orc)
			}
			inbox[x] = inbox[x][:0]
		}
	}
}

// FuzzHostStateDifferential feeds arbitrary batches — stray nodes,
// zero and negative cores, InfEstimate, repeated entries — to an
// incremental host and its oracle twin, asserting estimate equality
// after every cascade. The graph itself is derived from the fuzz input
// so topology and traffic are fuzzed together.
func FuzzHostStateDifferential(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{0, 1, 2, 3})
	f.Add([]byte{0, 0, 1, 1, 2, 2}, []byte{255, 255, 0, 0})
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, []byte{10, 0, 11, 1, 12, 2})
	// Traffic naming nodes n and n+1, just past the graph: the dense
	// translation table must bounds-check them.
	f.Add([]byte{0, 1, 1, 2, 2, 0, 3, 4}, []byte{16, 0, 17, 3, 16, 4, 17, 2, 0, 0})
	f.Add([]byte{15, 14, 14, 13, 13, 15}, []byte{17, 1, 16, 1, 15, 0})
	f.Fuzz(func(t *testing.T, edges []byte, traffic []byte) {
		const n = 16
		b := graph.NewBuilder(n)
		for i := 0; i+1 < len(edges); i += 2 {
			u, v := int(edges[i])%n, int(edges[i+1])%n
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Build()
		inc, orc, err := lockstepHosts(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		for x := 0; x < 2; x++ {
			inc[x].InitEstimates()
			orc[x].InitEstimates()
		}
		for i := 0; i+1 < len(traffic); i += 2 {
			node := int(traffic[i]) % (n + 2) // may name untracked nodes
			var core int
			switch traffic[i+1] % 5 {
			case 0:
				core = 0
			case 1:
				core = InfEstimate
			case 2:
				core = -1
			default:
				core = int(traffic[i+1]) % 8
			}
			batch := Batch{{Node: node, Core: core}}
			x := i / 2 % 2
			inc[x].Apply(batch)
			orc[x].Apply(batch)
			inc[x].ImproveIfDirty()
			orc[x].ImproveIfDirty()
			for u := 0; u < n; u++ {
				ie, iok := inc[x].Estimate(u)
				oe, ook := orc[x].Estimate(u)
				if iok != ook || ie != oe {
					t.Fatalf("step %d host %d node %d: incremental (%d,%v) vs oracle (%d,%v)",
						i, x, u, ie, iok, oe, ook)
				}
			}
		}
	})
}
