package dkcore_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"dkcore"
)

// fig2 is the paper's §3.1.1 example graph (0-based).
func fig2() *dkcore.Graph {
	return dkcore.FromEdges(6, [][2]int{
		{0, 1}, {1, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 4}, {4, 5},
	})
}

// engineOptsFor returns options that exercise each kind's sharding knobs
// on g in tests while keeping runs small.
func engineOptsFor(kind dkcore.EngineKind, g *dkcore.Graph) []dkcore.EngineOption {
	switch kind {
	case dkcore.OneToMany:
		return []dkcore.EngineOption{dkcore.Hosts(3), dkcore.DisseminationPolicy(dkcore.PointToPoint)}
	case dkcore.Parallel:
		return []dkcore.EngineOption{dkcore.Workers(4)}
	case dkcore.Cluster:
		return []dkcore.EngineOption{dkcore.Hosts(2)}
	case dkcore.OutOfCore:
		return spillOpts(g, 16)
	default:
		return nil
	}
}

// spillOpts returns out-of-core options of blockSize-node blocks and a
// budget of a quarter of g's decoded blocks (8 bytes per offset and per
// arc), so that on a graph of more than one block the spill keeps at
// most a quarter of it resident and a run that makes a pass reads blocks
// back: each test leg sized here reaches the load path.
func spillOpts(g *dkcore.Graph, blockSize int) []dkcore.EngineOption {
	blocks := (g.NumNodes() + blockSize - 1) / blockSize
	decoded := 8 * int64(g.NumNodes()+blocks+g.NumArcs())
	return []dkcore.EngineOption{dkcore.WithBlockSize(blockSize), dkcore.WithMemoryBudget(max(decoded/4, 1))}
}

func TestEngineKindNamesRoundTrip(t *testing.T) {
	kinds := dkcore.EngineKinds()
	if len(kinds) != 8 {
		t.Fatalf("got %d engine kinds, want 8", len(kinds))
	}
	for _, kind := range kinds {
		got, err := dkcore.ParseEngineKind(kind.String())
		if err != nil {
			t.Fatalf("ParseEngineKind(%q): %v", kind.String(), err)
		}
		if got != kind {
			t.Fatalf("ParseEngineKind(%q) = %v, want %v", kind.String(), got, kind)
		}
		if kind.Description() == "" || strings.Contains(kind.Description(), "unknown") {
			t.Fatalf("kind %v has no description", kind)
		}
	}
	if k, err := dkcore.ParseEngineKind("seq"); err != nil || k != dkcore.Sequential {
		t.Fatalf("legacy alias seq: kind %v, err %v", k, err)
	}
	if _, err := dkcore.ParseEngineKind("nope"); err == nil {
		t.Fatalf("unknown kind name accepted")
	}
	if s := dkcore.EngineKind(99).String(); !strings.Contains(s, "99") {
		t.Fatalf("stringer for invalid kind = %q", s)
	}
}

func TestEngineRunAllKinds(t *testing.T) {
	g := fig2()
	want := dkcore.Decompose(g).CorenessValues()
	for _, kind := range dkcore.EngineKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			eng, err := dkcore.NewEngine(kind, engineOptsFor(kind, g)...)
			if err != nil {
				t.Fatal(err)
			}
			if eng.Kind() != kind {
				t.Fatalf("Kind() = %v, want %v", eng.Kind(), kind)
			}
			rep, err := eng.Run(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Kind != kind {
				t.Fatalf("report kind %v, want %v", rep.Kind, kind)
			}
			if rep.WallTime <= 0 {
				t.Fatalf("report has no wall time")
			}
			for u := range want {
				if rep.Coreness[u] != want[u] {
					t.Fatalf("node %d: coreness %d, want %d", u, rep.Coreness[u], want[u])
				}
			}
		})
	}
}

// reportMetrics names the Report metric fields that are non-zero, in
// declaration order.
func reportMetrics(rep *dkcore.Report) string {
	var set []string
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"Rounds", rep.Rounds != 0},
		{"ExecutionTime", rep.ExecutionTime != 0},
		{"TotalMessages", rep.TotalMessages != 0},
		{"MessagesPerProc", len(rep.MessagesPerProc) != 0},
		{"EstimatesSent", rep.EstimatesSent != 0},
		{"Batches", rep.Batches != 0},
		{"Workers", rep.Workers != 0},
		{"Hosts", len(rep.Hosts) != 0},
		{"SpillBytesWritten", rep.SpillBytesWritten != 0},
		{"SpillBytesRead", rep.SpillBytesRead != 0},
		{"AvgErrorTrace", len(rep.AvgErrorTrace) != 0},
		{"MaxErrorTrace", len(rep.MaxErrorTrace) != 0},
	} {
		if f.set {
			set = append(set, f.name)
		}
	}
	return strings.Join(set, " ")
}

// TestEngineReportMetrics pins which Report metric fields each kind
// fills on a non-trivial graph, so the field docs on Report and the
// per-kind run functions cannot drift apart: every field a doc names for
// a kind is non-zero, and every other metric field stays zero.
func TestEngineReportMetrics(t *testing.T) {
	g := dkcore.GenerateGNM(200, 800, 5)
	truth := dkcore.Decompose(g).CorenessValues()
	const simulated = "Rounds ExecutionTime TotalMessages MessagesPerProc"
	tests := []struct {
		name string
		kind dkcore.EngineKind
		opts []dkcore.EngineOption
		want string
	}{
		{"sequential", dkcore.Sequential, nil, ""},
		{"one2one", dkcore.OneToOne, nil, simulated},
		{"one2one/ground-truth", dkcore.OneToOne, []dkcore.EngineOption{dkcore.GroundTruth(truth)},
			simulated + " AvgErrorTrace MaxErrorTrace"},
		{"one2many", dkcore.OneToMany, engineOptsFor(dkcore.OneToMany, g),
			simulated + " EstimatesSent Workers"},
		{"live", dkcore.Live, nil, "TotalMessages"},
		{"live/max-rounds", dkcore.Live, []dkcore.EngineOption{dkcore.MaxRounds(g.NumNodes())},
			"Rounds TotalMessages"},
		{"live-epidemic", dkcore.LiveEpidemic, nil, "Rounds TotalMessages"},
		{"parallel", dkcore.Parallel, engineOptsFor(dkcore.Parallel, g),
			"Rounds EstimatesSent Batches Workers"},
		{"cluster", dkcore.Cluster, engineOptsFor(dkcore.Cluster, g),
			"Rounds TotalMessages EstimatesSent Workers Hosts"},
		// A budget under the graph's ~14 KiB of decoded blocks, so that
		// some blocks are read back.
		{"oocore", dkcore.OutOfCore, append(engineOptsFor(dkcore.OutOfCore, g), dkcore.WithMemoryBudget(4<<10)),
			"Rounds EstimatesSent Batches Workers SpillBytesWritten SpillBytesRead"},
	}
	covered := make(map[dkcore.EngineKind]bool)
	for _, tt := range tests {
		covered[tt.kind] = true
		t.Run(tt.name, func(t *testing.T) {
			rep := runEngine(t, g, tt.kind, tt.opts...)
			if got := reportMetrics(rep); got != tt.want {
				t.Fatalf("non-zero Report metrics = %q, want %q", got, tt.want)
			}
		})
	}
	for _, kind := range dkcore.EngineKinds() {
		if !covered[kind] {
			t.Errorf("kind %s has no row in the Report metrics table", kind)
		}
	}
}

// TestEngineShardedKindsDegenerateGraphs pins down the zero-partition
// edge cases for the sharded kinds: an empty graph resolves to zero
// partitions under Parallel's worker cap and a single-node graph leaves
// most Cluster hosts with empty partitions. Both must return promptly
// with exact (trivial) coreness — the same failure class as the
// empty-graph divide-by-zero once fixed in the live runtime, so each run
// is bounded by a deadline that turns a hang into a test failure.
func TestEngineShardedKindsDegenerateGraphs(t *testing.T) {
	graphs := []struct {
		name string
		g    *dkcore.Graph
	}{
		{"empty", dkcore.FromEdges(0, nil)},
		{"single-node", dkcore.FromEdges(1, nil)},
		{"single-edge", dkcore.FromEdges(2, [][2]int{{0, 1}})},
	}
	for _, kind := range []dkcore.EngineKind{dkcore.Parallel, dkcore.Cluster, dkcore.OutOfCore} {
		for _, tc := range graphs {
			kind, tc := kind, tc
			t.Run(kind.String()+"/"+tc.name, func(t *testing.T) {
				t.Parallel()
				eng, err := dkcore.NewEngine(kind, engineOptsFor(kind, tc.g)...)
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				rep, err := eng.Run(ctx, tc.g)
				if err != nil {
					t.Fatal(err)
				}
				want := dkcore.Decompose(tc.g).CorenessValues()
				if len(rep.Coreness) != len(want) {
					t.Fatalf("%d coreness entries, want %d", len(rep.Coreness), len(want))
				}
				for u := range want {
					if rep.Coreness[u] != want[u] {
						t.Fatalf("node %d: coreness %d, want %d", u, rep.Coreness[u], want[u])
					}
				}
			})
		}
	}
}

func TestEngineRunNilGraph(t *testing.T) {
	eng, err := dkcore.NewEngine(dkcore.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), nil); err == nil {
		t.Fatalf("nil graph accepted")
	}
}

// TestEngineOptionKindMismatch checks that every option is rejected by a
// kind outside its applicability set with an error naming both sides.
func TestEngineOptionKindMismatch(t *testing.T) {
	tests := []struct {
		kind   dkcore.EngineKind
		opt    dkcore.EngineOption
		optStr string
	}{
		{dkcore.Sequential, dkcore.Seed(1), "Seed"},
		{dkcore.Sequential, dkcore.MaxRounds(5), "MaxRounds"},
		{dkcore.Parallel, dkcore.Delivery(dkcore.DeliverNextRound), "Delivery"},
		{dkcore.Parallel, dkcore.Seed(3), "Seed"},
		{dkcore.OneToMany, dkcore.SendOptimization(true), "SendOptimization"},
		{dkcore.OneToOne, dkcore.DisseminationPolicy(dkcore.PointToPoint), "DisseminationPolicy"},
		{dkcore.Live, dkcore.GroundTruth([]int{0}), "GroundTruth"},
		{dkcore.Cluster, dkcore.Snapshot(func(int, []int) {}), "Snapshot"},
		{dkcore.OneToMany, dkcore.Loss(0.5), "Loss"},
		{dkcore.Live, dkcore.RetransmitEvery(2), "RetransmitEvery"},
		{dkcore.Cluster, dkcore.PartitionBy(dkcore.ModuloAssignment{H: 2}), "PartitionBy"},
		{dkcore.OneToOne, dkcore.Workers(2), "Workers"},
		{dkcore.Parallel, dkcore.Hosts(2), "Hosts"},
		{dkcore.Live, dkcore.QuietWindow(5), "QuietWindow"},
		{dkcore.OneToMany, dkcore.ListenOn("127.0.0.1:0"), "ListenOn"},
		{dkcore.Cluster, dkcore.WithMemoryBudget(1 << 20), "WithMemoryBudget"},
		{dkcore.Parallel, dkcore.WithSpillDir("/tmp"), "WithSpillDir"},
		{dkcore.Sequential, dkcore.WithBlockSize(64), "WithBlockSize"},
	}
	for _, tt := range tests {
		t.Run(tt.kind.String()+"/"+tt.optStr, func(t *testing.T) {
			_, err := dkcore.NewEngine(tt.kind, tt.opt)
			if err == nil {
				t.Fatalf("option %s accepted by kind %s", tt.optStr, tt.kind)
			}
			if !strings.Contains(err.Error(), tt.optStr) || !strings.Contains(err.Error(), tt.kind.String()) {
				t.Fatalf("error does not name option and kind: %v", err)
			}
			if !strings.Contains(err.Error(), "applies to") {
				t.Fatalf("error does not list applicable kinds: %v", err)
			}
		})
	}
}

func TestEngineOptionValidation(t *testing.T) {
	if _, err := dkcore.NewEngine(dkcore.EngineKind(0)); err == nil {
		t.Fatalf("invalid kind accepted")
	}
	if _, err := dkcore.NewEngine(dkcore.OneToMany,
		dkcore.Hosts(2), dkcore.PartitionBy(dkcore.ModuloAssignment{H: 2})); err == nil {
		t.Fatalf("Hosts + PartitionBy conflict accepted")
	}
	if _, err := dkcore.NewEngine(dkcore.Cluster, dkcore.Hosts(0)); err == nil {
		t.Fatalf("zero hosts accepted")
	}
	if _, err := dkcore.NewEngine(dkcore.LiveEpidemic, dkcore.QuietWindow(0)); err == nil {
		t.Fatalf("zero quiet window accepted")
	}
	if _, err := dkcore.NewEngine(dkcore.Parallel, dkcore.MaxRounds(0)); err == nil {
		t.Fatalf("zero round budget accepted")
	}
	if _, err := dkcore.NewEngine(dkcore.OneToOne, dkcore.EngineOption{}); err == nil {
		t.Fatalf("zero-value option accepted")
	}
	if _, err := dkcore.NewEngine(dkcore.OutOfCore, dkcore.WithMemoryBudget(0)); err == nil {
		t.Fatalf("zero memory budget accepted")
	}
	if _, err := dkcore.NewEngine(dkcore.OutOfCore, dkcore.WithBlockSize(0)); err == nil {
		t.Fatalf("zero block size accepted")
	}
}

// TestEngineLiveFixedRounds checks the Live + MaxRounds combination: the
// fixed δ-round budget mode runs and may be approximate.
func TestEngineLiveFixedRounds(t *testing.T) {
	g := dkcore.GenerateWorstCase(40)
	eng, err := dkcore.NewEngine(dkcore.Live, dkcore.MaxRounds(2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds < 1 || rep.Rounds > 2 {
		t.Fatalf("fixed-budget run executed %d rounds, want <= 2", rep.Rounds)
	}
	// Estimates are upper bounds at all times.
	truth := dkcore.Decompose(g).CorenessValues()
	for u := range truth {
		if rep.Coreness[u] < truth[u] {
			t.Fatalf("node %d: estimate %d below true coreness %d", u, rep.Coreness[u], truth[u])
		}
	}
}

// TestEngineRunPreCancelled: an already-cancelled context must return
// ctx.Err() from every kind without computing anything.
func TestEngineRunPreCancelled(t *testing.T) {
	g := fig2()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, kind := range dkcore.EngineKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			eng, err := dkcore.NewEngine(kind, engineOptsFor(kind, g)...)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := eng.Run(ctx, g)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if rep != nil {
				t.Fatalf("got a report despite cancellation")
			}
		})
	}
}

// TestEngineRunDeadlineExceeded: an expired deadline is reported as
// DeadlineExceeded, not as a generic engine error.
func TestEngineRunDeadlineExceeded(t *testing.T) {
	eng, err := dkcore.NewEngine(dkcore.Parallel)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := eng.Run(ctx, fig2()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// midRunGraph builds a graph sized so kind's run takes long enough that a
// cancellation fired shortly after launch lands mid-run. size scales up
// on retry.
func midRunGraph(kind dkcore.EngineKind, size int) *dkcore.Graph {
	if kind == dkcore.Sequential {
		// The peel is O(m); only edge volume slows it down.
		return dkcore.GenerateGNM(size*64, size*256, 1)
	}
	// The §4.2 worst-case family needs Θ(N) rounds — long runs from
	// small graphs for every round-based kind.
	return dkcore.GenerateWorstCase(size)
}

// midRunBase bounds the retry ladder per kind: the starting size and the
// cap (sizes double on each attempt that completes before the cancel
// fires).
func midRunBase(kind dkcore.EngineKind) (base, max int) {
	switch kind {
	case dkcore.Sequential:
		return 1 << 11, 1 << 16
	case dkcore.Cluster:
		return 200, 6400
	case dkcore.Live:
		return 4000, 128000
	default:
		return 1000, 64000
	}
}

// TestEngineRunMidRunCancel: a context cancelled while the run is in
// flight must surface context.Canceled (promptly — the run cannot finish
// first once the graph is large enough). Each attempt cancels ~1ms after
// launch; if the run still won, the graph doubles and the attempt
// repeats. Run with -race to also verify teardown cleanliness.
func TestEngineRunMidRunCancel(t *testing.T) {
	for _, kind := range dkcore.EngineKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			base, maxSize := midRunBase(kind)
			for size := base; size <= maxSize; size *= 2 {
				g := midRunGraph(kind, size)
				eng, err := dkcore.NewEngine(kind, engineOptsFor(kind, g)...)
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				errCh := make(chan error, 1)
				go func() {
					_, err := eng.Run(ctx, g)
					errCh <- err
				}()
				time.Sleep(time.Millisecond)
				cancel()
				err = <-errCh
				if errors.Is(err, context.Canceled) {
					return // cancellation observed mid-run
				}
				if err != nil {
					t.Fatalf("size %d: unexpected error %v", size, err)
				}
				// Run finished before the cancel landed; grow and retry.
			}
			t.Fatalf("%s never observed a mid-run cancellation up to size %d", kind, maxSize)
		})
	}
}

// TestEngineClusterHostResults checks the cluster satellite: per-host
// structured results are carried into the unified Report.
func TestEngineClusterHostResults(t *testing.T) {
	g := dkcore.GenerateGNM(120, 480, 5)
	eng, err := dkcore.NewEngine(dkcore.Cluster, dkcore.Hosts(3))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Hosts) != 3 {
		t.Fatalf("got %d host results, want 3", len(rep.Hosts))
	}
	truth := dkcore.Decompose(g).CorenessValues()
	seen := 0
	var pairs int64
	for i, hr := range rep.Hosts {
		if hr.HostID != i {
			t.Fatalf("host results out of order: index %d has ID %d", i, hr.HostID)
		}
		if hr.Rounds != rep.Rounds {
			t.Fatalf("host %d served %d rounds, coordinator drove %d", i, hr.Rounds, rep.Rounds)
		}
		if len(hr.Owned) != len(hr.Coreness) {
			t.Fatalf("host %d: %d owned nodes, %d coreness values", i, len(hr.Owned), len(hr.Coreness))
		}
		for j, u := range hr.Owned {
			if k := hr.Coreness[j]; truth[u] != k {
				t.Fatalf("host %d: node %d coreness %d, want %d", i, u, k, truth[u])
			}
			seen++
		}
		pairs += hr.EstimatesSent
	}
	if seen != g.NumNodes() {
		t.Fatalf("hosts own %d nodes, graph has %d", seen, g.NumNodes())
	}
	if pairs != rep.EstimatesSent {
		t.Fatalf("per-host estimates %d != coordinator total %d", pairs, rep.EstimatesSent)
	}
}

// TestEngineZeroValueRun: a zero-value Engine (not built by NewEngine)
// must fail with an error, not a nil-pointer panic.
func TestEngineZeroValueRun(t *testing.T) {
	var eng dkcore.Engine
	if _, err := eng.Run(context.Background(), fig2()); err == nil {
		t.Fatalf("zero-value Engine accepted")
	}
}

// TestEngineLiveRoundsWorkers: Live's fixed-round mode can express a
// worker bound (Live + MaxRounds + Workers).
func TestEngineLiveRoundsWorkers(t *testing.T) {
	g := dkcore.GenerateGNM(60, 240, 2)
	eng, err := dkcore.NewEngine(dkcore.Live, dkcore.MaxRounds(10*g.NumNodes()), dkcore.Workers(2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	truth := dkcore.Decompose(g).CorenessValues()
	for u := range truth {
		if rep.Coreness[u] != truth[u] {
			t.Fatalf("node %d: coreness %d, want %d", u, rep.Coreness[u], truth[u])
		}
	}
}

// TestParseEngineKindRejectsEmpty: the empty string must not resolve via
// a registry entry's empty alias field.
func TestParseEngineKindRejectsEmpty(t *testing.T) {
	if k, err := dkcore.ParseEngineKind(""); err == nil {
		t.Fatalf("empty kind name resolved to %v", k)
	}
}

// TestEngineNegativeWorkersRejected: every kind that accepts Workers
// must reject a negative count at construction, not behave
// kind-dependently at run time.
func TestEngineNegativeWorkersRejected(t *testing.T) {
	for _, kind := range []dkcore.EngineKind{dkcore.Live, dkcore.LiveEpidemic, dkcore.Parallel} {
		if _, err := dkcore.NewEngine(kind, dkcore.Workers(-3)); err == nil {
			t.Fatalf("%s accepted Workers(-3)", kind)
		}
	}
}
