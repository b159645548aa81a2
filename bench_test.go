// Benchmarks regenerating the paper's evaluation, one per table and
// figure (plus the §4 validations and ablations). Each benchmark runs a
// complete experiment per iteration at a reduced scale and reports the
// paper's figures of merit (rounds, messages per node, estimates per
// node) through b.ReportMetric, so `go test -bench=.` both measures the
// implementation and re-derives the paper's qualitative results. The full
// paper-scale tables are produced by cmd/kcore-bench.
package dkcore_test

import (
	"fmt"
	"testing"

	"dkcore"
	"dkcore/internal/bench"
	"dkcore/internal/core"
	"dkcore/internal/dataset"
	"dkcore/internal/kcore"
)

// benchScale keeps per-iteration work around tens of milliseconds.
const benchScale = 0.15

func benchGraph(b *testing.B, key string) *dkcore.Graph {
	b.Helper()
	d, err := dataset.ByKey(key)
	if err != nil {
		b.Fatal(err)
	}
	return d.Build(benchScale, 1)
}

// BenchmarkTable1 runs the Table-1 measurement (one-to-one protocol) on
// each dataset analogue.
func BenchmarkTable1(b *testing.B) {
	for _, key := range dataset.Keys() {
		b.Run(key, func(b *testing.B) {
			g := benchGraph(b, key)
			var rounds, msgsPerNode float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := runEngine(b, g, dkcore.OneToOne, dkcore.Seed(int64(i+1)))
				rounds = float64(res.ExecutionTime)
				msgsPerNode = float64(res.TotalMessages) / float64(g.NumNodes())
			}
			b.ReportMetric(rounds, "rounds")
			b.ReportMetric(msgsPerNode, "msgs/node")
		})
	}
}

// BenchmarkTable2 reproduces the per-core convergence measurement on the
// web-BerkStan analogue.
func BenchmarkTable2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.Table2(bench.Config{Scale: benchScale, Reps: 1, Seed: int64(i + 1)}, 10)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.ExecutionTime), "rounds")
		b.ReportMetric(float64(len(res.Cores)), "delayed-shells")
	}
}

// BenchmarkFigure4 measures an error-trace run (average/maximum error per
// round against the sequential ground truth).
func BenchmarkFigure4(b *testing.B) {
	g := benchGraph(b, "gnutella")
	truth := dkcore.Decompose(g).CorenessValues()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runEngine(b, g, dkcore.OneToOne, dkcore.Seed(int64(i+1)), dkcore.GroundTruth(truth))
		// The paper's observation: max error <= 1 within ~22 rounds.
		roundsToMaxErr1 := len(res.MaxErrorTrace)
		for r, e := range res.MaxErrorTrace {
			if e <= 1 {
				roundsToMaxErr1 = r + 1
				break
			}
		}
		b.ReportMetric(float64(roundsToMaxErr1), "rounds-to-maxerr<=1")
	}
}

// BenchmarkFigure5 measures the one-to-many overhead at a representative
// host count for both dissemination policies.
func BenchmarkFigure5(b *testing.B) {
	modes := []struct {
		name string
		mode dkcore.Dissemination
	}{
		{"broadcast", dkcore.Broadcast},
		{"point-to-point", dkcore.PointToPoint},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			g := benchGraph(b, "astroph")
			var overhead float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := runEngine(b, g, dkcore.OneToMany, dkcore.Hosts(64),
					dkcore.Seed(int64(i+1)), dkcore.DisseminationPolicy(m.mode))
				overhead = float64(res.EstimatesSent) / float64(g.NumNodes())
			}
			b.ReportMetric(overhead, "estimates/node")
		})
	}
}

// BenchmarkWorstCase validates and times the §4.2 exact-round-count runs.
func BenchmarkWorstCase(b *testing.B) {
	g := dkcore.GenerateWorstCase(128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runEngine(b, g, dkcore.OneToOne, dkcore.Delivery(dkcore.DeliverNextRound))
		if res.Rounds != 127 {
			b.Fatalf("worst case rounds = %d, want 127", res.Rounds)
		}
	}
	b.ReportMetric(127, "rounds")
}

// BenchmarkSendOptimizationAblation measures the §3.1.2 optimization's
// message reduction.
func BenchmarkSendOptimizationAblation(b *testing.B) {
	g := benchGraph(b, "condmat")
	var reduction float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := dkcore.Seed(int64(i + 1))
		plain := runEngine(b, g, dkcore.OneToOne, seed)
		opt := runEngine(b, g, dkcore.OneToOne, seed, dkcore.SendOptimization(true))
		reduction = 100 * (1 - float64(opt.TotalMessages)/float64(plain.TotalMessages))
	}
	b.ReportMetric(reduction, "%-saved")
}

// BenchmarkAssignmentAblation compares node-to-host assignment policies
// (extension bench called out in DESIGN.md).
func BenchmarkAssignmentAblation(b *testing.B) {
	g := benchGraph(b, "astroph")
	n := g.NumNodes()
	policies := []struct {
		name   string
		assign dkcore.Assignment
	}{
		{"modulo", dkcore.ModuloAssignment{H: 16}},
		{"block", dkcore.BlockAssignment{N: n, H: 16}},
		{"random", dkcore.NewRandomAssignment(n, 16, 1)},
	}
	for _, p := range policies {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			var overhead float64
			for i := 0; i < b.N; i++ {
				res := runEngine(b, g, dkcore.OneToMany, dkcore.PartitionBy(p.assign),
					dkcore.Seed(int64(i+1)), dkcore.DisseminationPolicy(dkcore.PointToPoint))
				overhead = float64(res.EstimatesSent) / float64(n)
			}
			b.ReportMetric(overhead, "estimates/node")
		})
	}
}

// BenchmarkSequentialBaseline times the Batagelj–Zaversnik O(m)
// decomposition used as ground truth.
func BenchmarkSequentialBaseline(b *testing.B) {
	for _, key := range []string{"astroph", "berkstan", "roadnet"} {
		b.Run(key, func(b *testing.B) {
			g := benchGraph(b, key)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kcore.Decompose(g)
			}
			b.ReportMetric(float64(g.NumEdges()), "edges")
		})
	}
}

// BenchmarkLiveAsync times the goroutine-per-node asynchronous runtime.
func BenchmarkLiveAsync(b *testing.B) {
	g := benchGraph(b, "gnutella")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runEngine(b, g, dkcore.Live, dkcore.SendOptimization(true))
		b.ReportMetric(float64(res.TotalMessages)/float64(g.NumNodes()), "msgs/node")
	}
}

// BenchmarkLossRecovery measures the cost of exact convergence under 30%
// message loss with retransmission every 2 rounds (extension bench).
func BenchmarkLossRecovery(b *testing.B) {
	g := benchGraph(b, "gnutella")
	truth := dkcore.Decompose(g).CorenessValues()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runEngine(b, g, dkcore.OneToOne, dkcore.Seed(int64(i+1)),
			dkcore.Loss(0.3), dkcore.RetransmitEvery(2), dkcore.MaxRounds(200))
		for u := range truth {
			if res.Coreness[u] != truth[u] {
				b.Fatalf("not exact under loss at node %d", u)
			}
		}
		b.ReportMetric(float64(res.TotalMessages)/float64(g.NumNodes()), "msgs/node")
	}
}

// BenchmarkStreamMaintenance compares incremental k-core maintenance
// against full recomputation for small-batch mutations of a 10k-node
// power-law graph (the degree profile of the paper's social and web
// datasets). The streaming argument: per-event work is proportional to
// the mutation's affected region, not the graph, so a small batch costs
// far less than one recomputation. Equal-coreness plateaus (dense ER-like
// graphs) are the known worst case for traversal maintenance and are
// exercised by the correctness tests instead.
func BenchmarkStreamMaintenance(b *testing.B) {
	const batch = 5 // edges deleted then re-inserted: 10 events per op
	g := dkcore.GeneratePowerLaw(dkcore.PowerLawConfig{N: 10000, Exponent: 2.2, MinDeg: 2}, 1)
	var edges [][2]int
	g.Edges(func(u, v int) bool { edges = append(edges, [2]int{u, v}); return true })
	victims := make([][2]int, batch)
	for i := range victims {
		victims[i] = edges[(i*victimStride)%len(edges)]
	}

	b.Run("incremental", func(b *testing.B) {
		mt := dkcore.NewMaintainer(g)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The batch restores the graph, so every iteration sees the
			// same starting state.
			for _, e := range victims {
				mt.DeleteEdge(e[0], e[1])
			}
			for _, e := range victims {
				mt.InsertEdge(e[0], e[1])
			}
		}
		b.ReportMetric(float64(2*batch), "events/op")
	})
	b.Run("full-recompute", func(b *testing.B) {
		// The recompute pipeline pays for a fresh decomposition of the
		// post-batch graph; decomposing g measures exactly that cost.
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dec := dkcore.Decompose(g)
			_ = dec
		}
		b.ReportMetric(float64(2*batch), "events/op")
	})
}

// victimStride is a fixed stride coprime with typical edge counts,
// spreading benchmark victim edges across the graph deterministically.
const victimStride = 997

// BenchmarkPartitionSetup measures the cost of sharding a fixed graph
// into p partitions and building every partition's protocol state — the
// setup each sharded engine (parallel, cluster, one-to-many simulator)
// pays before its first round. core.PartitionAll is a single O(n+m)
// bucketing pass for all partitions at once, so total setup cost must
// stay near-constant as p grows at fixed graph size; the per-partition
// rescan it replaced was O(n·p). An upward trend across the p-series is
// a regression (`make bench-partition` prints it).
func BenchmarkPartitionSetup(b *testing.B) {
	g := dkcore.GeneratePowerLaw(dkcore.PowerLawConfig{N: 10000, Exponent: 2.2, MinDeg: 2}, 1)
	for _, p := range []int{1, 4, 16, 64, 256} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			assign := core.ModuloAssignment{H: p}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				parts, err := core.PartitionAll(g, assign)
				if err != nil {
					b.Fatal(err)
				}
				for x := 0; x < p; x++ {
					if parts.NewPartitionState(x) == nil {
						b.Fatal("nil partition state")
					}
				}
			}
			b.ReportMetric(float64(p), "partitions")
		})
	}
}

// BenchmarkComputeIndex micro-benchmarks Algorithm 2, the per-message hot
// path of every protocol variant.
func BenchmarkComputeIndex(b *testing.B) {
	est := make([]int, 64)
	for i := range est {
		est[i] = (i * 7) % 40
	}
	count := make([]int, 41)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ComputeIndex(est, 40, count)
	}
}
