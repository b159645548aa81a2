package dkcore_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"dkcore"
)

// runEngine runs one engine kind on g through the public facade, failing
// the test or benchmark on any construction or run error.
func runEngine(tb testing.TB, g *dkcore.Graph, kind dkcore.EngineKind, opts ...dkcore.EngineOption) *dkcore.Report {
	tb.Helper()
	eng, err := dkcore.NewEngine(kind, opts...)
	if err != nil {
		tb.Fatalf("engine/%s: %v", kind, err)
	}
	rep, err := eng.Run(context.Background(), g)
	if err != nil {
		tb.Fatalf("engine/%s: %v", kind, err)
	}
	return rep
}

// paperFig2 is the worked example from §3.1.1 of the paper.
func paperFig2() *dkcore.Graph {
	return dkcore.FromEdges(6, [][2]int{
		{0, 1}, {1, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 4}, {4, 5},
	})
}

func TestPublicSequentialAPI(t *testing.T) {
	g := paperFig2()
	dec := dkcore.Decompose(g)
	want := []int{1, 2, 2, 2, 2, 1}
	for u, w := range want {
		if dec.Coreness(u) != w {
			t.Fatalf("node %d: coreness %d, want %d", u, dec.Coreness(u), w)
		}
	}
	if err := dkcore.VerifyLocality(g, dec.CorenessValues()); err != nil {
		t.Fatal(err)
	}
}

func TestPublicDistributedAPI(t *testing.T) {
	g := paperFig2()
	truth := dkcore.Decompose(g).CorenessValues()

	one := runEngine(t, g, dkcore.OneToOne,
		dkcore.Seed(3), dkcore.SendOptimization(true), dkcore.GroundTruth(truth))
	many := runEngine(t, g, dkcore.OneToMany,
		dkcore.PartitionBy(dkcore.ModuloAssignment{H: 2}), dkcore.DisseminationPolicy(dkcore.PointToPoint))
	for u := range truth {
		if one.Coreness[u] != truth[u] || many.Coreness[u] != truth[u] {
			t.Fatalf("node %d: one %d many %d truth %d", u, one.Coreness[u], many.Coreness[u], truth[u])
		}
	}
	if len(one.AvgErrorTrace) == 0 {
		t.Fatalf("ground-truth run recorded no trace")
	}
}

func TestPublicLiveAPI(t *testing.T) {
	g := paperFig2()
	truth := dkcore.Decompose(g).CorenessValues()
	res := runEngine(t, g, dkcore.Live, dkcore.SendOptimization(true))
	for u := range truth {
		if res.Coreness[u] != truth[u] {
			t.Fatalf("live node %d: %d want %d", u, res.Coreness[u], truth[u])
		}
	}
	fixed := runEngine(t, g, dkcore.Live, dkcore.MaxRounds(50), dkcore.Workers(2))
	epi := runEngine(t, g, dkcore.LiveEpidemic, dkcore.QuietWindow(10), dkcore.Seed(5))
	for u := range truth {
		if fixed.Coreness[u] != truth[u] || epi.Coreness[u] != truth[u] {
			t.Fatalf("node %d: fixed %d epidemic %d truth %d", u, fixed.Coreness[u], epi.Coreness[u], truth[u])
		}
	}
}

func TestPublicIOAPI(t *testing.T) {
	in := "0 1\n1 2\n"
	g, orig, err := dkcore.ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 || len(orig) != 3 {
		t.Fatalf("parsed %d edges %d ids", g.NumEdges(), len(orig))
	}
	var text, bin bytes.Buffer
	if err := dkcore.WriteEdgeList(&text, g); err != nil {
		t.Fatal(err)
	}
	if err := dkcore.WriteBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	g2, err := dkcore.ReadBinary(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(g2) {
		t.Fatalf("binary round trip changed the graph")
	}
}

func TestPublicClusterAPI(t *testing.T) {
	g := paperFig2()
	truth := dkcore.Decompose(g).CorenessValues()
	coord, err := dkcore.NewCoordinator(dkcore.ClusterConfig{Graph: g, NumHosts: 2})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := dkcore.RunClusterHost(context.Background(), dkcore.HostConfig{CoordinatorAddr: coord.Addr()})
			errs <- err
		}()
	}
	res, err := coord.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for u := range truth {
		if res.Coreness[u] != truth[u] {
			t.Fatalf("cluster node %d: %d want %d", u, res.Coreness[u], truth[u])
		}
	}
}

func TestPublicGenerators(t *testing.T) {
	truthOf := func(g *dkcore.Graph) []int { return dkcore.Decompose(g).CorenessValues() }

	if g := dkcore.GenerateGNM(50, 100, 1); g.NumEdges() != 100 {
		t.Fatalf("GNM edges = %d", g.NumEdges())
	}
	if g := dkcore.GenerateGNP(50, 0.1, 1); g.NumNodes() != 50 {
		t.Fatalf("GNP nodes = %d", g.NumNodes())
	}
	if g := dkcore.GenerateBarabasiAlbert(100, 3, 1); g.MinDegree() < 3 {
		t.Fatalf("BA min degree = %d", g.MinDegree())
	}
	if g := dkcore.GenerateWattsStrogatz(60, 4, 0.1, 1); g.NumNodes() != 60 {
		t.Fatalf("WS nodes = %d", g.NumNodes())
	}
	if g := dkcore.GenerateCollaboration(dkcore.CollaborationConfig{
		N: 80, Papers: 100, MinSize: 2, MaxSize: 6, SizeExponent: 2.0,
	}, 1); g.NumNodes() != 80 {
		t.Fatalf("collaboration nodes = %d", g.NumNodes())
	}
	if got := truthOf(dkcore.GenerateGrid(5, 5)); got[12] != 2 {
		t.Fatalf("grid center coreness = %d, want 2", got[12])
	}
	if got := truthOf(dkcore.GenerateChain(9)); got[4] != 1 {
		t.Fatalf("chain coreness = %d, want 1", got[4])
	}
	if got := truthOf(dkcore.GenerateComplete(6)); got[0] != 5 {
		t.Fatalf("K6 coreness = %d, want 5", got[0])
	}
	if got := truthOf(dkcore.GenerateWorstCase(12)); got[0] != 2 {
		t.Fatalf("worst-case coreness = %d, want 2", got[0])
	}
}

func TestPublicLossAndRetransmission(t *testing.T) {
	g := dkcore.GenerateGNM(120, 480, 3)
	truth := dkcore.Decompose(g).CorenessValues()
	res := runEngine(t, g, dkcore.OneToOne,
		dkcore.Loss(0.3), dkcore.RetransmitEvery(2), dkcore.MaxRounds(300))
	for u := range truth {
		if res.Coreness[u] != truth[u] {
			t.Fatalf("node %d: %d want %d", u, res.Coreness[u], truth[u])
		}
	}
}
