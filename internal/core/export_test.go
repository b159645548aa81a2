package core

import (
	"testing"

	"dkcore/internal/graph"
)

// exportTestGraph is a small graph with a nontrivial core structure:
// a 4-clique with pendant chains.
func exportTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(9)
	edges := [][2]int{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, // clique
		{3, 4}, {4, 5}, {5, 6}, // chain
		{2, 7}, {7, 8},
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// TestExportRestoreReproducesState checkpoints a host mid-protocol,
// rebuilds a fresh HostState through InitEstimates + Apply of the
// exported estimates, and requires identical estimates and
// byte-identical support histograms — the invariant the cluster's
// restart-and-resume path rests on.
func TestExportRestoreReproducesState(t *testing.T) {
	g := exportTestGraph(t)
	parts, err := PartitionAll(g, ModuloAssignment{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := parts.NewPartitionState(0)
	s.InitEstimates()
	s.CollectPointToPoint() // clear changed, as a round boundary would
	// Simulate remote traffic: a neighbor's estimate drops.
	s.Apply(Batch{{Node: 1, Core: 1}, {Node: 5, Core: 1}})
	s.ImproveIfDirty()

	est := s.ExportEstimates(nil)
	hist := s.ExportSupport(nil)

	restored := parts.NewPartitionState(0)
	restored.InitEstimates()
	restored.Apply(est)
	if !restored.VerifySupport(hist) {
		t.Fatal("restored support histograms differ from checkpoint")
	}
	for _, m := range est {
		got, ok := restored.Estimate(m.Node)
		if !ok || got != m.Core {
			t.Fatalf("node %d: restored estimate %d (tracked=%v), want %d", m.Node, got, ok, m.Core)
		}
	}
}

func TestMarkAndEnqueueByGlobalID(t *testing.T) {
	g := exportTestGraph(t)
	parts, err := PartitionAll(g, ModuloAssignment{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := parts.NewPartitionState(0)
	s.InitEstimates()
	s.ResetChanged()
	if s.HasChanges() {
		t.Fatal("ResetChanged left marks")
	}
	if !s.MarkNodeChanged(0) || s.MarkNodeChanged(1) {
		t.Fatal("MarkNodeChanged ownership check wrong (0 owned, 1 not)")
	}
	if !s.EnqueueNode(2) || s.EnqueueNode(3) {
		t.Fatal("EnqueueNode ownership check wrong (2 owned, 3 not)")
	}
	if s.ChangedCount() != 1 {
		t.Fatalf("changed count %d, want 1", s.ChangedCount())
	}
}
