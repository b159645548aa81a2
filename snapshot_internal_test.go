package dkcore

// White-box tests for the writer's batch absorption: per-op results must
// match a sequential replay exactly even when coalescing cancels an
// insert+delete pair, and node-growing ops must take the literal path so
// the published node count matches sequential semantics.

import (
	"testing"

	"dkcore/internal/graph"
	"dkcore/internal/stream"
)

func absorbSession(mt *stream.Maintainer) *Session {
	s := &Session{
		maxBatch: 64,
		pending:  make(map[edgeKey]edgeState),
	}
	s.cur.Store(newEpoch(1, mt))
	return s
}

func TestAbsorbCoalescesWithExactResults(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	mt := stream.NewMaintainer(b.Build())
	s := absorbSession(mt)

	ins := func(u, v int) sessionOp { return sessionOp{ev: stream.Event{Op: stream.OpInsert, U: u, V: v}} }
	del := func(u, v int) sessionOp { return sessionOp{ev: stream.Event{Op: stream.OpDelete, U: u, V: v}} }
	barrier := sessionOp{done: make(chan int)} // what Flush queues: a waited frame of no events
	batch := []sessionOp{
		ins(0, 2),             // absent -> true, present
		del(2, 0),             // present (normalized key) -> true, absent
		ins(0, 2),             // absent again -> true: net insert survives
		del(0, 1),             // base edge -> true: net delete
		ins(0, 1),             // just deleted -> true: cancels to no net op
		ins(0, 0),             // self-loop -> false
		del(-1, 3),            // negative -> false
		ins(9, 5),             // grows node set: literal path -> true
		del(5, 9),             // literal path -> true; nodes must stay grown
		barrier,               // no events -> 0
		del(3, 0),             // never present -> false
		ins(1, 2), ins(12, 1), // duplicate of base edge -> false; grow -> true
	}
	want := []int{1, 1, 1, 1, 1, 0, 0, 1, 1, 0, 0, 0, 1}
	got := s.absorb(mt, batch, nil)
	if len(got) != len(want) {
		t.Fatalf("%d results for %d ops", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d: changed %d, want %d", i, got[i], want[i])
		}
	}

	// Net state: {0,1} reinserted (cancelled), {0,2} present, {5,9}
	// inserted then deleted but the node set stays grown to 13.
	if !mt.HasEdge(0, 1) || !mt.HasEdge(0, 2) || mt.HasEdge(5, 9) {
		t.Fatalf("net edge state wrong: 01=%v 02=%v 59=%v",
			mt.HasEdge(0, 1), mt.HasEdge(0, 2), mt.HasEdge(5, 9))
	}
	if mt.NumNodes() != 13 {
		t.Fatalf("node set %d, want 13 (literal growth preserved)", mt.NumNodes())
	}

	// Exactly one epoch published for the whole batch, reflecting the
	// final state.
	ep := s.CurrentEpoch()
	if ep.Seq() != 2 {
		t.Fatalf("epoch seq %d, want 2", ep.Seq())
	}
	if ep.NumNodes() != 13 || ep.NumEdges() != mt.NumEdges() {
		t.Fatalf("epoch shape %d/%d, want %d/%d", ep.NumNodes(), ep.NumEdges(), 13, mt.NumEdges())
	}
	if s.batches.Load() != 1 {
		t.Fatalf("batches %d, want 1", s.batches.Load())
	}
}

// TestAbsorbNoChangeSkipsPublish: a batch of pure no-ops (duplicate
// inserts, absent deletes, cancelled pairs on existing nodes) publishes
// no epoch at all.
func TestAbsorbNoChangeSkipsPublish(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	mt := stream.NewMaintainer(b.Build())
	s := absorbSession(mt)

	batch := []sessionOp{
		{ev: stream.Event{Op: stream.OpInsert, U: 0, V: 1}}, // duplicate
		{ev: stream.Event{Op: stream.OpDelete, U: 1, V: 2}}, // absent
		{ev: stream.Event{Op: stream.OpInsert, U: 0, V: 2}}, // insert...
		{ev: stream.Event{Op: stream.OpDelete, U: 0, V: 2}}, // ...cancelled
	}
	want := []int{0, 0, 1, 1}
	got := s.absorb(mt, batch, nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d: changed %d, want %d", i, got[i], want[i])
		}
	}
	if seq := s.CurrentEpoch().Seq(); seq != 1 {
		t.Fatalf("no-op batch published epoch %d", seq)
	}
	if mt.HasEdge(0, 2) || !mt.HasEdge(0, 1) {
		t.Fatalf("no-op batch changed the graph")
	}
}
