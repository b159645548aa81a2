package dkcore_test

import (
	"context"
	"sync"
	"testing"

	"dkcore"
)

func TestSessionQueriesAndMutations(t *testing.T) {
	g := dkcore.GenerateBarabasiAlbert(120, 3, 11)
	sess, err := dkcore.NewSession(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if rep := sess.InitialReport(); rep == nil || rep.Kind != dkcore.Sequential {
		t.Fatalf("initial report = %+v", rep)
	}
	if sess.NumNodes() != g.NumNodes() || sess.NumEdges() != g.NumEdges() {
		t.Fatalf("session shape %d/%d, want %d/%d",
			sess.NumNodes(), sess.NumEdges(), g.NumNodes(), g.NumEdges())
	}

	truth := dkcore.Decompose(g).CorenessValues()
	for u, k := range truth {
		if sess.Coreness(u) != k {
			t.Fatalf("node %d: coreness %d, want %d", u, sess.Coreness(u), k)
		}
	}

	// Degeneracy and k-core membership agree with the coreness array.
	d := sess.Degeneracy()
	maxK := 0
	for _, k := range truth {
		if k > maxK {
			maxK = k
		}
	}
	if d != maxK {
		t.Fatalf("degeneracy %d, want %d", d, maxK)
	}
	members := sess.KCoreMembers(d)
	if len(members) == 0 {
		t.Fatalf("empty %d-core", d)
	}
	for _, u := range members {
		if truth[u] < d {
			t.Fatalf("node %d in %d-core has coreness %d", u, d, truth[u])
		}
	}
	if got := len(sess.KCoreMembers(0)); got != g.NumNodes() {
		t.Fatalf("0-core has %d members, want all %d", got, g.NumNodes())
	}

	// Mutations stay exact: apply churn, compare against a recompute of
	// the materialized snapshot.
	for _, ev := range dkcore.GenerateChurnEvents(g, 60, 0.4, 7) {
		sess.ApplyEvent(ev)
	}
	snap := sess.Snapshot()
	want := dkcore.Decompose(snap).CorenessValues()
	got := sess.CorenessValues()
	if len(got) != len(want) {
		t.Fatalf("coreness length %d, want %d", len(got), len(want))
	}
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("after churn, node %d: coreness %d, want %d", u, got[u], want[u])
		}
	}

	// Edge-level mutations report presence correctly.
	if sess.InsertEdge(0, 0) {
		t.Fatalf("self-loop accepted")
	}
	n := sess.NumNodes()
	if !sess.InsertEdge(n, n+1) {
		t.Fatalf("node-growing insert rejected")
	}
	if !sess.HasEdge(n, n+1) || sess.Coreness(n) != 1 {
		t.Fatalf("grown edge not reflected")
	}
	if !sess.DeleteEdge(n, n+1) || sess.HasEdge(n, n+1) {
		t.Fatalf("delete not reflected")
	}
}

// TestSessionFromEveryEngineKind: the serving story composes with any
// engine — decompose once with kind K, then maintain incrementally.
func TestSessionFromEveryEngineKind(t *testing.T) {
	g := dkcore.GenerateGNM(90, 360, 3)
	truth := dkcore.Decompose(g).CorenessValues()
	for _, kind := range dkcore.EngineKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			eng, err := dkcore.NewEngine(kind, engineOptsFor(kind, g)...)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := eng.NewSession(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}
			if sess.InitialReport().Kind != kind {
				t.Fatalf("initial report kind %v, want %v", sess.InitialReport().Kind, kind)
			}
			for u, k := range truth {
				if sess.Coreness(u) != k {
					t.Fatalf("node %d: coreness %d, want %d", u, sess.Coreness(u), k)
				}
			}
			// One mutation keeps the session exact from any seed engine.
			sess.InsertEdge(0, g.NumNodes()-1)
			want := dkcore.Decompose(sess.Snapshot()).CorenessValues()
			for u := range want {
				if sess.Coreness(u) != want[u] {
					t.Fatalf("after insert, node %d: coreness %d, want %d", u, sess.Coreness(u), want[u])
				}
			}
		})
	}
}

// TestSessionConcurrentAccess hammers a Session with concurrent readers
// while a writer streams churn — the serving pattern the read lock
// exists for. Run under -race.
func TestSessionConcurrentAccess(t *testing.T) {
	g := dkcore.GenerateBarabasiAlbert(200, 3, 19)
	sess, err := dkcore.NewSession(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	events := dkcore.GenerateChurnEvents(g, 300, 0.4, 23)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			u := r
			for {
				select {
				case <-stop:
					return
				default:
				}
				if k := sess.Coreness(u % sess.NumNodes()); k < 0 {
					t.Errorf("negative coreness %d", k)
					return
				}
				if d := sess.Degeneracy(); d < 0 {
					t.Errorf("negative degeneracy %d", d)
					return
				}
				sess.KCoreMembers(2)
				u++
			}
		}(r)
	}
	for _, ev := range events {
		sess.ApplyEvent(ev)
	}
	close(stop)
	wg.Wait()

	want := dkcore.Decompose(sess.Snapshot()).CorenessValues()
	got := sess.CorenessValues()
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("after concurrent churn, node %d: coreness %d, want %d", u, got[u], want[u])
		}
	}
}
