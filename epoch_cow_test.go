// Tests for the copy-on-write epoch publish: old epochs must stay
// byte-for-byte what they were while the writer rewrites the very rows
// and pages they share with it (run under -race), every published epoch
// must equal a from-scratch rebuild of the applied prefix, and a
// one-event publish must cost the same on a graph ten times the size.
package dkcore_test

import (
	"context"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"dkcore"
)

// epochDigest hashes everything an epoch serves about the hub rows and
// the coreness vector through its table accessors, plus its materialized
// CSR: equal digests before and after later batches mean no write
// reached a row, leaf, directory or CSR the epoch can see.
func epochDigest(ep *dkcore.Epoch, hubs []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x int) {
		for i := range buf {
			buf[i] = byte(x >> (8 * i))
		}
		h.Write(buf[:])
	}
	n := ep.NumNodes()
	put(n)
	put(ep.NumEdges())
	put(ep.Degeneracy())
	for u := 0; u < n; u++ {
		put(ep.Coreness(u))
	}
	for _, u := range ep.KCoreMembers(ep.Degeneracy()) {
		put(u)
	}
	for _, hub := range hubs {
		for v := 0; v < n; v++ {
			if ep.HasEdge(hub, v) {
				put(v)
			}
		}
	}
	g := ep.Graph()
	for _, hub := range hubs {
		for _, v := range g.Neighbors(hub) {
			put(v)
		}
	}
	put(g.NumEdges())
	return h.Sum64()
}

// TestPinnedEpochsSurviveHubChurn: readers pin whatever epoch is
// current, digest it, let the writer get several epochs ahead and digest
// it again, while every batch inserts and deletes on the same few hub
// rows and now and then grows the node set; the first epoch stays pinned
// across all 1,000 batches.
func TestPinnedEpochsSurviveHubChurn(t *testing.T) {
	g := dkcore.GeneratePowerLaw(dkcore.PowerLawConfig{N: 1500, Exponent: 2.2, MinDeg: 2}, 3)
	hubs := make([]int, g.NumNodes())
	for u := range hubs {
		hubs[u] = u
	}
	sort.Slice(hubs, func(i, j int) bool { return g.Degree(hubs[i]) > g.Degree(hubs[j]) })
	hubs = hubs[:6]

	sess, err := dkcore.NewSession(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	first := sess.CurrentEpoch()
	firstDigest := epochDigest(first, hubs)

	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				ep := sess.CurrentEpoch()
				before := epochDigest(ep, hubs)
				for sess.CurrentEpoch().Seq() < ep.Seq()+5 {
					select {
					case <-done:
						return
					default:
						runtime.Gosched()
					}
				}
				if after := epochDigest(ep, hubs); after != before {
					t.Errorf("epoch %d changed under the reader: digest %x, then %x", ep.Seq(), before, after)
					return
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(9))
	for batch := 0; batch < 1000; batch++ {
		n := sess.NumNodes()
		frame := make([]dkcore.EdgeEvent, 0, 8)
		for i := 0; i < 8; i++ {
			hub, v := hubs[rng.Intn(len(hubs))], rng.Intn(n)
			if batch%100 == 99 && i == 0 {
				v = n + rng.Intn(700) // past the end, sometimes past a page boundary
			}
			op := dkcore.EdgeInsert
			if sess.HasEdge(hub, v) {
				op = dkcore.EdgeDelete
			}
			frame = append(frame, dkcore.EdgeEvent{Op: op, U: hub, V: v})
		}
		sess.ApplyEvents(frame)
	}
	close(done)
	readers.Wait()

	if sess.CurrentEpoch().Seq() < 900 {
		t.Fatalf("only %d epochs published by 1000 changing batches", sess.CurrentEpoch().Seq())
	}
	if after := epochDigest(first, hubs); after != firstDigest {
		t.Fatalf("the first epoch changed after 1000 later batches: digest %x, then %x", firstDigest, after)
	}
	if !first.Graph().Equal(g) {
		t.Fatalf("the first epoch no longer holds the seed graph")
	}
}

// replayModel is the applied prefix of an event stream as a plain edge
// set: what a published epoch is compared against, rebuilt from scratch
// through the Builder.
type replayModel struct {
	n     int
	edges map[[2]int]bool
}

func (m *replayModel) apply(ev dkcore.EdgeEvent) bool {
	u, v := ev.U, ev.V
	if u < 0 || v < 0 || u == v {
		return false
	}
	if u > v {
		u, v = v, u
	}
	key := [2]int{u, v}
	if ev.Op == dkcore.EdgeDelete {
		if !m.edges[key] {
			return false
		}
		delete(m.edges, key)
		return true
	}
	m.n = max(m.n, v+1)
	if m.edges[key] {
		return false
	}
	m.edges[key] = true
	return true
}

func (m *replayModel) graph() *dkcore.Graph {
	b := dkcore.NewBuilder(m.n)
	for e := range m.edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// differentialStream is 5,000 events over g: plain churn, edges that
// flap several times in a row (so they flap inside any batch that holds
// them), inserts that grow the node set, and events that cannot apply.
func differentialStream(g *dkcore.Graph, rng *rand.Rand) []dkcore.EdgeEvent {
	n := g.NumNodes()
	var events []dkcore.EdgeEvent
	for len(events) < 5000 {
		u, v := rng.Intn(n), rng.Intn(n)
		ops := [2]dkcore.EdgeOp{dkcore.EdgeInsert, dkcore.EdgeDelete}
		op := ops[rng.Intn(2)]
		switch rng.Intn(12) {
		case 0: // flap
			for i := 2 + rng.Intn(4); i > 0; i-- {
				events = append(events, dkcore.EdgeEvent{Op: ops[i%2], U: u, V: v})
			}
		case 1: // grow, then maybe touch the new node again
			n += 1 + rng.Intn(3)
			events = append(events, dkcore.EdgeEvent{Op: dkcore.EdgeInsert, U: u, V: n - 1})
		case 2: // cannot apply: loop, negative, beyond the node set
			events = append(events,
				dkcore.EdgeEvent{Op: op, U: u, V: u},
				dkcore.EdgeEvent{Op: op, U: -1, V: v},
				dkcore.EdgeEvent{Op: dkcore.EdgeDelete, U: u, V: n + 50})
		default:
			events = append(events, dkcore.EdgeEvent{Op: op, U: u, V: v})
		}
	}
	return events[:5000]
}

// TestEpochDifferentialReplay replays the stream through ApplyEvents in
// frames of 1, 16 and 256 and after every frame rebuilds the applied
// prefix from scratch: the current epoch's materialized graph, coreness
// vector, degeneracy and counts must equal the rebuild's, and the
// frame's changed count must equal a one-by-one sequential replay's.
func TestEpochDifferentialReplay(t *testing.T) {
	g := dkcore.GenerateGNM(60, 200, 21)
	events := differentialStream(g, rand.New(rand.NewSource(22)))
	for _, frame := range []int{1, 16, 256} {
		sess, err := dkcore.NewSession(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		model := &replayModel{n: g.NumNodes(), edges: make(map[[2]int]bool)}
		g.Edges(func(u, v int) bool { model.edges[[2]int{u, v}] = true; return true })
		sequential := dkcore.NewMaintainer(g)

		for lo := 0; lo < len(events); lo += frame {
			evs := events[lo:min(lo+frame, len(events))]
			want := 0
			for _, ev := range evs {
				applied := sequential.Apply(ev)
				if applied != model.apply(ev) {
					t.Fatalf("frame %d, event %d: the sequential maintainer and the edge-set model disagree", frame, lo)
				}
				if applied {
					want++
				}
			}
			if got := sess.ApplyEvents(evs); got != want {
				t.Fatalf("frame %d at event %d: ApplyEvents reports %d changed, sequential replay %d", frame, lo, got, want)
			}
			rebuilt := model.graph()
			ep := sess.CurrentEpoch()
			if !ep.Graph().Equal(rebuilt) || ep.NumNodes() != rebuilt.NumNodes() || ep.NumEdges() != rebuilt.NumEdges() {
				t.Fatalf("frame %d at event %d: epoch %d's graph differs from the rebuilt prefix", frame, lo, ep.Seq())
			}
			truth := dkcore.Decompose(rebuilt)
			got := ep.CorenessValues()
			for u, k := range truth.CorenessValues() {
				if got[u] != k {
					t.Fatalf("frame %d at event %d: node %d at coreness %d, rebuild gives %d", frame, lo, u, got[u], k)
				}
			}
			if ep.Degeneracy() != truth.MaxCoreness() {
				t.Fatalf("frame %d at event %d: degeneracy %d, rebuild gives %d", frame, lo, ep.Degeneracy(), truth.MaxCoreness())
			}
		}
		if epochs := sess.Stats().Batches; frame > 1 && epochs > int64(len(events)/frame+1) {
			t.Fatalf("frame %d: %d epochs for %d frames", frame, epochs, len(events)/frame+1)
		}
		sess.Close()
	}
}

// onePublishBytes opens a session over an n-node power-law graph and
// returns the median number of bytes the process allocates around one
// waited event (runtime.MemStats.TotalAlloc), over a fixed set of
// events whose endpoints sit on different pages.
func onePublishBytes(t *testing.T, n int) uint64 {
	g := dkcore.GeneratePowerLaw(dkcore.PowerLawConfig{N: n, Exponent: 2.2, MinDeg: 3}, 1)
	sess, err := dkcore.NewSession(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.InsertEdge(n/2, n/2+1) // warm the writer's scratch
	sess.DeleteEdge(n/2, n/2+1)

	var samples []uint64
	var before, after runtime.MemStats
	for i := 1; i <= 9; i++ {
		ev := dkcore.EdgeEvent{Op: dkcore.EdgeInsert, U: i * n / 20, V: n - i*n/20}
		if sess.HasEdge(ev.U, ev.V) {
			ev.Op = dkcore.EdgeDelete
		}
		seq := sess.CurrentEpoch().Seq()
		runtime.ReadMemStats(&before)
		changed := sess.ApplyEvent(ev)
		runtime.ReadMemStats(&after)
		if !changed || sess.CurrentEpoch().Seq() != seq+1 {
			t.Fatalf("n=%d: event %v did not publish exactly one epoch", n, ev)
		}
		samples = append(samples, after.TotalAlloc-before.TotalAlloc)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2]
}

// TestPublishBytesScaleFree is the deterministic scale gate on the epoch
// publish (make bench-allocs): the bytes one waited event allocates —
// page tables, the pages and rows it dirtied, the epoch — must stay
// under 64 KiB and within 2x between a 20k-node and a 200k-node graph.
// Any O(n) or O(m) copy back on the publish path (a coreness vector is
// 1.6 MB at 200k nodes) fails both bounds by an order of magnitude.
func TestPublishBytesScaleFree(t *testing.T) {
	small, large := onePublishBytes(t, 20000), onePublishBytes(t, 200000)
	t.Logf("one-event publish: %d B at 20k nodes, %d B at 200k nodes", small, large)
	const limit = 64 << 10
	if small > limit || large > limit {
		t.Errorf("one-event publish allocates %d B at 20k nodes and %d B at 200k, limit %d", small, large, limit)
	}
	if large >= 2*small {
		t.Errorf("one-event publish allocates %d B at 200k nodes, %d B at 20k: not independent of graph size", large, small)
	}
}

// frameBytesPerEvent opens a session over an n-node power-law graph and
// returns the median number of bytes the process allocates around one
// waited frame of 16 events with random endpoints, divided by 16.
func frameBytesPerEvent(t *testing.T, n int) uint64 {
	g := dkcore.GeneratePowerLaw(dkcore.PowerLawConfig{N: n, Exponent: 2.2, MinDeg: 3}, 1)
	sess, err := dkcore.NewSession(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	rng := rand.New(rand.NewSource(int64(n)))
	frame := make([]dkcore.EdgeEvent, 16)
	var samples []uint64
	var before, after runtime.MemStats
	for i := 0; i <= 9; i++ {
		for j := range frame {
			ev := dkcore.EdgeEvent{Op: dkcore.EdgeInsert, U: rng.Intn(n), V: rng.Intn(n)}
			if sess.HasEdge(ev.U, ev.V) {
				ev.Op = dkcore.EdgeDelete
			}
			frame[j] = ev
		}
		runtime.ReadMemStats(&before)
		sess.ApplyEvents(frame)
		runtime.ReadMemStats(&after)
		if i > 0 { // the first frame warms the writer's scratch
			samples = append(samples, (after.TotalAlloc-before.TotalAlloc)/uint64(len(frame)))
		}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2]
}

// TestPublishBytesPerEvent is the deterministic per-event gate on the
// epoch publish (make bench-allocs): a waited frame of 16 random events
// dirties some 32 scattered nodes, and must allocate at most 4 KiB per
// event on a 50k-node and on a 300k-node graph. Copying anything coarser
// than a small leaf per written entry, or a root that grows faster than
// n/1024 pointers, fails it.
func TestPublishBytesPerEvent(t *testing.T) {
	small, large := frameBytesPerEvent(t, 50000), frameBytesPerEvent(t, 300000)
	t.Logf("16-event frame: %d B per event at 50k nodes, %d B per event at 300k nodes", small, large)
	const limit = 4 << 10
	if small > limit || large > limit {
		t.Errorf("a 16-event frame allocates %d B per event at 50k nodes and %d B at 300k, limit %d", small, large, limit)
	}
}
