package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dkcore"
	"dkcore/internal/transport"
)

func testSession(t *testing.T, g *dkcore.Graph, opts ...dkcore.SessionOption) *dkcore.Session {
	t.Helper()
	sess, err := dkcore.NewSession(context.Background(), g, opts...)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	t.Cleanup(func() { sess.Close() })
	return sess
}

// pathGraph builds a path 0-1-2-...-(n-1): coreness 1 everywhere,
// degeneracy 1 — easy to reason about in assertions.
func pathGraph(t *testing.T, n int) *dkcore.Graph {
	t.Helper()
	b := dkcore.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

func getJSON(t *testing.T, srv *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
	return resp
}

func TestHTTPQueries(t *testing.T) {
	sess := testSession(t, pathGraph(t, 6))
	srv := httptest.NewServer(New(sess).Handler())
	defer srv.Close()

	var cor struct {
		Epoch    uint64         `json:"epoch"`
		Coreness map[string]int `json:"coreness"`
	}
	resp := getJSON(t, srv, "/coreness?node=0&node=3&node=99", &cor)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/coreness status %d", resp.StatusCode)
	}
	if cor.Epoch != 1 {
		t.Fatalf("epoch %d, want 1", cor.Epoch)
	}
	// Path graph: all real nodes coreness 1, unknown node 99 reports 0.
	if cor.Coreness["0"] != 1 || cor.Coreness["3"] != 1 || cor.Coreness["99"] != 0 {
		t.Fatalf("coreness map %v", cor.Coreness)
	}

	var kc struct {
		Epoch   uint64 `json:"epoch"`
		K       int    `json:"k"`
		Count   int    `json:"count"`
		Members []int  `json:"members"`
	}
	getJSON(t, srv, "/kcore?k=1", &kc)
	if kc.Count != 6 || len(kc.Members) != 6 {
		t.Fatalf("1-core %+v, want all 6 nodes", kc)
	}
	getJSON(t, srv, "/kcore?k=2", &kc)
	if kc.Count != 0 || len(kc.Members) != 0 {
		t.Fatalf("2-core %+v, want empty (members must be [], not null)", kc)
	}

	var deg struct {
		Epoch      uint64 `json:"epoch"`
		Degeneracy int    `json:"degeneracy"`
	}
	getJSON(t, srv, "/degeneracy", &deg)
	if deg.Degeneracy != 1 {
		t.Fatalf("degeneracy %d, want 1", deg.Degeneracy)
	}

	var st Stats
	getJSON(t, srv, "/stats", &st)
	if st.Epoch != 1 || st.Nodes != 6 || st.Edges != 5 || st.Degeneracy != 1 {
		t.Fatalf("stats %+v", st)
	}

	var hz struct {
		OK       bool   `json:"ok"`
		Epoch    uint64 `json:"epoch"`
		EpochLag int64  `json:"epoch_lag"`
	}
	resp = getJSON(t, srv, "/healthz", &hz)
	if resp.StatusCode != http.StatusOK || !hz.OK {
		t.Fatalf("healthz %d %+v", resp.StatusCode, hz)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	sess := testSession(t, pathGraph(t, 4))
	srv := httptest.NewServer(New(sess).Handler())
	defer srv.Close()

	for _, tc := range []struct {
		path string
		want int
	}{
		{"/coreness", http.StatusBadRequest},            // no nodes
		{"/coreness?node=zebra", http.StatusBadRequest}, // non-numeric
		{"/kcore", http.StatusBadRequest},               // missing k
		{"/kcore?k=many", http.StatusBadRequest},
		{"/mutate", http.StatusMethodNotAllowed}, // GET on POST endpoint
		{"/nosuch", http.StatusNotFound},
	} {
		resp := getJSON(t, srv, tc.path, nil)
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s: status %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}

	// POST on a GET endpoint.
	resp, err := srv.Client().Post(srv.URL+"/degeneracy", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /degeneracy: status %d", resp.StatusCode)
	}

	// Malformed mutate bodies.
	for _, body := range []string{
		`{"events": [{"op": "explode", "u": 0, "v": 1}]}`,
		`{"events": [{"op": "insert", "u": -5, "v": 1}]}`,
		`{"unknown_field": true}`,
		`not json at all`,
	} {
		resp, err := srv.Client().Post(srv.URL+"/mutate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /mutate %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestHTTPMutate(t *testing.T) {
	sess := testSession(t, pathGraph(t, 4))
	srv := httptest.NewServer(New(sess).Handler())
	defer srv.Close()

	// Synchronous: close the path into a cycle; every node reaches
	// coreness 2 in the response's epoch.
	body := `{"events": [{"op": "insert", "u": 3, "v": 0}, {"op": "insert", "u": 3, "v": 0}]}`
	resp, err := srv.Client().Post(srv.URL+"/mutate?wait=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var res MutateResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate status %d", resp.StatusCode)
	}
	if res.Applied != 2 || res.Changed != 1 {
		t.Fatalf("mutate result %+v, want applied=2 changed=1 (duplicate no-op)", res)
	}
	var deg struct {
		Epoch      uint64 `json:"epoch"`
		Degeneracy int    `json:"degeneracy"`
	}
	getJSON(t, srv, "/degeneracy", &deg)
	if deg.Degeneracy != 2 || deg.Epoch < res.Epoch {
		t.Fatalf("after cycle close: degeneracy %d epoch %d (mutate epoch %d)", deg.Degeneracy, deg.Epoch, res.Epoch)
	}

	// Async enqueue: accepted with Changed == -1; Flush then observe.
	body = `{"events": [{"op": "delete", "u": 3, "v": 0}]}`
	resp, err = srv.Client().Post(srv.URL+"/mutate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if res.Applied != 1 || res.Changed != -1 {
		t.Fatalf("enqueue result %+v, want applied=1 changed=-1", res)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	getJSON(t, srv, "/degeneracy", &deg)
	if deg.Degeneracy != 1 {
		t.Fatalf("after async delete: degeneracy %d, want 1", deg.Degeneracy)
	}
}

func TestBinaryProtocol(t *testing.T) {
	sess := testSession(t, pathGraph(t, 5))
	s := New(sess)
	addr, err := s.ListenBinary("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	c, err := DialClient(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	k, epoch, err := c.Coreness(2)
	if err != nil || k != 1 || epoch != 1 {
		t.Fatalf("Coreness(2) = %d @%d, %v; want 1 @1", k, epoch, err)
	}
	if k, _, err = c.Coreness(999); err != nil || k != 0 {
		t.Fatalf("Coreness(999) = %d, %v; want 0 (unknown node)", k, err)
	}
	d, _, err := c.Degeneracy()
	if err != nil || d != 1 {
		t.Fatalf("Degeneracy = %d, %v; want 1", d, err)
	}
	members, _, err := c.KCoreMembers(1)
	if err != nil || len(members) != 5 {
		t.Fatalf("KCoreMembers(1) = %v, %v; want 5 nodes", members, err)
	}
	st, err := c.Stats()
	if err != nil || st.Nodes != 5 || st.Edges != 4 || st.Epoch != 1 {
		t.Fatalf("Stats = %+v, %v", st, err)
	}

	// Synchronous mutate: close the cycle, degeneracy rises to 2 and the
	// response epoch already reflects it.
	res, err := c.Mutate([]dkcore.EdgeEvent{{Op: dkcore.EdgeInsert, U: 4, V: 0}}, true)
	if err != nil || res.Applied != 1 || res.Changed != 1 {
		t.Fatalf("Mutate = %+v, %v", res, err)
	}
	d, epoch, err = c.Degeneracy()
	if err != nil || d != 2 || epoch < res.Epoch {
		t.Fatalf("post-mutate Degeneracy = %d @%d, %v", d, epoch, err)
	}

	// Async mutate reports Changed == -1.
	res, err = c.Mutate([]dkcore.EdgeEvent{{Op: dkcore.EdgeDelete, U: 4, V: 0}}, false)
	if err != nil || res.Changed != -1 {
		t.Fatalf("async Mutate = %+v, %v", res, err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	if d, _, _ = c.Degeneracy(); d != 1 {
		t.Fatalf("post-async-delete Degeneracy = %d, want 1", d)
	}

	// A waited frame is one epoch however many events it holds, with the
	// sequential changed count: the flapping edge counts twice and costs
	// the graph nothing, the duplicate insert counts for nothing.
	before := sess.Stats()
	res, err = c.Mutate([]dkcore.EdgeEvent{
		{Op: dkcore.EdgeInsert, U: 1, V: 3},
		{Op: dkcore.EdgeDelete, U: 3, V: 1},
		{Op: dkcore.EdgeInsert, U: 0, V: 2},
		{Op: dkcore.EdgeInsert, U: 2, V: 0},
	}, true)
	if err != nil || res.Applied != 4 || res.Changed != 3 || res.Epoch != before.Epoch+1 {
		t.Fatalf("waited frame = %+v, %v; want 4 applied, 3 changed, epoch %d", res, err, before.Epoch+1)
	}
	if after := sess.Stats(); after.Batches != before.Batches+1 || after.NumEdges != before.NumEdges+1 {
		t.Fatalf("waited frame moved batches %d -> %d, edges %d -> %d; want one epoch, one net edge",
			before.Batches, after.Batches, before.NumEdges, after.NumEdges)
	}
}

// TestBinaryMutateQueueFull: an enqueue-mode frame that fills the
// session's queue part-way is answered with how many of its events were
// accepted, not with a bare error. The writer is kept busy in a
// deletion cascade around a 40k-node cycle while a queue of 2 takes the
// frame; the reply's applied count must equal what the session
// accepted, and resending the suffix must end in the state of a one-shot
// replay of the whole frame.
func TestBinaryMutateQueueFull(t *testing.T) {
	const n = 40000
	b := dkcore.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	g := b.Build()
	sess := testSession(t, g, dkcore.QueueSize(2))
	s := New(sess)
	addr, err := s.ListenBinary("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	c, err := DialClient(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Chords that flap: every third event deletes the chord inserted
	// before it, so the outcome depends on which events were applied.
	var frame []dkcore.EdgeEvent
	for i := 0; len(frame) < 3000; i += 7 {
		ev := dkcore.EdgeEvent{Op: dkcore.EdgeInsert, U: i, V: i + 2}
		frame = append(frame, ev)
		if len(frame)%3 == 2 {
			frame = append(frame, dkcore.EdgeEvent{Op: dkcore.EdgeDelete, U: ev.V, V: ev.U})
		}
	}
	cut := dkcore.EdgeEvent{Op: dkcore.EdgeDelete, U: 0, V: 1} // collapses the whole cycle
	if err := sess.Enqueue(cut); err != nil {
		t.Fatal(err)
	}
	enqueued := sess.Stats().Enqueued
	res, err := c.Mutate(frame, false)
	if !errors.Is(err, dkcore.ErrQueueFull) || res.Applied >= len(frame) || res.Changed != -1 {
		t.Fatalf("Mutate into a full queue = %+v, %v; want a partial result and ErrQueueFull", res, err)
	}
	if accepted := sess.Stats().Enqueued - enqueued; int64(res.Applied) != accepted {
		t.Fatalf("reply says %d events applied, the session accepted %d", res.Applied, accepted)
	}
	rest, err := c.Mutate(frame[res.Applied:], true)
	if err != nil || rest.Applied != len(frame)-res.Applied {
		t.Fatalf("resending the suffix = %+v, %v", rest, err)
	}

	replay := dkcore.NewMaintainer(g)
	replay.Apply(cut)
	for _, ev := range frame {
		replay.Apply(ev)
	}
	ep := sess.CurrentEpoch()
	if !ep.Graph().Equal(replay.Graph()) {
		t.Fatalf("after resending the suffix the edge set differs from a one-shot replay")
	}
	for u, k := range replay.CorenessValues() {
		if got := ep.Coreness(u); got != k {
			t.Fatalf("node %d at coreness %d, one-shot replay gives %d", u, got, k)
		}
	}
}

func TestBinaryMalformedFrames(t *testing.T) {
	sess := testSession(t, pathGraph(t, 3))
	s := New(sess)
	addr, err := s.ListenBinary("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	conn, err := transport.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Each malformed request must produce a FrameRespError, and the
	// connection must stay usable afterwards.
	bad := []struct {
		typ     uint8
		payload []byte
	}{
		{FrameQueryCoreness, nil},                     // missing arg
		{FrameQueryCoreness, []byte{0x80}},            // truncated varint
		{FrameQueryCoreness, []byte{0x01, 0x02}},      // trailing bytes
		{FrameQueryDegeneracy, []byte{0x00}},          // unexpected payload
		{FrameMutate, nil},                            // no wait byte
		{FrameMutate, []byte{0x02}},                   // bad wait flag
		{FrameMutate, []byte{0x00, 0xff, 0xff, 0x7f}}, // count exceeds payload
		{FrameMutate, []byte{0x00, 0x01, 0x07, 0x01}}, // bad op byte
		{0x7f, nil}, // unknown type
	}
	for _, tc := range bad {
		if err := conn.Send(tc.typ, tc.payload); err != nil {
			t.Fatalf("send 0x%x: %v", tc.typ, err)
		}
		typ, _, err := conn.Recv()
		if err != nil {
			t.Fatalf("recv after 0x%x: %v", tc.typ, err)
		}
		if typ != FrameRespError {
			t.Fatalf("frame 0x%x: response 0x%x, want FrameRespError", tc.typ, typ)
		}
	}

	// Still serving valid queries on the same connection.
	if err := conn.Send(FrameQueryDegeneracy, nil); err != nil {
		t.Fatal(err)
	}
	typ, _, err := conn.Recv()
	if err != nil || typ != FrameRespValue {
		t.Fatalf("valid query after errors: 0x%x, %v", typ, err)
	}
}

func TestDecodeMutateRoundTrip(t *testing.T) {
	events := []dkcore.EdgeEvent{
		{Op: dkcore.EdgeInsert, U: 0, V: 1},
		{Op: dkcore.EdgeDelete, U: 300, V: 7},
		{Op: dkcore.EdgeInsert, U: 1 << 20, V: 2},
	}
	for _, wait := range []bool{false, true} {
		buf := AppendMutate(nil, events, wait)
		got, gotWait, err := DecodeMutate(buf)
		if err != nil {
			t.Fatalf("wait=%v: %v", wait, err)
		}
		if gotWait != wait || len(got) != len(events) {
			t.Fatalf("wait=%v: got wait=%v len=%d", wait, gotWait, len(got))
		}
		for i := range events {
			if got[i].Op != events[i].Op || got[i].U != events[i].U || got[i].V != events[i].V {
				t.Fatalf("event %d: %+v != %+v", i, got[i], events[i])
			}
		}
	}
}

func TestGracefulShutdown(t *testing.T) {
	sess := testSession(t, pathGraph(t, 4))
	s := New(sess)
	httpAddr, err := s.ListenHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	binAddr, err := s.ListenBinary("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// An idle binary client would block shutdown forever without the
	// force-close path; give it a short grace period.
	idle, err := DialClient(binAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	// One round trip first: a dial returns once the kernel has the
	// connection, which can be before the accept loop has registered it,
	// and Shutdown would then see no client to wait for.
	if _, _, err := idle.Degeneracy(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = s.Shutdown(ctx)
	if err == nil {
		t.Fatal("Shutdown with idle binary client returned nil, want grace-expired error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Shutdown took %v despite grace period", elapsed)
	}

	// Both listeners are down.
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", httpAddr)); err == nil {
		t.Error("HTTP listener still accepting after Shutdown")
	}
	if _, err := DialClient(binAddr.String()); err == nil {
		t.Error("binary listener still accepting after Shutdown")
	}

	// Session itself is untouched: reads still work.
	if got := sess.Degeneracy(); got != 1 {
		t.Fatalf("session degeneracy after server shutdown: %d", got)
	}
}

// TestConcurrentServeSmoke hammers one server over both protocols while
// a writer churns, asserting every response is internally consistent
// (run under -race in CI).
func TestConcurrentServeSmoke(t *testing.T) {
	g := dkcore.GenerateBarabasiAlbert(80, 3, 11)
	sess := testSession(t, g)
	s := New(sess)
	httpSrv := httptest.NewServer(s.Handler())
	defer httpSrv.Close()
	binAddr, err := s.ListenBinary("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	stop := make(chan struct{})
	var wg, churnWG sync.WaitGroup

	// Churn writer: flap edges between hub nodes until the bounded
	// readers and mutators below are done. The Gosched matters on a
	// single-CPU runner: a synchronous ApplyEvent loop ping-pongs with
	// the session writer goroutine through the runnext scheduler slot
	// and can starve the network handlers for ~100ms per wakeup.
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			u, v := i%7, 10+(i%13)
			sess.ApplyEvent(dkcore.EdgeEvent{Op: dkcore.EdgeInsert, U: u, V: v})
			sess.ApplyEvent(dkcore.EdgeEvent{Op: dkcore.EdgeDelete, U: u, V: v})
			runtime.Gosched()
		}
	}()

	// HTTP reader.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			resp, err := httpSrv.Client().Get(httpSrv.URL + "/degeneracy")
			if err != nil {
				t.Errorf("http reader: %v", err)
				return
			}
			var deg struct {
				Epoch      uint64 `json:"epoch"`
				Degeneracy int    `json:"degeneracy"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&deg); err != nil {
				t.Errorf("http reader decode: %v", err)
				resp.Body.Close()
				return
			}
			resp.Body.Close()
			if deg.Degeneracy < 1 {
				t.Errorf("http reader: degeneracy %d", deg.Degeneracy)
				return
			}
		}
	}()

	// Binary reader with its own connection.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := DialClient(binAddr.String())
		if err != nil {
			t.Errorf("binary reader dial: %v", err)
			return
		}
		defer c.Close()
		var lastEpoch uint64
		for i := 0; i < 200; i++ {
			d, epoch, err := c.Degeneracy()
			if err != nil {
				t.Errorf("binary reader: %v", err)
				return
			}
			if d < 1 {
				t.Errorf("binary reader: degeneracy %d", d)
				return
			}
			if epoch < lastEpoch {
				t.Errorf("binary reader: epoch regressed %d -> %d", lastEpoch, epoch)
				return
			}
			lastEpoch = epoch
		}
	}()

	// Binary mutator on a separate connection.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := DialClient(binAddr.String())
		if err != nil {
			t.Errorf("binary mutator dial: %v", err)
			return
		}
		defer c.Close()
		for i := 0; i < 50; i++ {
			ev := dkcore.EdgeEvent{Op: dkcore.EdgeInsert, U: 20 + i%5, V: 30 + i%7}
			if _, err := c.Mutate([]dkcore.EdgeEvent{ev}, i%2 == 0); err != nil {
				t.Errorf("binary mutator: %v", err)
				return
			}
		}
	}()

	// Let readers/mutators finish, then stop the churn writer.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		close(stop)
		t.Fatal("smoke goroutines did not finish in 30s")
	}
	close(stop)
	churnWG.Wait()

	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
}
