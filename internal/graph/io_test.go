package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"testing/quick"
	"time"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := `# a comment
% another comment

100 200
200 300
100 300
`
	g, orig, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %d nodes %d edges, want 3/3", g.NumNodes(), g.NumEdges())
	}
	wantOrig := []int64{100, 200, 300}
	for i, want := range wantOrig {
		if orig[i] != want {
			t.Fatalf("origID[%d] = %d, want %d", i, orig[i], want)
		}
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || !g.HasEdge(0, 2) {
		t.Fatalf("edges missing after remap")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{name: "one field", in: "42\n"},
		{name: "non-numeric", in: "a b\n"},
		{name: "negative", in: "-1 2\n"},
		{name: "second field bad", in: "1 x\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, _, err := ReadEdgeList(strings.NewReader(tt.in))
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("err = %v, want ErrBadFormat", err)
			}
		})
	}
}

// TestEdgeListRoundTrip: the read-back graph, mapped through origID, has
// exactly the written edge set; isolated nodes are not written, so the
// node counts agree only when the original has none.
func TestEdgeListRoundTrip(t *testing.T) {
	withIsolated := NewBuilder(10)
	withIsolated.AddEdge(2, 7)
	withIsolated.AddEdge(7, 4)
	for _, g := range []*Graph{randomGraph(60, 200, 11), pathGraph(30), withIsolated.Build()} {
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, orig, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if g2.NumEdges() != g.NumEdges() {
			t.Fatalf("edges: got %d, want %d", g2.NumEdges(), g.NumEdges())
		}
		g2.Edges(func(u, v int) bool {
			if !g.HasEdge(int(orig[u]), int(orig[v])) {
				t.Fatalf("read back edge {%d, %d}, which was never written", orig[u], orig[v])
			}
			return true
		})
		if g.MinDegree() > 0 && g2.NumNodes() != g.NumNodes() {
			t.Fatalf("nodes: got %d, want %d", g2.NumNodes(), g.NumNodes())
		}
	}
}

// TestWriteEdgeListMatchesFprintf: the byte output is the one a
// fmt.Fprintf per edge gives.
func TestWriteEdgeListMatchesFprintf(t *testing.T) {
	g := randomGraph(5000, 40000, 5)
	var want bytes.Buffer
	fmt.Fprintf(&want, "# nodes: %d edges: %d\n", g.NumNodes(), g.NumEdges())
	g.Edges(func(u, v int) bool {
		fmt.Fprintf(&want, "%d %d\n", u, v)
		return true
	})
	var got bytes.Buffer
	if err := WriteEdgeList(&got, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteEdgeList output (%d bytes) differs from the fmt.Fprintf reference (%d bytes)", got.Len(), want.Len())
	}
}

// TestReadEdgeListSparseIDs: IDs far apart or near math.MaxInt64 keep
// their first-appearance numbering, and the remap stays O(nodes) in
// memory: a table sized to the largest raw ID could not be allocated.
func TestReadEdgeListSparseIDs(t *testing.T) {
	const edges = 1000
	var in bytes.Buffer
	var want []int64
	seen := make(map[int64]bool)
	for i := int64(0); i < edges; i++ {
		u, v := i*1_000_000_000_000, math.MaxInt64-i
		if i%3 == 0 {
			v = (i + 7) * 1_000_000_000_000
		}
		for _, id := range []int64{u, v} {
			if !seen[id] {
				seen[id] = true
				want = append(want, id)
			}
		}
		fmt.Fprintf(&in, "%d %d\n", u, v)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, orig, err := ReadEdgeList(&in)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("ReadEdgeList allocated %d bytes for %d edges, want < 1 MiB", alloc, edges)
	}
	if len(orig) != len(want) || g.NumNodes() != len(want) {
		t.Fatalf("got %d origIDs / %d nodes, want %d", len(orig), g.NumNodes(), len(want))
	}
	for i := range want {
		if orig[i] != want[i] {
			t.Fatalf("origID[%d] = %d, want %d", i, orig[i], want[i])
		}
	}
	if g.NumEdges() != edges {
		t.Fatalf("got %d edges, want %d", g.NumEdges(), edges)
	}
}

// referenceInputs are, at sizes the fuzzer does not reach, the inputs
// that move IDs between the dense-ID table and its map: an ID first seen
// beyond the table's reach and seen again once the table has grown over
// it, dense IDs in shuffled order, and 1-based IDs listed in both
// directions.
func referenceInputs() map[string][]byte {
	rng := rand.New(rand.NewSource(9))
	var reach, shuffled, both bytes.Buffer
	fmt.Fprintf(&reach, "50000 7\n")
	for i := 0; i < 60000; i++ {
		fmt.Fprintf(&reach, "%d %d\n", i, i+1)
	}
	fmt.Fprintf(&reach, "50000 3\n%d 1\n", int64(math.MaxInt64))
	perm := rng.Perm(40000)
	for i := 0; i < 100000; i++ {
		fmt.Fprintf(&shuffled, "%d %d\n", perm[rng.Intn(len(perm))], perm[rng.Intn(len(perm))])
	}
	for i := 0; i < 20000; i++ {
		u, v := rng.Intn(5000)+1, rng.Intn(5000)+1
		fmt.Fprintf(&both, "%d\t%d\n%d\t%d\n", u, v, v, u)
	}
	return map[string][]byte{"reach": reach.Bytes(), "shuffled": shuffled.Bytes(), "both directions": both.Bytes()}
}

// TestReadEdgeListMatchesReference holds ReadEdgeList to the reference
// reader on referenceInputs.
func TestReadEdgeListMatchesReference(t *testing.T) {
	for name, in := range referenceInputs() {
		g, orig, err := ReadEdgeList(bytes.NewReader(in))
		wantG, wantOrig, wantErr := referenceReadEdgeList(bytes.NewReader(in))
		if err != nil || wantErr != nil {
			t.Fatalf("%s: error %v, reference %v", name, err, wantErr)
		}
		if !g.Equal(wantG) || !slices.Equal(orig, wantOrig) {
			t.Fatalf("%s: %d nodes / %d edges, reference %d / %d", name, g.NumNodes(), g.NumEdges(), wantG.NumNodes(), wantG.NumEdges())
		}
	}
}

// errAfter is a reader of data that fails with err once data is used
// up, returning the error with the last bytes when together is set.
type errAfter struct {
	data     []byte
	err      error
	together bool
}

func (r *errAfter) Read(p []byte) (int, error) {
	n := copy(p, r.data)
	r.data = r.data[n:]
	if len(r.data) == 0 && (n == 0 || r.together) {
		return n, r.err
	}
	return n, nil
}

// pipelineCases are inputs that cross the pipeline's seams: a line
// across a window boundary, lines at and past the 1 MiB limit, and a
// parse error before a read error. Each builds a fresh reader.
func pipelineCases() map[string]func() io.Reader {
	bytesOf := func(in string) func() io.Reader {
		return func() io.Reader { return strings.NewReader(in) }
	}
	cases := make(map[string]func() io.Reader)
	for name, in := range referenceInputs() {
		cases[name] = bytesOf(string(in))
	}
	// "1 2\n" lines up to four bytes short of the first window's end,
	// then one line across it.
	fill := strings.Repeat("1 2\n", windowBytes/4-1)
	cases["line across a window boundary"] = bytesOf(fill + "123456 654321\n7 8\n")
	cases["comment across a window boundary"] = bytesOf(fill + "# a comment\nbad\n")
	long := func(n int) string { return "3 4 " + strings.Repeat("x", n-4) }
	cases["line of 1 MiB - 1 bytes"] = bytesOf("1 2\n" + long(maxLineBytes-1) + "\n5 6\n")
	cases["line of 1 MiB - 2 bytes and CR"] = bytesOf("1 2\n" + long(maxLineBytes-2) + "\r\n5 6\n")
	cases["line of 1 MiB"] = bytesOf("1 2\n" + long(maxLineBytes) + "\n5 6\n")
	cases["line over 1 MiB"] = bytesOf("1 2\n" + long(3*maxLineBytes/2) + "\nbad\n")
	cases["last line of 1 MiB - 1 bytes"] = bytesOf("1 2\n" + long(maxLineBytes-1))
	cases["last line of 1 MiB"] = bytesOf("1 2\n" + long(maxLineBytes))
	boom := errors.New("boom")
	failing := func(in string, together bool) func() io.Reader {
		return func() io.Reader { return &errAfter{data: []byte(in), err: boom, together: together} }
	}
	cases["parse error before read error"] = failing(fill+"1 2\nbad\n3 4\n", false)
	cases["parse error on the cut line"] = failing(fill+"1 2\n3", true)
	cases["read error"] = failing(fill+"1 2\n3 4\n", false)
	cases["read error after an unterminated line"] = failing(fill+"1 2\n3 4", true)
	cases["read error amid a line over 1 MiB"] = failing("1 2\n"+long(maxLineBytes+10), false)
	cases["eof with the last bytes"] = func() io.Reader { return iotest.DataErrReader(strings.NewReader(fill + "5 6\n7 8")) }
	cases["eof with a line of 1 MiB"] = func() io.Reader { return iotest.DataErrReader(strings.NewReader("1 2\n" + long(maxLineBytes))) }
	return cases
}

// TestReadEdgeListWorkers holds the pipeline to the reference reader on
// every worker count from 1 to 4, on pipelineCases read whole, a byte at
// a time and half a buffer at a time: the same graph, origID and error
// text. The reference reads each case whole; the cases' readers end the
// same way whatever the size of the reads.
func TestReadEdgeListWorkers(t *testing.T) {
	wrappers := map[string]func(io.Reader) io.Reader{
		"":               func(r io.Reader) io.Reader { return r },
		"OneByteReader/": iotest.OneByteReader,
		"HalfReader/":    iotest.HalfReader,
	}
	for name, open := range pipelineCases() {
		wantG, wantOrig, wantErr := referenceReadEdgeList(open())
		for wname, wrap := range wrappers {
			if wname == "OneByteReader/" && strings.Contains(name, "MiB") {
				continue // a million one-byte reads per run, and the plain and half readers cover these
			}
			for workers := 1; workers <= 4; workers++ {
				g, orig, err := readEdgeList(wrap(open()), workers)
				if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
					t.Fatalf("%s%s at %d workers: error %v, reference %v", wname, name, workers, err, wantErr)
				}
				if err == nil && (!g.Equal(wantG) || !slices.Equal(orig, wantOrig)) {
					t.Fatalf("%s%s at %d workers: %d nodes / %d edges, reference %d / %d", wname, name, workers, g.NumNodes(), g.NumEdges(), wantG.NumNodes(), wantG.NumEdges())
				}
			}
		}
	}
}

// TestReadEdgeListCallerParses drives the path where the caller parses a
// window no worker has started, on every window: at 0 workers nothing
// takes a window off the job queue. The result must still match the
// reference reader on pipelineCases, read whole and half a buffer at a
// time.
func TestReadEdgeListCallerParses(t *testing.T) {
	for name, open := range pipelineCases() {
		wantG, wantOrig, wantErr := referenceReadEdgeList(open())
		for _, wrap := range []func(io.Reader) io.Reader{func(r io.Reader) io.Reader { return r }, iotest.HalfReader} {
			g, orig, err := readEdgeList(wrap(open()), 0)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("%s: error %v, reference %v", name, err, wantErr)
			}
			if err == nil && (!g.Equal(wantG) || !slices.Equal(orig, wantOrig)) {
				t.Fatalf("%s: %d nodes / %d edges, reference %d / %d", name, g.NumNodes(), g.NumEdges(), wantG.NumNodes(), wantG.NumEdges())
			}
		}
	}
}

// TestParseJobsSkipsClaimed: a worker leaves a window the caller has
// claimed untouched and unsignalled, and parses and signals the rest.
func TestParseJobsSkipsClaimed(t *testing.T) {
	stolen := &window{data: []byte("1 2\n"), done: make(chan struct{}, 1)}
	queued := &window{data: []byte("3 4\n5 6\n"), done: make(chan struct{}, 1)}
	if !stolen.claim() {
		t.Fatal("a fresh window was already claimed")
	}
	jobs := make(chan *window, 2)
	jobs <- stolen
	jobs <- queued
	close(jobs)
	parseJobs(jobs)
	if stolen.pairs != nil || len(stolen.done) != 0 {
		t.Errorf("claimed window: %d pairs, %d done signals; want it untouched", len(stolen.pairs), len(stolen.done))
	}
	if len(queued.pairs) != 2 || len(queued.done) != 1 || queued.claim() {
		t.Errorf("unclaimed window: %d pairs, %d done signals; want 2 pairs, one signal and a claim", len(queued.pairs), len(queued.done))
	}
}

// TestReadEdgeListIDCeilingLine: an ID past the ceiling is reported at
// its own line, counting comment and blank lines and lines in earlier
// windows, and ahead of a bad line after it.
func TestReadEdgeListIDCeilingLine(t *testing.T) {
	in := strings.Repeat("1 2\n# c\n\n", windowBytes/5) + "2 1\n% c\n2 3\nbad\n"
	wantLine := 3*(windowBytes/5) + 3
	for workers := 1; workers <= 4; workers++ {
		m := remap{ids: denseIDs{limit: 2}, b: NewBuilder(0)}
		err := m.run(strings.NewReader(in), workers)
		want := fmt.Sprintf("%v: line %d: more than 2 distinct node ids", ErrBadFormat, wantLine)
		if err == nil || err.Error() != want {
			t.Fatalf("%d workers: error %v, want %s", workers, err, want)
		}
	}
}

// goid returns the calling goroutine's ID, from the first line of its
// stack trace ("goroutine 7 [running]:").
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// countingReader counts the Read calls made on a goroutine other than
// owner's, and those made after done is set.
type countingReader struct {
	r       io.Reader
	owner   string
	done    atomic.Bool
	foreign atomic.Int64
	after   atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	if goid() != c.owner {
		c.foreign.Add(1)
	}
	if c.done.Load() {
		c.after.Add(1)
	}
	return c.r.Read(p)
}

// TestReadEdgeListLeavesNothingRunning: after a read that succeeds and
// one that fails early in a long input, the goroutine count falls back
// to where it was, and r was read only by the caller and only before
// the return. A worker that has signalled its exit still counts until
// the runtime has finished it, so the count is polled for a second.
func TestReadEdgeListLeavesNothingRunning(t *testing.T) {
	good := referenceInputs()["shuffled"]
	bad := append([]byte("1 2\nbad\n"), good...)
	for _, in := range [][]byte{good, bad} {
		for workers := 1; workers <= 4; workers++ {
			before := runtime.NumGoroutine()
			r := &countingReader{r: bytes.NewReader(in), owner: goid()}
			_, _, err := readEdgeList(r, workers)
			r.done.Store(true)
			if (err != nil) != (len(in) == len(bad)) {
				t.Fatalf("%d workers: error %v", workers, err)
			}
			after := runtime.NumGoroutine()
			for deadline := time.Now().Add(time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
				runtime.Gosched()
			}
			if after > before {
				t.Fatalf("%d workers: %d goroutines before the read, %d a second after", workers, before, after)
			}
			if n := r.foreign.Load(); n != 0 {
				t.Fatalf("%d workers: %d reads of r on another goroutine", workers, n)
			}
			if n := r.after.Load(); n != 0 {
				t.Fatalf("%d workers: %d reads of r after the return", workers, n)
			}
		}
	}
}

// FuzzReadEdgeList holds ReadEdgeList to the map-and-sort reference: the
// same bytes give an Equal graph, the same origID and the same error text.
func FuzzReadEdgeList(f *testing.F) {
	for _, seed := range []string{
		"1 2\n2 3\n3 1\n",
		"-0 3\n",
		"+4 5\n",
		"1234567890123456789 1\n",
		"12345678901234567890 1\n",
		"999999999999999999 1000000000000000000\n",
		"1\u00a02\n",
		"\u00851 2  \n",
		"1 2\r\n3 4\r\n",
		"1\t2\n\t3\t\t4\t\n",
		"  # comment\n  % comment\n1 2\n",
		"1 2 3 4\n",
		"7\n",
		"1 2\n\n   ",
		"5 5\n5 6\n6 5\n",
		"00012 012\n",
		"1 2x\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, orig, err := ReadEdgeList(bytes.NewReader(data))
		wantG, wantOrig, wantErr := referenceReadEdgeList(bytes.NewReader(data))
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("error %v, reference %v", err, wantErr)
		}
		// The pipeline at two workers, fed a byte at a time.
		g2, orig2, err2 := readEdgeList(iotest.OneByteReader(bytes.NewReader(data)), 2)
		if (err2 == nil) != (wantErr == nil) || (err2 != nil && err2.Error() != wantErr.Error()) {
			t.Fatalf("one byte at a time: error %v, reference %v", err2, wantErr)
		}
		if err2 == nil && (!g2.Equal(wantG) || !slices.Equal(orig2, wantOrig)) {
			t.Fatalf("one byte at a time: graph %v / %v, origID %v; reference %v / %v, %v", g2.offsets, g2.adj, orig2, wantG.offsets, wantG.adj, wantOrig)
		}
		if err != nil {
			if !errors.Is(err, ErrBadFormat) && !errors.Is(err, bufio.ErrTooLong) {
				t.Fatalf("error %v wraps neither ErrBadFormat nor the scanner's", err)
			}
			return
		}
		if !g.Equal(wantG) {
			t.Fatalf("graph %v / %v, reference %v / %v", g.offsets, g.adj, wantG.offsets, wantG.adj)
		}
		if !slices.Equal(orig, wantOrig) {
			t.Fatalf("origID %v, reference %v", orig, wantOrig)
		}
	})
}

func TestBinaryRoundTripProperty(t *testing.T) {
	check := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw)%60 + 1
		m := int(mRaw) * 2
		g := randomGraph(n, m, seed)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			return false
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return g.Equal(g2)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryRoundTripPreservesIsolatedNodes(t *testing.T) {
	b := NewBuilder(10)
	b.AddEdge(0, 1)
	g := b.Build()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != 10 {
		t.Fatalf("got %d nodes, want 10", g2.NumNodes())
	}
	if !g.Equal(g2) {
		t.Fatalf("round trip changed graph")
	}
}

// TestReadBinaryClaimedNodesCostNothing: a header that claims about 2^31
// nodes and then ends is an error reached after allocating under 1 MiB.
func TestReadBinaryClaimedNodesCostNothing(t *testing.T) {
	data := binary.AppendUvarint([]byte(binaryMagic), MaxNodes)
	data = append(data, 0, 0, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBinary(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("ReadBinary accepted a truncated %d-node header", MaxNodes)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("ReadBinary allocated %d bytes for a %d-byte input, want < 1 MiB", alloc, len(data))
	}
	tooMany := binary.AppendUvarint([]byte(binaryMagic), MaxNodes+1)
	if _, err := ReadBinary(bytes.NewReader(tooMany)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("node count MaxNodes+1: error %v, want ErrBadFormat", err)
	}
}

// maxUvarint is the uvarint encoding of 2^64-1.
const maxUvarint = "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"

// TestReadBinaryRejectsNonSimple: a row that repeats a neighbor, a
// self-loop, an arc without its twin, a row that is not ascending and a
// neighbor outside [0, n) each break the simple, undirected invariant
// every engine assumes, and each is ErrBadFormat.
func TestReadBinaryRejectsNonSimple(t *testing.T) {
	for _, tc := range []struct{ name, data string }{
		{"repeated neighbor", "DKG2\x02\x02\x00\x02\x00"},
		{"self-loop", "DKG2\x02\x01\x01\x02\x00"},
		{"arc without twin", "DKG2\x03\x01\x01\x00\x02\x02"},
		// A first offset of -2^63 (the varint 2^64-1) and a gap of
		// 2^64-1 wrap if summed unchecked: a negative neighbor, and a
		// row that steps back from 2 to 1.
		{"gap wraps negative", "DKG2\x02\x01\x01" + maxUvarint + "\x01"},
		{"gap steps back", "DKG2\x03\x02\x01\x01\x04" + maxUvarint + "\x01\x03"},
		{"neighbor past n", "DKG2\x02\x01\x01\x04\x01"},
		{"neighbor below 0", "DKG2\x02\x01\x00\x01"},
	} {
		if g, err := ReadBinary(strings.NewReader(tc.data)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: got graph %v, error %v; want ErrBadFormat", tc.name, g, err)
		}
	}
}

// TestReadBinaryRejectsDKG1: a file in the retired DKG1 format, here a
// valid one-edge graph, is an ErrBadFormat that says to regenerate it;
// the same graph in DKG2 reads back.
func TestReadBinaryRejectsDKG1(t *testing.T) {
	_, err := ReadBinary(strings.NewReader("DKG1\x02\x01\x01\x01\x00"))
	if !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), "regenerate") {
		t.Fatalf("DKG1 input: error %v, want an ErrBadFormat saying to regenerate the file", err)
	}
	g, err := ReadBinary(strings.NewReader("DKG2\x02\x01\x01\x02\x01"))
	if err != nil || g.NumNodes() != 2 || !g.HasEdge(0, 1) || g.NumEdges() != 1 {
		t.Fatalf("DKG2 input: graph %v, error %v; want the edge {0, 1}", g, err)
	}
}

// checkSimple reports the first way g breaks the simple, undirected
// invariant: a row not strictly ascending, a self-loop, or an arc
// without its twin.
func checkSimple(g *Graph) error {
	for u := 0; u < g.NumNodes(); u++ {
		row := g.Neighbors(u)
		for i, v := range row {
			if i > 0 && row[i-1] >= v {
				return fmt.Errorf("row %d not strictly ascending: %v", u, row)
			}
			if v == u {
				return fmt.Errorf("self-loop at %d", u)
			}
			if _, ok := slices.BinarySearch(g.Neighbors(v), u); !ok {
				return fmt.Errorf("arc %d→%d without its twin", u, v)
			}
		}
	}
	return nil
}

// FuzzReadBinary: ReadBinary never panics, whatever it accepts is a
// simple, undirected graph, and it survives a WriteBinary round trip
// unchanged.
func FuzzReadBinary(f *testing.F) {
	for _, g := range []*Graph{NewBuilder(0).Build(), NewBuilder(3).Build(), pathGraph(5), randomGraph(30, 80, 1)} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("DKG2\x02\x01\x01\x02\x01"))
	f.Add([]byte("DKG1\x02\x01\x01\x01\x00")) // the same graph in the retired format
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !bytes.HasPrefix(data, []byte(binaryMagic)) {
			t.Fatalf("accepted input without the %s magic: %q", binaryMagic, data)
		}
		if err := checkSimple(g); err != nil {
			t.Fatalf("accepted a graph that is not simple and undirected: %v (%v / %v)", err, g.offsets, g.adj)
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		again, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("re-reading an accepted graph: %v", err)
		}
		if !again.Equal(g) {
			t.Fatalf("round trip changed the graph: %v / %v, then %v / %v", g.offsets, g.adj, again.offsets, again.adj)
		}
	})
}

// TestDenseIDsLimit: the remap numbers at most limit distinct IDs (MaxNodes
// in ReadEdgeList, which reports the first one past it as ErrBadFormat)
// and refuses the rest without recording them.
func TestDenseIDsLimit(t *testing.T) {
	d := denseIDs{limit: 2}
	for i, raw := range []int64{7, 1 << 40, 7, 1 << 40} {
		if id, ok := d.dense(raw); !ok || id != i%2 {
			t.Fatalf("dense(%d) = %d, %v; want %d, true", raw, id, ok, i%2)
		}
	}
	for _, raw := range []int64{8, 1 << 41} {
		if _, ok := d.dense(raw); ok {
			t.Fatalf("dense(%d) numbered a third ID under limit 2", raw)
		}
	}
	if len(d.origID) != 2 {
		t.Fatalf("origID %v after a refused ID, want 2 entries", d.origID)
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	tests := []struct {
		name string
		data []byte
	}{
		{name: "empty", data: nil},
		{name: "bad magic", data: []byte("NOPE")},
		{name: "truncated after magic", data: []byte("DKG2")},
		{name: "truncated adjacency", data: []byte("DKG2\x02\x01")},
		{name: "rows missing", data: []byte("DKG2\x02\x01\x01")},
		{name: "trailing bytes", data: []byte("DKG2\x02\x01\x01\x02\x01\x00")},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadBinary(bytes.NewReader(tt.data)); err == nil {
				t.Fatalf("ReadBinary accepted garbage")
			}
		})
	}
}
