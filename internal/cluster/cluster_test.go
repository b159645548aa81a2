package cluster

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"dkcore/internal/core"
	"dkcore/internal/gen"
	"dkcore/internal/graph"
	"dkcore/internal/kcore"
	"dkcore/internal/transport"
)

// runCluster spins up a coordinator plus numHosts hosts over TCP loopback
// and returns the coordinator's result.
func runCluster(t *testing.T, g *graph.Graph, numHosts int) *Result {
	t.Helper()
	res, _, err := RunLocal(context.Background(), CoordinatorConfig{Graph: g, NumHosts: numHosts}, HostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestClusterMatchesSequential(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 7)
	want := kcore.Decompose(g).CorenessValues()
	for _, hosts := range []int{1, 2, 4, 7} {
		res := runCluster(t, g, hosts)
		for u := range want {
			if res.Coreness[u] != want[u] {
				t.Fatalf("hosts=%d node %d: got %d want %d", hosts, u, res.Coreness[u], want[u])
			}
		}
		if res.Rounds < 1 {
			t.Fatalf("hosts=%d: rounds = %d", hosts, res.Rounds)
		}
	}
}

// TestVerifyAnswerNamesNodeAndHost: a gathered vector that breaks
// Theorem 1 is refused with an error naming the first node that fails
// the local check and the host that owned it. On a 200-node cycle (every
// coreness 2) split over 4 hosts, raising node 160 fails it there; lowering
// node 120 fails first at its neighbor 119, which host 2 owns.
func TestVerifyAnswerNamesNodeAndHost(t *testing.T) {
	const n = 200
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		b.AddEdge(u, (u+1)%n)
	}
	g := b.Build()
	block := core.BlockAssignment{N: n, H: 4}
	exact := kcore.Decompose(g).CorenessValues()
	if err := verifyAnswer(g, block, exact); err != nil {
		t.Fatalf("the exact vector was refused: %v", err)
	}
	for _, tc := range []struct{ node, value, wantNode, wantHost int }{
		{node: 160, value: 3, wantNode: 160, wantHost: 3},
		{node: 120, value: 1, wantNode: 119, wantHost: 2},
	} {
		wrong := slices.Clone(exact)
		wrong[tc.node] = tc.value
		err := verifyAnswer(g, block, wrong)
		var ae *answerError
		var le *kcore.LocalityError
		if !errors.As(err, &ae) || !errors.As(err, &le) || le.Node != tc.wantNode || ae.host != tc.wantHost {
			t.Fatalf("node %d at %d: got %v, want node %d on host %d named", tc.node, tc.value, err, tc.wantNode, tc.wantHost)
		}
	}
}

func TestClusterFamilies(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid":     gen.Grid(10, 10),
		"chain":    gen.Chain(40),
		"worst":    gen.WorstCase(25),
		"complete": gen.Complete(15),
		"gnm":      gen.GNM(150, 600, 3),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			want := kcore.Decompose(g).CorenessValues()
			res := runCluster(t, g, 4)
			for u := range want {
				if res.Coreness[u] != want[u] {
					t.Fatalf("node %d: got %d want %d", u, res.Coreness[u], want[u])
				}
			}
		})
	}
}

func TestClusterSingleHostShipsNothing(t *testing.T) {
	g := gen.GNM(80, 200, 9)
	res := runCluster(t, g, 1)
	if res.EstimatesSent != 0 {
		t.Fatalf("single host shipped %d estimates, want 0", res.EstimatesSent)
	}
	want := kcore.Decompose(g).CorenessValues()
	for u := range want {
		if res.Coreness[u] != want[u] {
			t.Fatalf("node %d: got %d want %d", u, res.Coreness[u], want[u])
		}
	}
}

func TestClusterOverheadGrowsWithHosts(t *testing.T) {
	// Figure 5 (right): point-to-point overhead per node increases with
	// the number of hosts.
	g := gen.BarabasiAlbert(300, 3, 13)
	few := runCluster(t, g, 2)
	many := runCluster(t, g, 8)
	if many.EstimatesSent <= few.EstimatesSent {
		t.Fatalf("overhead did not grow: 2 hosts %d, 8 hosts %d",
			few.EstimatesSent, many.EstimatesSent)
	}
}

// TestClusterCompressionFloor is the wire-efficiency gate: on the
// powerlaw-10k workload the flate-compressed delta batches must be at
// most half the raw bytes. Estimate batches are sorted node/value pairs
// with heavy small-integer repetition — flate comfortably halves them,
// and a regression here means the encoder or negotiation broke.
func TestClusterCompressionFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("full powerlaw-10k cluster run")
	}
	g := gen.PowerLaw(gen.PowerLawConfig{N: 10000, Exponent: 2.2, MinDeg: 2}, 1)
	res, _, err := RunLocal(context.Background(),
		CoordinatorConfig{Graph: g, NumHosts: 4, Compression: true}, HostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Coreness, kcore.Decompose(g).CorenessValues()) {
		t.Fatal("coreness differs from the sequential oracle")
	}
	if res.BatchBytesRaw == 0 {
		t.Fatal("no raw batch bytes recorded")
	}
	if ratio := float64(res.BatchBytesWire) / float64(res.BatchBytesRaw); ratio > 0.5 {
		t.Errorf("wire/raw = %.3f, want <= 0.5 (raw %d, wire %d)",
			ratio, res.BatchBytesRaw, res.BatchBytesWire)
	}
}

func TestCoordinatorValidation(t *testing.T) {
	if _, err := NewCoordinator(CoordinatorConfig{Graph: nil, NumHosts: 2}); err == nil {
		t.Fatalf("nil graph accepted")
	}
	if _, err := NewCoordinator(CoordinatorConfig{Graph: gen.Chain(3), NumHosts: 0}); err == nil {
		t.Fatalf("zero hosts accepted")
	}
}

func TestHostRejectsBadCoordinatorAddr(t *testing.T) {
	_, err := RunHost(context.Background(), HostConfig{CoordinatorAddr: "127.0.0.1:1"})
	if err == nil {
		t.Fatalf("dial to closed port succeeded")
	}
	if !strings.Contains(err.Error(), "dial") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestConfigRoundTrip covers the shapes the gap coding has to get
// right: an empty range, isolated owned nodes, a first neighbor below
// its owner (a negative offset), and a neighbor at NumNodes-1; and every
// host's range of a graph, encoded straight from its rows.
func TestConfigRoundTrip(t *testing.T) {
	cases := map[string]config{
		"scattered rows": {
			HostID: 2, NumHosts: 4, NumNodes: 10,
			// CSR form of {6: [0 5 9], 7: [2], 8: []}.
			AdjOff:  []int32{0, 3, 4, 4},
			AdjFlat: []int32{0, 5, 9, 2},
		},
		"empty range":    {HostID: 3, NumHosts: 4, NumNodes: 5, AdjOff: []int32{0}},
		"isolated nodes": {HostID: 0, NumHosts: 1, NumNodes: 3, AdjOff: []int32{0, 0, 0, 0}},
		"negative offset and last node": {
			HostID: 1, NumHosts: 2, NumNodes: 6,
			// CSR form of {3: [0 2 5], 4: [], 5: [0 4]}.
			AdjOff:  []int32{0, 3, 3, 5},
			AdjFlat: []int32{0, 2, 5, 0, 4},
		},
	}
	for name, in := range cases {
		out, err := decodeConfig(encodeConfig(in.HostID, in.NumHosts, in.NumNodes, in.row))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.HostID != in.HostID || out.NumHosts != in.NumHosts || out.NumNodes != in.NumNodes {
			t.Fatalf("%s: scalar fields mismatch: %+v", name, out)
		}
		if !slices.Equal(out.AdjOff, in.AdjOff) || !slices.Equal(out.AdjFlat, in.AdjFlat) {
			t.Fatalf("%s: partition mismatch: %v %v, want %v %v", name, out.AdjOff, out.AdjFlat, in.AdjOff, in.AdjFlat)
		}
	}
	g := gen.GNM(50, 200, 1)
	for id := 0; id < 3; id++ {
		c, err := decodeConfig(encodeConfig(id, 3, g.NumNodes(), g.Neighbors))
		if err != nil {
			t.Fatalf("host %d of the graph: %v", id, err)
		}
		lo, hi := c.block().Range(id)
		if len(c.AdjOff) != hi-lo+1 {
			t.Fatalf("host %d: %d offsets for the range [%d, %d)", id, len(c.AdjOff), lo, hi)
		}
		for u := lo; u < hi; u++ {
			row := c.row(u)
			if len(row) != g.Degree(u) {
				t.Fatalf("host %d: node %d has row %v, want %v", id, u, row, g.Neighbors(u))
			}
			for i, v := range g.Neighbors(u) {
				if int(row[i]) != v {
					t.Fatalf("host %d: node %d has row %v, want %v", id, u, row, g.Neighbors(u))
				}
			}
		}
	}
}

// TestConfigFrameGolden pins the protocol-7 config bytes of every host
// of a fixed 11-node graph cut over three hosts, so that a change to the
// row codec or the header cannot change the wire form silently.
func TestConfigFrameGolden(t *testing.T) {
	b := graph.NewBuilder(11) // node 10 is isolated
	for _, e := range [][2]int{{0, 1}, {0, 5}, {0, 9}, {1, 2}, {2, 3}, {3, 7}, {4, 8}, {5, 6}, {6, 9}, {7, 8}, {2, 9}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	for id, want := range []string{
		"00030b0302030202040401020102060105",
		"01030b0102020208090601040705",
		"02030b0203000703110204",
	} {
		if got := hex.EncodeToString(encodeConfig(id, 3, g.NumNodes(), g.Neighbors)); got != want {
			t.Errorf("host %d: config frame %s, want %s", id, got, want)
		}
	}
}

// TestConfigDecodeRejectsHostileDegrees crafts a raw config frame whose
// degree uvarint is 2^64-1: the int conversion would wrap the offset
// prefix sum negative, slip past the total-length check, and panic the
// host inside NewHostState. decodeConfig must reject it (and any degree
// sum beyond the payload) as corrupt.
func TestConfigDecodeRejectsHostileDegrees(t *testing.T) {
	payload := binary.AppendUvarint(nil, 0)             // HostID
	payload = binary.AppendUvarint(payload, 1)          // NumHosts
	payload = binary.AppendUvarint(payload, 2)          // NumNodes: the range [0, 2)
	payload = binary.AppendUvarint(payload, ^uint64(0)) // degree of node 0: 2^64-1
	payload = binary.AppendUvarint(payload, 2)          // degree of node 1
	payload = binary.AppendVarint(payload, 1)           // one adjacency entry
	if c, err := decodeConfig(payload); err == nil {
		t.Fatalf("hostile degree accepted: %+v", c)
	}
}

// TestConfigDecodeRejectsBadOwnedSets: the owned set is the header's
// range, one degree per node. A range past the payload must fail before
// anything range-sized is allocated, and a degree list that stops short
// of the range must fail too.
func TestConfigDecodeRejectsBadOwnedSets(t *testing.T) {
	for name, tc := range map[string]struct {
		payload []byte
		want    string
	}{
		"range past payload": {[]byte{0, 1, 0x80, 0x80, 0x80, 0x80, 0x04, 0}, "exceed payload"}, // NumNodes 2^30
		"degrees short":      {[]byte{0, 1, 4, 0, 0, 0x80, 0x80}, "truncated"},                  // 2 of 4 degrees, then a torn one
		"degrees missing":    {[]byte{1, 2, 4}, "exceed payload"},                               // the range [2, 4), no degrees
	} {
		c, err := decodeConfig(tc.payload)
		if err == nil {
			t.Fatalf("%s accepted: %+v", name, c)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q, want it to mention %q", name, err, tc.want)
		}
	}
}

// TestConfigDecodeRejectsHostileHeaders covers the header trust
// boundary: a zero or payload-exceeding host count (allocation bomb /
// division by zero in the owner function), a host ID outside the host
// set, a node count past graph.MaxNodes, and an adjacency entry naming a
// node outside the graph (phantom mesh peer) must all fail to decode.
func TestConfigDecodeRejectsHostileHeaders(t *testing.T) {
	encode := func(hostID, numHosts, numNodes uint64) []byte {
		payload := binary.AppendUvarint(nil, hostID)
		payload = binary.AppendUvarint(payload, numHosts)
		return binary.AppendUvarint(payload, numNodes)
	}
	cases := map[string][]byte{
		"zero hosts":      encode(0, 0, 3),
		"huge host count": encode(0, 1<<40, 3),
		"overflow hosts":  encode(0, 1<<63, 3),
		"host id too big": encode(2, 1, 3),
		"node count 2^31": encode(1<<20-1, 1<<20, 1<<31),
	}
	for name, payload := range cases {
		if c, err := decodeConfig(payload); err == nil {
			t.Fatalf("%s accepted: %+v", name, c)
		}
	}
	bad := config{
		HostID: 0, NumHosts: 1, NumNodes: 3,
		AdjOff:  []int32{0, 1, 1, 1},
		AdjFlat: []int32{7}, // neighbor outside [0, 3)
	}
	if _, err := decodeConfig(encodeConfig(bad.HostID, bad.NumHosts, bad.NumNodes, bad.row)); err == nil {
		t.Fatalf("out-of-range neighbor accepted")
	}
}

// TestConfigDecodeRejectsDegreeMismatch hand-writes the bytes, since
// encodeConfig walks rows by their degrees and cannot emit a mismatch.
// The frame ends after the entries, so the degree sum outruns the
// payload and the bound before the prefix sum rejects it.
func TestConfigDecodeRejectsDegreeMismatch(t *testing.T) {
	payload := []byte{
		0, 2, 3, // HostID, NumHosts, NumNodes: the range [0, 2)
		2, 1, // degrees sum to 3 ...
		2, 1, // ... but only 2 entries shipped: node 0's row {1, 2}
	}
	c, err := decodeConfig(payload)
	if err == nil {
		t.Fatalf("degree/adjacency length mismatch accepted: %+v", c)
	}
	if !strings.Contains(err.Error(), "exceeds payload") {
		t.Fatalf("error %q, want the degree sum bounded by the payload", err)
	}
}

// TestConfigDecodeRejectsBadGaps: a zero gap in a row would repeat an
// ID, a row's first offset must land inside [0, NumNodes), and the frame
// must end where the rows do.
func TestConfigDecodeRejectsBadGaps(t *testing.T) {
	header := []byte{4, 10, 10} // HostID, NumHosts, NumNodes: the range [4, 5)
	cases := []struct {
		name, want string
		body       []byte
	}{
		{"truncated degree", "truncated", []byte{0x80}},
		{"zero row gap", "zero gap", []byte{2, 2, 0}},           // node 4: {5, 5}
		{"first offset below 0", "outside", []byte{1, 9}},       // node 4: offset -5
		{"first offset past n", "outside", []byte{1, 12}},       // node 4: offset +6
		{"gap past n", "leaves [0, 10)", []byte{2, 2, 10}},      // node 4: {5, 15}
		{"self-loop", "lists itself", []byte{1, 0}},             // node 4: {4}
		{"self-loop by a gap", "lists itself", []byte{2, 1, 1}}, // node 4: {3, 4}
		{"trailing bytes", "trailing", []byte{1, 2, 0}},         // node 4: {5}, then a stray byte
	}
	for _, tc := range cases {
		c, err := decodeConfig(append(slices.Clone(header), tc.body...))
		if err == nil {
			t.Fatalf("%s accepted: %+v", tc.name, c)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q, want it to mention %q", tc.name, err, tc.want)
		}
	}
}

func TestDoneRoundTrip(t *testing.T) {
	in := doneReport{Round: 7, Changed: 3, SentTotal: 100, AppliedTotal: 99, PairsTotal: 512}
	outbox := []relayBatch{
		{Peer: 1, Raw: []byte{1, 2, 3}},
		{Peer: 4, Raw: []byte{9}},
	}
	rep, relays, err := decodeDone(appendDone(nil, in, outbox))
	if err != nil {
		t.Fatal(err)
	}
	if rep != in {
		t.Fatalf("report round trip mismatch: %+v vs %+v", rep, in)
	}
	if len(relays) != len(outbox) {
		t.Fatalf("relay count %d, want %d", len(relays), len(outbox))
	}
	for i := range outbox {
		if relays[i].Peer != outbox[i].Peer || !slices.Equal(relays[i].Raw, outbox[i].Raw) {
			t.Fatalf("relay %d mismatch: %+v vs %+v", i, relays[i], outbox[i])
		}
	}
}

// TestCoordinatorCancelDuringSilentEnrollment: a peer that TCP-connects
// but never sends its hello must not pin the coordinator past a
// cancellation — the watchdog closes the registered conn and RunContext
// returns ctx.Err().
func TestCoordinatorCancelDuringSilentEnrollment(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{Graph: gen.Chain(4), NumHosts: 1})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := dialTimeout(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := coord.RunContext(ctx)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the coordinator accept and block in Recv
	cancel()
	if err := waitErr(t, errCh, testDialWait, "coordinator to unblock after cancellation"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestHandshakeRefusesOtherVersions: the coordinator closes a worker
// whose hello names any version but its own without a welcome — version
// 1 (peer mesh), version 2 (same frames, modulo base ownership), version
// 3 (per-arc support histograms in checkpoints) and version 4 (raw IDs
// in config and result frames) and version 5 (checkpoint replay and
// reshape frames) alike, because a v2 host would read the config's base
// as modulo and route batches to the wrong peers, a v3 host's
// checkpoint would fail a v4 restore, a v4 host would read a v5
// config's gaps as node IDs, and a v5 host would read a v6 config's
// node count as its base host count — and then still enrolls a current
// host.
func TestHandshakeRefusesOtherVersions(t *testing.T) {
	g := gen.Chain(20)
	coord, err := NewCoordinator(CoordinatorConfig{Graph: g, NumHosts: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := coord.RunContext(ctx)
		done <- outcome{res, err}
	}()
	for _, version := range []int{1, 2, 3, 4, 5, protocolVersion + 1} {
		raw, err := dialTimeout(coord.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn := transport.NewConn(raw)
		conn.SetTimeouts(testDialWait, testDialWait)
		if err := conn.Send(frameHello, encodeHello(helloMsg{Version: version})); err != nil {
			t.Fatal(err)
		}
		if typ, _, err := conn.Recv(); err == nil {
			t.Fatalf("version %d hello answered with frame %d, want the connection closed", version, typ)
		}
		conn.Close()
	}
	if _, err := RunHost(ctx, HostConfig{CoordinatorAddr: coord.Addr()}); err != nil {
		t.Fatal(err)
	}
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !slices.Equal(out.res.Coreness, kcore.Decompose(g).CorenessValues()) {
		t.Fatal("coreness differs from the sequential oracle")
	}
}
