package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"log/slog"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dkcore/internal/gen"
	"dkcore/internal/graph"
	"dkcore/internal/kcore"
	"dkcore/internal/transport"
)

// crashingHost serves the protocol like a normal host but severs the
// connection the moment it receives the tick for killRound — after the
// coordinator has committed that round's deliveries, before any done
// report — the worst point for a SIGKILL. Returns nil once it has died.
func crashingHost(addr string, killRound int) error {
	raw, err := dialTimeout(addr)
	if err != nil {
		return err
	}
	conn := transport.NewConn(raw)
	defer conn.Close()
	h := &hostRun{conn: conn, res: &HostResult{}}
	h.log = slog.New(discardHandler{})
	if err := h.handshake(); err != nil {
		return err
	}
	if err := h.configure(); err != nil {
		return err
	}
	if err := h.restore(); err != nil {
		return err
	}
	if err := conn.Send(frameReady, nil); err != nil {
		return err
	}
	for {
		typ, payload, err := conn.Recv()
		if err != nil {
			return err
		}
		switch typ {
		case frameTick:
			msg, err := decodeTick(payload)
			if err != nil {
				return err
			}
			if msg.Round >= killRound {
				return conn.Close() // die without reporting
			}
			if err := h.tick(payload); err != nil {
				return err
			}
		case frameStop:
			return fmt.Errorf("crashing host outlived the run")
		default:
			return fmt.Errorf("unexpected frame %d", typ)
		}
	}
}

// TestClusterKillOneHostMidCascade is the recovery acceptance test: over
// a pool of 50 graphs, one of three hosts is killed abruptly in round 2
// and a replacement is restarted from the slot's checkpoint (interval
// rotating over disabled/1/2 to cover both the full-replay and the
// checkpoint+delta paths). The final coreness must equal the sequential
// decomposition — i.e. the failure-free answer — on every graph.
func TestClusterKillOneHostMidCascade(t *testing.T) {
	pool := make([]*graph.Graph, 0, 50)
	for i := 0; i < 50; i++ {
		switch i % 4 {
		case 0:
			pool = append(pool, gen.BarabasiAlbert(80+i, 3, int64(i+1)))
		case 1:
			pool = append(pool, gen.GNM(60+i, 3*(60+i), int64(i+1)))
		case 2:
			pool = append(pool, gen.Grid(6+i%5, 9))
		default:
			pool = append(pool, gen.Chain(40+i))
		}
	}
	for i, g := range pool {
		g := g
		every := i % 3 // 0 = full replay, 1 and 2 = checkpoint + delta
		t.Run(fmt.Sprintf("graph%02d-ckpt%d", i, every), func(t *testing.T) {
			want := kcore.Decompose(g).CorenessValues()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			coord, err := NewCoordinator(CoordinatorConfig{
				Graph:           g,
				NumHosts:        3,
				CheckpointEvery: every,
				RejoinWait:      30 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make([]error, 3)
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, errs[i] = RunHost(ctx, HostConfig{CoordinatorAddr: coord.Addr()})
				}(i)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := crashingHost(coord.Addr(), 2); err != nil {
					errs[2] = err
					return
				}
				// The crash has happened; reconnect as the replacement.
				_, errs[2] = RunHost(ctx, HostConfig{CoordinatorAddr: coord.Addr()})
			}()
			res, err := coord.RunContext(ctx)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			for i, herr := range errs {
				if herr != nil {
					t.Fatalf("host %d: %v", i, herr)
				}
			}
			if res.Recoveries != 1 {
				t.Fatalf("recoveries = %d, want 1", res.Recoveries)
			}
			if every > 0 && res.Checkpoints == 0 {
				t.Fatalf("no checkpoints taken with CheckpointEvery=%d", every)
			}
			for u := range want {
				if res.Coreness[u] != want[u] {
					t.Fatalf("node %d: got %d want %d", u, res.Coreness[u], want[u])
				}
			}
		})
	}
}

// TestClusterHostDeathFailsFast: with RejoinWait 0 (the default) a host
// death must abort the run with a structured error naming the dead host
// and its last acknowledged round, not hang awaiting a replacement.
func TestClusterHostDeathFailsFast(t *testing.T) {
	g := gen.BarabasiAlbert(120, 3, 5)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	coord, err := NewCoordinator(CoordinatorConfig{Graph: g, NumHosts: 2})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		_, _ = RunHost(ctx, HostConfig{CoordinatorAddr: coord.Addr()})
	}()
	go func() {
		_ = crashingHost(coord.Addr(), 2)
	}()
	_, err = coord.RunContext(ctx)
	if err == nil {
		t.Fatal("run survived a host death with RejoinWait=0")
	}
	if !strings.Contains(err.Error(), "died in round") || !strings.Contains(err.Error(), "last acked round") {
		t.Fatalf("unstructured death error: %v", err)
	}
}

// connectedGate is a slog.Handler that opens once the coordinator has
// logged "worker connected" — a handshaken worker queued for a slot —
// the given number of times.
type connectedGate struct {
	discardHandler
	need int32
	seen atomic.Int32
	open chan struct{}
}

func (g *connectedGate) Enabled(context.Context, slog.Level) bool { return true }

func (g *connectedGate) Handle(_ context.Context, rec slog.Record) error {
	if rec.Message == "worker connected" && g.seen.Add(1) == g.need {
		close(g.open)
	}
	return nil
}

func (g *connectedGate) WithAttrs([]slog.Attr) slog.Handler { return g }
func (g *connectedGate) WithGroup(string) slog.Handler      { return g }

// heldConn lets a host's hello through and holds every later frame it
// writes until open is closed (or ctx ends).
type heldConn struct {
	net.Conn
	ctx   context.Context
	open  <-chan struct{}
	hello bool
}

func (c *heldConn) Write(p []byte) (int, error) {
	if c.hello {
		select {
		case <-c.open:
		case <-c.ctx.Done():
			return 0, c.ctx.Err()
		}
	}
	c.hello = true
	return c.Conn.Write(p)
}

// TestClusterJoinMidRun lets a fourth worker join a three-host run in
// flight (the long WorstCase cascade guarantees live rounds at the join
// boundary) and requires the result to match the from-scratch answer.
// The run is held at its hosts' ready frames until all four workers have
// been welcomed, so whichever one was not enrolled is waiting for the
// coordinator at the first round boundary — never dialing a coordinator
// that has already finished.
func TestClusterJoinMidRun(t *testing.T) {
	g := gen.WorstCase(30)
	want := kcore.Decompose(g).CorenessValues()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	gate := &connectedGate{need: 4, open: make(chan struct{})}
	coord, err := NewCoordinator(CoordinatorConfig{
		Graph:     g,
		NumHosts:  3,
		AllowJoin: true,
		Log:       slog.New(gate),
	})
	if err != nil {
		t.Fatal(err)
	}
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		raw, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return &heldConn{Conn: raw, ctx: ctx, open: gate.open}, nil
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	results := make([]*HostResult, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunHost(ctx, HostConfig{CoordinatorAddr: coord.Addr(), Dialer: dial})
		}(i)
	}
	res, err := coord.RunContext(ctx)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, herr := range errs {
		if herr != nil {
			t.Fatalf("host %d: %v", i, herr)
		}
	}
	if res.Joins != 1 {
		t.Fatalf("joins = %d, want 1", res.Joins)
	}
	owned := 0
	for _, r := range results {
		if len(r.Owned) != len(r.Coreness) {
			t.Fatalf("host %d: %d owned nodes, %d coreness values", r.HostID, len(r.Owned), len(r.Coreness))
		}
		owned += len(r.Owned)
	}
	if owned != g.NumNodes() {
		t.Fatalf("hosts own %d nodes in total, want %d", owned, g.NumNodes())
	}
	for u := range want {
		if res.Coreness[u] != want[u] {
			t.Fatalf("node %d: got %d want %d", u, res.Coreness[u], want[u])
		}
	}
}

// TestClusterLeaveMidRun retires one of three hosts at the first round
// boundary; its nodes are re-spread over the survivors and the final
// coreness must match the from-scratch answer.
func TestClusterLeaveMidRun(t *testing.T) {
	g := gen.WorstCase(30)
	want := kcore.Decompose(g).CorenessValues()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	coord, err := NewCoordinator(CoordinatorConfig{Graph: g, NumHosts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Leave(1); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = RunHost(ctx, HostConfig{CoordinatorAddr: coord.Addr()})
		}(i)
	}
	res, err := coord.RunContext(ctx)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, herr := range errs {
		if herr != nil {
			t.Fatalf("host %d: %v", i, herr)
		}
	}
	if res.Leaves != 1 {
		t.Fatalf("leaves = %d, want 1", res.Leaves)
	}
	for u := range want {
		if res.Coreness[u] != want[u] {
			t.Fatalf("node %d: got %d want %d", u, res.Coreness[u], want[u])
		}
	}
}

// TestClusterCompressedRunMatches: a compressed run must agree with the
// sequential answer and actually shrink the delta-batch bytes.
func TestClusterCompressedRunMatches(t *testing.T) {
	g := gen.BarabasiAlbert(400, 4, 11)
	want := kcore.Decompose(g).CorenessValues()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	coord, err := NewCoordinator(CoordinatorConfig{Graph: g, NumHosts: 4, Compression: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = RunHost(ctx, HostConfig{CoordinatorAddr: coord.Addr()})
		}(i)
	}
	res, err := coord.RunContext(ctx)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, herr := range errs {
		if herr != nil {
			t.Fatalf("host %d: %v", i, herr)
		}
	}
	for u := range want {
		if res.Coreness[u] != want[u] {
			t.Fatalf("node %d: got %d want %d", u, res.Coreness[u], want[u])
		}
	}
	if res.BatchBytesWire >= res.BatchBytesRaw {
		t.Fatalf("compression did not shrink batch frames: raw %d, wire %d",
			res.BatchBytesRaw, res.BatchBytesWire)
	}
}

// TestCheckpointRoundTrip covers the checkpoint codec: the round and
// one value per node of the owned range, in node order.
func TestCheckpointRoundTrip(t *testing.T) {
	round, values, err := decodeCheckpoint(appendCheckpoint(nil, 9, []int{4, 1, 0}), 2, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if round != 9 || !slices.Equal(values, []int{4, 1, 0}) {
		t.Fatalf("round trip mismatch: round %d values %v", round, values)
	}
	if _, values, err := decodeCheckpoint(appendCheckpoint(nil, 1, nil), 0, 0, 0); err != nil || len(values) != 0 {
		t.Fatalf("empty checkpoint: values %v err %v", values, err)
	}
}

// TestHostileClusterFrames drives every cluster decoder with malformed
// payloads: each must reject without panicking or allocating
// proportionally to attacker-chosen counts.
func TestHostileClusterFrames(t *testing.T) {
	uv := func(vals ...uint64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	for name, payload := range map[string][]byte{
		"empty":              nil,
		"truncated round":    {0x80},
		"absurd count":       uv(1, 1<<40, 1, 1, 1),
		"count below owned":  uv(1, 2, 1, 1),
		"count above owned":  uv(1, 4, 1, 1, 1, 1),
		"value past n":       uv(1, 3, 1, 10, 1),
		"truncated value":    append(uv(1, 3, 1, 1), 0x80),
		"trailing bytes":     uv(1, 3, 1, 1, 1, 0),
		"missing value list": uv(5),
	} {
		if _, values, err := decodeCheckpoint(payload, 2, 5, 10); err == nil || values != nil {
			t.Fatalf("checkpoint %s accepted: values %v err %v", name, values, err)
		}
	}
	// A node count past graph.MaxNodes would wrap 32-bit neighbor IDs:
	// the last of 2^20 hosts owns one node above 2^32, whose one
	// neighbor 2^32+5 would decode as node 5.
	const numNodes = (maxHosts-1)*4097 + 1
	wrap := binary.AppendVarint(uv(maxHosts-1, maxHosts, numNodes, 1), 1<<32+5-(numNodes-1))
	if c, err := decodeConfig(wrap); err == nil || !strings.Contains(err.Error(), "node count") {
		t.Fatalf("config past the node ceiling: %+v, err %v", c, err)
	}
	if _, _, err := decodeRelays(uv(1 << 50)); err == nil {
		t.Fatal("relay list with absurd count accepted")
	}
	if _, err := decodeTick(uv(1, 0, 1, 0, 1<<40)); err == nil {
		t.Fatal("tick relay with absurd length accepted")
	}
	if _, err := decodeHello(uv(2)); err == nil {
		t.Fatal("hello with missing flags accepted")
	}
}
