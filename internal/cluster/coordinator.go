package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"slices"
	"sync"
	"time"

	"dkcore/internal/core"
	"dkcore/internal/graph"
	"dkcore/internal/kcore"
	"dkcore/internal/transport"
)

// CoordinatorConfig configures a coordinator.
type CoordinatorConfig struct {
	// Graph is the graph to decompose.
	Graph *graph.Graph
	// NumHosts is the number of host workers that will connect.
	NumHosts int
	// ListenAddr is the TCP address to listen on, e.g. "127.0.0.1:0".
	ListenAddr string
	// MaxRounds bounds the protocol; 0 means 8*(N+2).
	MaxRounds int
	// CheckpointEvery asks every host for a checkpoint of its owned
	// estimates each k rounds. Checkpoints are min-merged into the
	// upper-bound vector every restart seeds the hosts from. A restart
	// checkpoints the live hosts itself, so periodic checkpoints only
	// warm the restart of a host that dies: its nodes resume from its
	// last checkpoint instead of from their degrees. 0 disables
	// periodic checkpoints.
	CheckpointEvery int
	// RejoinWait is how long a restart waits for a replacement worker
	// for each dead host before giving up on the run. 0 (the default)
	// fails fast: any host death aborts the run with a structured error
	// naming the host and its last acknowledged round. A host that
	// reconnects within the window is enrolled like any other
	// replacement.
	RejoinWait time.Duration
	// FrameTimeout bounds each frame send and each wait for a host's
	// next frame. 0 disables deadlines. Choose it above the slowest
	// host's per-round compute, or healthy-but-slow workers read as
	// dead. A tripped deadline is a connection failure, so with a
	// RejoinWait budget it leads to a restart — wedged hosts become
	// replaceable instead of hanging the run.
	FrameTimeout time.Duration
	// AllowJoin lets extra workers join a running cluster: a round
	// boundary admits one waiting worker and restarts the run over the
	// grown host set. Replacement workers for dead hosts are always
	// accepted regardless of this flag.
	AllowJoin bool
	// Compression negotiates transparent flate compression of all
	// frames (config, restore, ticks, done reports, checkpoints) with
	// every host that advertises support.
	Compression bool
	// Log receives structured runtime events (host deaths, restarts,
	// membership changes). nil discards them.
	Log *slog.Logger
}

// Result is the outcome of a coordinated run.
type Result struct {
	// Coreness is the assembled per-node coreness.
	Coreness []int
	// Rounds is the number of synchronous rounds driven (including the
	// final quiet one that confirmed termination).
	Rounds int
	// EstimatesSent is the total number of (node, estimate) pairs
	// relayed between hosts — the Figure-5 overhead numerator, counted
	// at the coordinator so host restarts cannot skew it.
	EstimatesSent int64
	// BatchBytesRaw and BatchBytesWire measure the delta-batch-bearing
	// frames (ticks out, done reports in) across surviving host
	// connections: payload bytes before compression and bytes actually
	// on the wire. Equal (modulo headers) when compression is off.
	BatchBytesRaw  int64
	BatchBytesWire int64
	// Checkpoints counts host checkpoints received; Recoveries counts
	// dead hosts replaced; Joins and Leaves count membership changes
	// applied.
	Checkpoints int
	Recoveries  int
	Joins       int
	Leaves      int
}

// Coordinator drives a networked one-to-many run.
type Coordinator struct {
	cfg     CoordinatorConfig
	ln      net.Listener
	log     *slog.Logger
	leaveCh chan int
}

// NewCoordinator validates the configuration and starts listening, so
// callers can learn Addr() before launching hosts.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("cluster: nil graph")
	}
	if cfg.NumHosts < 1 {
		return nil, fmt.Errorf("cluster: NumHosts = %d, need >= 1", cfg.NumHosts)
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 8 * (cfg.Graph.NumNodes() + 2)
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", cfg.ListenAddr, err)
	}
	log := cfg.Log
	if log == nil {
		log = slog.New(discardHandler{})
	}
	return &Coordinator{cfg: cfg, ln: ln, log: log, leaveCh: make(chan int, 16)}, nil
}

// Addr returns the coordinator's bound address for hosts to dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Leave asks the coordinator to retire host id at a round boundary.
// The retirement is a restart: the worker is released with a normal
// stop/result exchange, every host above it moves down one ID, and the
// graph is repartitioned over the rest. The request is asynchronous — a
// run that quiesces first simply never processes it. Leave fails only
// when the request queue is full.
//
//dkcore:noctx non-blocking by contract: a full request queue fails fast
func (c *Coordinator) Leave(hostID int) error {
	select {
	case c.leaveCh <- hostID:
		return nil
	default:
		return fmt.Errorf("cluster: leave queue full")
	}
}

// RunContext accepts NumHosts hosts, distributes partitions, drives
// rounds until global quiescence, and assembles the result — restarting
// the run on host deaths and membership changes along the way according
// to the config. It closes the listener on return. Cancelling ctx
// aborts the run promptly and returns ctx.Err().
func (c *Coordinator) RunContext(ctx context.Context) (*Result, error) {
	res, err := c.run(ctx)
	if err != nil && ctx.Err() != nil {
		// A cancellation surfaces as whatever I/O error the connection
		// teardown produced; report the cancellation itself.
		return nil, ctx.Err()
	}
	return res, err
}

// hostSlot is the coordinator's view of one host.
type hostSlot struct {
	conn      *transport.Conn
	alive     bool
	lastAcked int // last round whose done report arrived
	diedRound int
	dieErr    error

	pending []relayBatch // delivered with the next tick; Peer is the source
}

// markDead records a host connection failure; the next round boundary
// restarts the run.
func (c *Coordinator) markDead(id int, s *hostSlot, round int, err error) {
	s.conn.Close()
	s.alive = false
	s.diedRound = round
	s.dieErr = err
	c.log.Warn("host connection lost",
		"host", id, "round", round, "lastAcked", s.lastAcked, "err", err)
}

// joiner is a freshly handshaken worker connection.
type joiner struct {
	conn *transport.Conn
}

// connSet tracks live connections for the cancellation watchdog.
type connSet struct {
	mu     sync.Mutex
	ln     net.Listener
	conns  map[*transport.Conn]struct{}
	closed bool
}

func (cs *connSet) add(conn *transport.Conn) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.closed {
		conn.Close()
		return false
	}
	cs.conns[conn] = struct{}{}
	return true
}

func (cs *connSet) closeAll() {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.closed = true
	cs.ln.Close()
	for conn := range cs.conns {
		conn.Close()
	}
}

// acceptLoop accepts worker connections for the lifetime of the run and
// completes the hello/welcome handshake off the round loop's critical
// path, delivering ready joiners on joinCh. A silent or malformed peer
// only costs its own handshake goroutine.
func (c *Coordinator) acceptLoop(cs *connSet, joinCh chan<- joiner) {
	for {
		raw, err := c.ln.Accept()
		if err != nil {
			return
		}
		conn := transport.NewConn(raw)
		if c.cfg.FrameTimeout > 0 {
			conn.SetTimeouts(c.cfg.FrameTimeout, c.cfg.FrameTimeout)
		}
		if !cs.add(conn) {
			return
		}
		go func() {
			typ, payload, err := conn.Recv()
			if err != nil || typ != frameHello {
				c.log.Warn("bad worker handshake", "err", err, "frame", typ)
				conn.Close()
				return
			}
			hello, err := decodeHello(payload)
			if err != nil || hello.Version != protocolVersion {
				c.log.Warn("incompatible worker", "err", err, "version", hello.Version)
				conn.Close()
				return
			}
			var flags uint64
			if c.cfg.Compression && hello.Flags&flagFlate != 0 {
				flags |= flagFlate
			}
			if err := conn.Send(frameWelcome, encodeHello(helloMsg{Version: protocolVersion, Flags: flags})); err != nil {
				conn.Close()
				return
			}
			if flags&flagFlate != 0 {
				conn.SetCompression(true)
			}
			joinCh <- joiner{conn: conn}
			c.log.Info("worker connected", "remote", raw.RemoteAddr().String())
		}()
	}
}

// coordRun is the per-run state of the coordinator round loop.
type coordRun struct {
	c      *Coordinator
	ctx    context.Context
	g      *graph.Graph
	res    *Result
	slots  []*hostSlot
	block  core.BlockAssignment // ranges over len(slots) hosts
	best   []int32              // min over every checkpoint; nil before the first
	joinCh chan joiner

	tickBuf []byte
}

func (c *Coordinator) run(ctx context.Context) (*Result, error) {
	cs := &connSet{ln: c.ln, conns: make(map[*transport.Conn]struct{})}
	stopWatch := context.AfterFunc(ctx, cs.closeAll)
	defer stopWatch()
	defer cs.closeAll()

	r := &coordRun{
		c:      c,
		ctx:    ctx,
		g:      c.cfg.Graph,
		res:    &Result{},
		joinCh: make(chan joiner, 16),
	}
	go c.acceptLoop(cs, r.joinCh)

	// Enrollment: the first NumHosts handshaken workers fill the slots
	// in completion order.
	r.slots = make([]*hostSlot, c.cfg.NumHosts)
	for i := range r.slots {
		j, err := r.awaitJoiner(0)
		if err != nil {
			return nil, fmt.Errorf("cluster: enrolling host %d: %w", i, err)
		}
		r.slots[i] = &hostSlot{conn: j.conn, alive: true}
	}
	if err := r.configureAll(0); err != nil {
		return nil, err
	}
	if err := r.roundLoop(); err != nil {
		return nil, err
	}
	if err := r.collectResults(); err != nil {
		return nil, err
	}
	if err := verifyAnswer(r.g, r.block, r.res.Coreness); err != nil {
		return nil, err
	}
	r.accountWireBytes()
	return r.res, nil
}

// awaitJoiner waits for the next handshaken worker; wait 0 means no
// deadline (context cancellation still applies, via the watchdog
// closing the listener and any in-flight handshake connection).
func (r *coordRun) awaitJoiner(wait time.Duration) (joiner, error) {
	var timeout <-chan time.Time
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case j := <-r.joinCh:
		return j, nil
	case <-r.ctx.Done():
		return joiner{}, r.ctx.Err()
	case <-timeout:
		return joiner{}, fmt.Errorf("no replacement worker within %v", wait)
	}
}

// configureAll cuts the graph into contiguous ranges over the current
// hosts and ships each host its config, encoded straight from the
// graph's rows, and a restore seeded from best, then collects the ready
// frames. Ranges keep a chain of consecutive IDs inside one host, where
// it cascades without relay rounds. An I/O failure only marks the host
// dead, for the next boundary to restart.
func (r *coordRun) configureAll(round int) error {
	r.block = core.BlockAssignment{N: r.g.NumNodes(), H: len(r.slots)}
	for id, s := range r.slots {
		err := s.conn.Send(frameConfig, encodeConfig(id, len(r.slots), r.g.NumNodes(), r.g.Neighbors))
		if err == nil {
			err = s.conn.Send(frameRestore, r.seed(id))
		}
		if err != nil {
			r.c.markDead(id, s, round, err)
		}
	}
	for id, s := range r.slots {
		if !s.alive {
			continue
		}
		if err := r.expectReady(id, s); err != nil {
			if isProtocolError(err) {
				return err
			}
			r.c.markDead(id, s, round, err)
		}
	}
	return nil
}

// seed is host id's restore payload: best over its owned nodes and
// their neighbors as one estimate batch, empty before any checkpoint.
func (r *coordRun) seed(id int) []byte {
	if r.best == nil {
		return transport.AppendBatch(nil, nil)
	}
	lo, hi := r.block.Range(id)
	var nodes []int
	for u := lo; u < hi; u++ {
		nodes = append(append(nodes, u), r.g.Neighbors(u)...)
	}
	slices.Sort(nodes)
	nodes = slices.Compact(nodes)
	batch := make(core.Batch, len(nodes))
	for i, u := range nodes {
		batch[i] = core.EstimateMsg{Node: u, Core: int(r.best[u])}
	}
	return transport.AppendBatch(nil, batch)
}

// mergeCheckpoint min-merges the estimates of a host owning the range
// from lo into best, which starts at the degrees: every value merged is
// an upper bound on its node's coreness, so best stays one.
func (r *coordRun) mergeCheckpoint(lo int, values []int) {
	if r.best == nil {
		r.best = make([]int32, r.g.NumNodes())
		for u := range r.best {
			r.best[u] = int32(r.g.Degree(u))
		}
	}
	for i, k := range values {
		r.best[lo+i] = min(r.best[lo+i], int32(k))
	}
}

func (r *coordRun) expectReady(id int, s *hostSlot) error {
	typ, _, err := s.conn.Recv()
	if err != nil {
		return fmt.Errorf("cluster: ready from host %d: %w", id, err)
	}
	if typ != frameReady {
		return &protocolError{host: id, cause: fmt.Errorf("frame %d, want ready", typ)}
	}
	return nil
}

// roundLoop drives synchronous rounds until global quiescence. A host
// death, an accepted Leave or an admitted join makes the next round a
// checkpoint round, after which restart rebuilds every host from the
// merged checkpoints.
func (r *coordRun) roundLoop() error {
	cfg := r.c.cfg
	restartDue := r.anyDead()
	leaver := -1
	var join *joiner
	for round := 1; ; round++ {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		if round > cfg.MaxRounds {
			return fmt.Errorf("cluster: exceeded %d rounds without quiescing", cfg.MaxRounds)
		}
		ckpt := restartDue || cfg.CheckpointEvery > 0 && round%cfg.CheckpointEvery == 0
		quiet, err := r.round(round, ckpt)
		if err != nil {
			return err
		}
		r.res.Rounds = round
		if restartDue {
			if err := r.restart(round, leaver, join); err != nil {
				return err
			}
			leaver, join = -1, nil
			restartDue = r.anyDead()
			continue // a restart round is never the quiet one
		}
		if r.anyDead() {
			restartDue = true
			continue
		}
		if quiet && round > 1 {
			return nil
		}

		select {
		case id := <-r.c.leaveCh:
			if r.acceptLeave(id, round) {
				leaver, restartDue = id, true
			}
		default:
		}
		if cfg.AllowJoin {
			select {
			case j := <-r.joinCh:
				if len(r.slots) < maxHosts {
					join, restartDue = &j, true
					r.c.log.Info("worker joining", "host", len(r.slots), "round", round)
				} else {
					j.conn.Close()
				}
			default:
			}
		}
	}
}

// round drives one synchronous round: a tick carrying its pending
// batches to every live host, then each host's done report, preceded by
// a checkpoint when ckpt is set. A host that fails is marked dead and
// the round goes on, so every survivor completes it. The round is quiet
// when no host changed an estimate, nothing was delivered, and nothing
// new was queued.
func (r *coordRun) round(round int, ckpt bool) (quiet bool, err error) {
	delivered, appended, changed := 0, 0, 0
	ticked := make([]bool, len(r.slots))
	for id, s := range r.slots {
		if !s.alive {
			continue
		}
		r.tickBuf = encodeTick(r.tickBuf[:0], tickMsg{Round: round, Checkpoint: ckpt, Batches: s.pending})
		if err := s.conn.Send(frameTick, r.tickBuf); err != nil {
			r.c.markDead(id, s, round, err)
			continue
		}
		delivered += len(s.pending)
		s.pending = s.pending[:0]
		ticked[id] = true
	}
	for id, s := range r.slots {
		if !ticked[id] {
			continue
		}
		rep, out, err := r.collectDone(id, s, round, ckpt)
		if err != nil {
			if r.ctx.Err() != nil {
				return false, r.ctx.Err()
			}
			if isProtocolError(err) {
				return false, err // hostile/broken frames are fatal, not recoverable
			}
			r.c.markDead(id, s, round, err)
			continue
		}
		s.lastAcked = round
		changed += rep.Changed
		for _, rb := range out {
			pairs, err := transport.ScanBatch(rb.Raw)
			if err != nil {
				return false, &protocolError{host: id, cause: fmt.Errorf("outbox batch: %w", err)}
			}
			dest := rb.Peer
			if dest < 0 || dest >= len(r.slots) || dest == id {
				return false, &protocolError{host: id, cause: fmt.Errorf("outbox names invalid destination %d", dest)}
			}
			r.slots[dest].pending = append(r.slots[dest].pending, relayBatch{Peer: id, Raw: rb.Raw})
			appended++
			r.res.EstimatesSent += int64(pairs)
		}
	}
	return changed == 0 && delivered == 0 && appended == 0, nil
}

// protocolError marks a frame-level violation by a connected host —
// hostile or version-broken peers, not crash faults — which aborts the
// run instead of triggering a restart.
type protocolError struct {
	host  int
	cause error
}

func (e *protocolError) Error() string {
	return fmt.Sprintf("cluster: protocol violation from host %d: %v", e.host, e.cause)
}

func (e *protocolError) Unwrap() error { return e.cause }

func isProtocolError(err error) bool {
	var perr *protocolError
	return errors.As(err, &perr)
}

// collectDone reads slot id's round report, merging the checkpoint
// frame that precedes it when one was requested.
func (r *coordRun) collectDone(id int, s *hostSlot, round int, ckpt bool) (doneReport, []relayBatch, error) {
	sawCkpt := false
	for {
		typ, payload, err := s.conn.Recv()
		if err != nil {
			return doneReport{}, nil, err
		}
		switch typ {
		case frameCheckpoint:
			if !ckpt || sawCkpt {
				return doneReport{}, nil, &protocolError{host: id, cause: fmt.Errorf("unsolicited checkpoint")}
			}
			lo, hi := r.block.Range(id)
			ckRound, values, err := decodeCheckpoint(payload, lo, hi, r.g.NumNodes())
			if err != nil {
				return doneReport{}, nil, &protocolError{host: id, cause: err}
			}
			if ckRound != round {
				return doneReport{}, nil, &protocolError{host: id, cause: fmt.Errorf("checkpoint for round %d during round %d", ckRound, round)}
			}
			r.mergeCheckpoint(lo, values)
			r.res.Checkpoints++
			sawCkpt = true
		case frameDone:
			rep, out, err := decodeDone(payload)
			if err != nil {
				return doneReport{}, nil, &protocolError{host: id, cause: err}
			}
			if rep.Round != round {
				return doneReport{}, nil, &protocolError{host: id, cause: fmt.Errorf("reported round %d during round %d", rep.Round, round)}
			}
			return rep, out, nil
		default:
			return doneReport{}, nil, &protocolError{host: id, cause: fmt.Errorf("frame %d during round %d", typ, round)}
		}
	}
}

func (r *coordRun) anyDead() bool {
	for _, s := range r.slots {
		if !s.alive {
			return true
		}
	}
	return false
}

// acceptLeave reports whether a Leave request for host id can be
// honoured: the host must exist and must not be the last one.
func (r *coordRun) acceptLeave(id, round int) bool {
	switch {
	case id < 0 || id >= len(r.slots):
		r.c.log.Warn("leave request for absent host ignored", "host", id)
		return false
	case len(r.slots) == 1:
		r.c.log.Warn("leave request for last host ignored", "host", id)
		return false
	}
	r.c.log.Info("host leaving", "host", id, "round", round)
	return true
}

// restart is the one recovery path, run after a checkpoint round has
// min-merged every live host's estimates into best. It stops and drops
// the leaver (if any), replaces every dead host with a waiting worker,
// appends the joiner (if any), drops every pending relay batch, and
// reconfigures every host over the new host count, seeded from best.
// Survivors keep their order, so IDs only shift down past a leaver.
// Because best bounds the coreness from above, the cascade from there
// converges to the exact answer; the hosts' first round re-ships every
// border, so the dropped batches carry nothing it lacks. With
// RejoinWait 0 a dead host is a structured failure instead.
func (r *coordRun) restart(round, leaver int, join *joiner) error {
	if leaver >= 0 {
		if s := r.slots[leaver]; s.alive {
			err := s.conn.Send(frameStop, nil)
			if err == nil {
				_, err = r.recvResult(leaver, s)
			}
			if err != nil {
				r.c.log.Warn("leaving host did not stop cleanly", "host", leaver, "err", err)
			}
			s.conn.Close()
		}
		r.slots = slices.Delete(r.slots, leaver, leaver+1)
		r.res.Leaves++
		r.c.log.Info("host left", "host", leaver, "numHosts", len(r.slots))
	}
	wait := r.c.cfg.RejoinWait
	for id, s := range r.slots {
		if s.alive {
			continue
		}
		if wait == 0 {
			return fmt.Errorf("cluster: host %d died in round %d (last acked round %d): %w",
				id, s.diedRound, s.lastAcked, s.dieErr)
		}
		r.c.log.Info("waiting for replacement", "host", id, "wait", wait)
		j, err := r.awaitJoiner(wait)
		if err != nil {
			return fmt.Errorf("cluster: host %d died in round %d (last acked round %d) and no replacement arrived: %w",
				id, s.diedRound, s.lastAcked, err)
		}
		r.slots[id] = &hostSlot{conn: j.conn, alive: true}
		r.res.Recoveries++
	}
	if join != nil {
		r.slots = append(r.slots, &hostSlot{conn: join.conn, alive: true})
		r.res.Joins++
	}
	for _, s := range r.slots {
		s.pending = nil
	}
	if err := r.configureAll(round); err != nil {
		return err
	}
	if join != nil {
		r.c.log.Info("worker joined", "host", len(r.slots)-1, "numHosts", len(r.slots))
	}
	r.c.log.Info("hosts restarted", "round", round, "numHosts", len(r.slots))
	return nil
}

// collectResults stops every host and assembles the coreness vector
// from their owned estimates. A result frame carries values only; the
// current block assignment says which range each host owns.
func (r *coordRun) collectResults() error {
	coreness := make([]int, r.g.NumNodes())
	for id, s := range r.slots {
		if err := s.conn.Send(frameStop, nil); err != nil {
			return fmt.Errorf("cluster: stop to host %d: %w", id, err)
		}
	}
	for id, s := range r.slots {
		payload, err := r.recvResult(id, s)
		if err != nil {
			return err
		}
		lo, hi := r.block.Range(id)
		if err := decodeResult(payload, lo, hi, coreness); err != nil {
			return &protocolError{host: id, cause: err}
		}
	}
	r.res.Coreness = coreness
	return nil
}

// answerError reports a gathered coreness vector that breaks Theorem 1
// at one node, and the host that owned it: a corrupted estimate the
// cascade absorbed, caught before it could be returned as a coreness.
type answerError struct {
	host  int
	cause *kcore.LocalityError
}

func (e *answerError) Error() string {
	return fmt.Sprintf("cluster: gathered coreness fails verification at host %d: %v", e.host, e.cause)
}

func (e *answerError) Unwrap() error { return e.cause }

// verifyAnswer runs kcore.VerifyLocality, an O(m) check, on the gathered
// vector and names the owner of the first node that fails it.
func verifyAnswer(g *graph.Graph, block core.BlockAssignment, coreness []int) error {
	err := kcore.VerifyLocality(g, coreness)
	var le *kcore.LocalityError
	if errors.As(err, &le) {
		return &answerError{host: block.Host(le.Node), cause: le}
	}
	return err
}

// recvResult reads slot id's result frame and returns its payload.
func (r *coordRun) recvResult(id int, s *hostSlot) ([]byte, error) {
	typ, payload, err := s.conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("cluster: result from host %d: %w", id, err)
	}
	if typ != frameResult {
		return nil, fmt.Errorf("cluster: host %d sent frame %d, want result", id, typ)
	}
	return payload, nil
}

// accountWireBytes sums the delta-batch-bearing frame stats (ticks out,
// done reports in) over the final hosts' connections.
func (r *coordRun) accountWireBytes() {
	for _, s := range r.slots {
		st := s.conn.Stats()
		tick := st.OutByType[frameTick]
		done := st.InByType[frameDone]
		r.res.BatchBytesRaw += tick.RawBytes + done.RawBytes
		r.res.BatchBytesWire += tick.WireBytes + done.WireBytes
	}
}

// discardHandler is a no-op slog handler (slog.DiscardHandler arrives
// in a later Go release than this module targets).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }
