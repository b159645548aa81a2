package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"slices"
	"sync"
	"time"

	"dkcore/internal/core"
	"dkcore/internal/graph"
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
	// CheckpointEvery asks every host for a state checkpoint each k
	// rounds. Checkpoints bound the replay log: a restarted host
	// reloads its checkpoint and replays only the batches delivered
	// since. 0 disables checkpointing (a restart then replays the full
	// delivery history, which the coordinator retains whenever
	// RejoinWait allows restarts at all).
	CheckpointEvery int
	// RejoinWait is how long the coordinator waits for a replacement
	// worker after a host connection dies before giving up on the run.
	// 0 (the default) fails fast: any host death aborts the run with a
	// structured error naming the host and its last acknowledged round.
	// A host that reconnects within the window is restored from its
	// slot's checkpoint and replay log like any other replacement — the
	// checkpoint itself is never invalidated by the death.
	RejoinWait time.Duration
	// FrameTimeout bounds each frame send and each wait for a host's
	// next frame. 0 disables deadlines. Choose it above the slowest
	// host's per-round compute, or healthy-but-slow workers read as
	// dead. A tripped deadline is a connection failure, so with a
	// RejoinWait budget it feeds the normal recovery path — wedged
	// hosts become replaceable instead of hanging the run.
	FrameTimeout time.Duration
	// AllowJoin lets extra workers join a running cluster: a join
	// triggers a partial repartition in which only the moved nodes are
	// re-shipped. Replacement workers for dead hosts are always
	// accepted regardless of this flag.
	AllowJoin bool
	// Compression negotiates transparent flate compression of all
	// frames (config, ticks, done reports, checkpoints) with every
	// host that advertises support.
	Compression bool
	// Log receives structured runtime events (host deaths, recoveries,
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
	// host restarts absorbed; Joins and Leaves count membership
	// changes applied.
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

// Leave asks the coordinator to retire host id at the next round
// boundary: the host's nodes are redistributed over the remaining
// workers (only moved nodes are re-shipped) and the worker is then
// released with a normal stop/result exchange. The request is
// asynchronous — a run that quiesces first simply never processes it.
// Leave fails only when the request queue is full.
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
// rounds until global quiescence, and assembles the result — absorbing
// host deaths, restarts, and membership changes along the way according
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

// relayEntry is one batch queued for delivery to a slot, with the round
// it was (or will be) delivered in. Entries before the slot's cursor
// have been delivered and are retained for replay until a checkpoint
// covers them; entries at and after the cursor are pending.
type relayEntry struct {
	src   int
	round int
	raw   []byte
	pairs int
}

// hostSlot is the coordinator's view of one host-ID slot.
type hostSlot struct {
	conn      *transport.Conn
	alive     bool
	left      bool // departed for good via Leave
	lastAcked int  // last round whose done report arrived
	diedRound int
	dieErr    error

	ckpt *checkpointMsg

	log    []relayEntry
	cursor int // log[:cursor] delivered, log[cursor:] pending

	report doneReport // most recent
}

// markDead records a host connection failure: the slot keeps its
// checkpoint and replay log so a replacement can resume it.
func (c *Coordinator) markDead(id int, s *hostSlot, round int, err error) {
	s.conn.Close()
	s.alive = false
	s.diedRound = round
	s.dieErr = err
	c.log.Warn("host connection lost",
		"host", id, "round", round, "lastAcked", s.lastAcked, "err", err)
}

// storeCheckpoint records a host checkpoint and prunes the delivered
// replay prefix it covers: a checkpoint at round R bakes in every batch
// delivered in ticks ≤ R.
func (s *hostSlot) storeCheckpoint(ck checkpointMsg) {
	est := slices.Clone(ck.Est) // aliases the frame payload; the slot outlives it
	s.ckpt = &checkpointMsg{Round: ck.Round, Est: est, Sup: ck.Sup}
	i := 0
	for i < s.cursor && s.log[i].round <= ck.Round {
		i++
	}
	if i > 0 {
		s.log = append(s.log[:0], s.log[i:]...)
		s.cursor -= i
	}
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
	base   core.BlockAssignment // ownership before overrides: ranges over the initial NumHosts
	hostOf []int                // current node → host table
	parts  *core.Partitions
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
		base:   core.BlockAssignment{N: c.cfg.Graph.NumNodes(), H: c.cfg.NumHosts},
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

	// Ownership starts as contiguous ID ranges, so a chain of consecutive
	// IDs cascades inside one host; membership changes add overrides.
	r.hostOf = make([]int, r.g.NumNodes())
	for u := range r.hostOf {
		r.hostOf[u] = r.base.Host(u)
	}
	var err error
	r.parts, err = core.PartitionAll(r.g, core.TableAssignment{Table: r.hostOf, H: len(r.slots)})
	if err != nil {
		return nil, fmt.Errorf("cluster: partition: %w", err)
	}
	oNodes, oHosts := r.overrideLists()
	for id := range r.slots {
		if err := r.configureHost(id, restoreMsg{}, oNodes, oHosts); err != nil {
			return nil, err
		}
	}
	for id, s := range r.slots {
		if err := r.expectReady(id, s); err != nil {
			return nil, err
		}
	}

	if err := r.roundLoop(); err != nil {
		return nil, err
	}
	if err := r.collectResults(); err != nil {
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

// overrideLists materializes the current ownership overrides (every
// node whose owner differs from its base range's host) in the config
// wire form. It scans every node, so a configuration pass computes the
// lists once and hands them to each configureHost.
func (r *coordRun) overrideLists() (nodes, hosts []int) {
	for u, h := range r.hostOf {
		if h != r.base.Host(u) {
			nodes = append(nodes, u)
			hosts = append(hosts, h)
		}
	}
	return nodes, hosts
}

// configureHost ships slot id's config, carrying the override lists
// from overrideLists, and its restore payload. The caller collects the
// ready frame.
func (r *coordRun) configureHost(id int, restore restoreMsg, oNodes, oHosts []int) error {
	s := r.slots[id]
	cfg := partitionConfig(r.parts, id)
	cfg.NumHosts = len(r.slots)
	cfg.BaseHosts = r.base.H
	cfg.OverrideNodes, cfg.OverrideHosts = oNodes, oHosts
	if err := s.conn.Send(frameConfig, encodeConfig(cfg)); err != nil {
		return fmt.Errorf("cluster: config to host %d: %w", id, err)
	}
	if err := s.conn.Send(frameRestore, encodeRestore(restore)); err != nil {
		return fmt.Errorf("cluster: restore to host %d: %w", id, err)
	}
	return nil
}

// partitionConfig is host id's partition in config form: HostID,
// NumNodes, and the owned set and CSR rows with the offsets rebased to
// start at 0. The caller fills in the host counts and overrides.
func partitionConfig(parts *core.Partitions, id int) config {
	owned, off, flat := parts.CSR(id)
	cfg := config{HostID: id, NumNodes: parts.NumNodes(), Owned: owned}
	base := 0
	if len(off) > 0 {
		base = off[0]
	}
	cfg.AdjOff = make([]int, len(off))
	for i, o := range off {
		cfg.AdjOff[i] = o - base
	}
	cfg.AdjFlat = flat[base : base+cfg.AdjOff[len(owned)]]
	return cfg
}

func (r *coordRun) expectReady(id int, s *hostSlot) error {
	typ, _, err := s.conn.Recv()
	if err != nil {
		return fmt.Errorf("cluster: ready from host %d: %w", id, err)
	}
	if typ != frameReady {
		return fmt.Errorf("cluster: host %d sent frame %d, want ready", id, typ)
	}
	return nil
}

// roundLoop drives synchronous rounds until global quiescence: no host
// changed an estimate, nothing was delivered, and nothing new was
// queued. Host deaths trigger recovery (or a structured failure);
// membership changes are applied at round boundaries.
func (r *coordRun) roundLoop() error {
	cfg := r.c.cfg
	retain := cfg.RejoinWait > 0
	for round := 1; ; round++ {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		if round > cfg.MaxRounds {
			return fmt.Errorf("cluster: exceeded %d rounds without quiescing", cfg.MaxRounds)
		}
		ckptDue := cfg.CheckpointEvery > 0 && round%cfg.CheckpointEvery == 0

		// Tick phase: deliver each live slot's pending batches. A send
		// failure marks the slot dead but the round goes on, so every
		// surviving host still completes it.
		delivered, appended, changed := 0, 0, 0
		ticked := make([]bool, len(r.slots))
		for id, s := range r.slots {
			if !s.alive {
				continue
			}
			pending := s.log[s.cursor:]
			batches := make([]relayBatch, len(pending))
			for i, e := range pending {
				batches[i] = relayBatch{Peer: e.src, Raw: e.raw}
			}
			r.tickBuf = encodeTick(r.tickBuf[:0], tickMsg{Round: round, Checkpoint: ckptDue, Batches: batches})
			if err := s.conn.Send(frameTick, r.tickBuf); err != nil {
				r.c.markDead(id, s, round, err)
				continue
			}
			for i := range pending {
				s.log[s.cursor+i].round = round
			}
			delivered += len(pending)
			s.cursor = len(s.log)
			if !retain {
				// No restarts possible: delivered entries will never be
				// replayed, so drop them immediately.
				s.log = s.log[:0]
				s.cursor = 0
			}
			ticked[id] = true
		}

		// Collect phase: checkpoint (if due) then done from every host
		// that got a tick; route their outboxes into the pending logs.
		for id, s := range r.slots {
			if !ticked[id] {
				continue
			}
			rep, out, err := r.collectDone(id, s, round, ckptDue)
			if err != nil {
				if r.ctx.Err() != nil {
					return r.ctx.Err()
				}
				var perr *protocolError
				if errAs(err, &perr) {
					return err // hostile/broken frames are fatal, not recoverable
				}
				r.c.markDead(id, s, round, err)
				continue
			}
			s.lastAcked = round
			s.report = rep
			changed += rep.Changed
			for _, rb := range out {
				pairs, err := transport.ScanBatch(rb.Raw)
				if err != nil {
					return &protocolError{host: id, cause: fmt.Errorf("outbox batch: %w", err)}
				}
				dest := rb.Peer
				if dest < 0 || dest >= len(r.slots) || dest == id || r.slots[dest].left {
					return &protocolError{host: id, cause: fmt.Errorf("outbox names invalid destination %d", dest)}
				}
				r.slots[dest].log = append(r.slots[dest].log, relayEntry{src: id, raw: rb.Raw, pairs: pairs})
				appended++
				r.res.EstimatesSent += int64(pairs)
			}
		}
		r.res.Rounds = round

		if r.anyDead() {
			if err := r.recoverDead(round); err != nil {
				return err
			}
			continue // a recovery round can never be the quiet one
		}
		if changed == 0 && delivered == 0 && appended == 0 && round > 1 {
			return nil
		}

		// Membership boundary: one change per round keeps the protocol
		// states easy to reason about; queued requests wait their turn.
		select {
		case id := <-r.c.leaveCh:
			if err := r.reshapeLeave(id, round); err != nil {
				return err
			}
			continue
		default:
		}
		if cfg.AllowJoin {
			select {
			case j := <-r.joinCh:
				if err := r.reshapeJoin(j, round); err != nil {
					return err
				}
			default:
			}
		}
	}
}

// protocolError marks a frame-level violation by a connected host —
// hostile or version-broken peers, not crash faults — which aborts the
// run instead of triggering recovery.
type protocolError struct {
	host  int
	cause error
}

func (e *protocolError) Error() string {
	return fmt.Sprintf("cluster: protocol violation from host %d: %v", e.host, e.cause)
}

func (e *protocolError) Unwrap() error { return e.cause }

// errAs is errors.As without the import-shadowing noise at call sites.
func errAs(err error, target **protocolError) bool {
	for err != nil {
		if pe, ok := err.(*protocolError); ok {
			*target = pe
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// collectDone reads slot id's round report, absorbing the checkpoint
// frame that precedes it when one was requested.
func (r *coordRun) collectDone(id int, s *hostSlot, round int, ckptDue bool) (doneReport, []relayBatch, error) {
	sawCkpt := false
	for {
		typ, payload, err := s.conn.Recv()
		if err != nil {
			return doneReport{}, nil, err
		}
		switch typ {
		case frameCheckpoint:
			if !ckptDue || sawCkpt {
				return doneReport{}, nil, &protocolError{host: id, cause: fmt.Errorf("unsolicited checkpoint")}
			}
			ck, n, err := decodeCheckpoint(payload)
			if err != nil || n != len(payload) {
				return doneReport{}, nil, &protocolError{host: id, cause: fmt.Errorf("checkpoint: %v", err)}
			}
			if ck.Round != round {
				return doneReport{}, nil, &protocolError{host: id, cause: fmt.Errorf("checkpoint for round %d during round %d", ck.Round, round)}
			}
			s.storeCheckpoint(ck)
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
		if !s.alive && !s.left {
			return true
		}
	}
	return false
}

// recoverDead restores every dead slot from a replacement worker: the
// replacement gets the current config, the slot's checkpoint, and a
// replay of every batch delivered since that checkpoint (or ever,
// without checkpoints), then resumes at the next round. With
// RejoinWait 0 recovery is disabled and the death is a structured
// failure.
func (r *coordRun) recoverDead(round int) error {
	wait := r.c.cfg.RejoinWait
	oNodes, oHosts := r.overrideLists()
	for id, s := range r.slots {
		if s.alive || s.left {
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
		s.conn = j.conn
		restore := restoreMsg{Ckpt: s.ckpt}
		restore.Replay = make([]relayBatch, len(s.log))
		for i, e := range s.log {
			restore.Replay[i] = relayBatch{Peer: e.src, Raw: e.raw}
		}
		if err := r.configureHost(id, restore, oNodes, oHosts); err != nil {
			return fmt.Errorf("cluster: restoring host %d: %w", id, err)
		}
		if err := r.expectReady(id, s); err != nil {
			return fmt.Errorf("cluster: restoring host %d: %w", id, err)
		}
		// Everything shipped in the restore counts as delivered this
		// round; a future checkpoint at or past this round prunes it.
		for i := range s.log {
			s.log[i].round = round
		}
		s.cursor = len(s.log)
		s.alive = true
		ckptRound := 0
		if s.ckpt != nil {
			ckptRound = s.ckpt.Round
		}
		r.res.Recoveries++
		r.c.log.Info("host restored",
			"host", id, "round", round, "checkpointRound", ckptRound, "replayedBatches", len(restore.Replay))
	}
	return nil
}

// collectResults stops every live host and assembles the coreness
// vector from their owned estimates. A result frame carries values
// only; the current partition says which nodes each host owns.
func (r *coordRun) collectResults() error {
	coreness := make([]int, r.g.NumNodes())
	for id, s := range r.slots {
		if !s.alive {
			continue
		}
		if err := s.conn.Send(frameStop, nil); err != nil {
			return fmt.Errorf("cluster: stop to host %d: %w", id, err)
		}
	}
	for id, s := range r.slots {
		if !s.alive {
			continue
		}
		payload, err := r.recvResult(id, s)
		if err != nil {
			return err
		}
		if err := decodeResult(payload, r.parts.Owned(id), coreness); err != nil {
			return &protocolError{host: id, cause: err}
		}
	}
	r.res.Coreness = coreness
	return nil
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
// done reports in) over surviving connections.
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
