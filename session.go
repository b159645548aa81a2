package dkcore

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"dkcore/internal/stream"
)

// Session is a long-lived query handle over one graph's decomposition —
// the serving building block: decompose once with any engine kind, then
// keep the decomposition exact under edge insertions and deletions (via
// the streaming maintainer) while concurrently answering coreness
// queries.
//
// A Session is safe for concurrent use and its reads are lock-free:
// every query answers from an immutable Epoch snapshot reached by one
// atomic pointer load, so no read ever blocks behind a mutation — not
// even a deletion cascade. Mutations flow through a bounded queue
// drained by a single writer goroutine that absorbs them in batches
// (coalescing an insert+delete of the same edge within a batch) and
// publishes a fresh Epoch per batch, at a cost proportional to what the
// batch changed: epochs share every adjacency row and coreness page the
// batch did not write. The blocking mutators (InsertEdge, DeleteEdge,
// ApplyEvent, and ApplyEvents for a whole frame in one epoch) wait for
// their batch to be absorbed and return the exact sequential result;
// Enqueue is the non-blocking alternative that reports ErrQueueFull
// instead of waiting. Use CurrentEpoch when a group of reads must be
// mutually consistent.
//
// A Session owns a goroutine; Close stops it. A closed Session keeps
// serving reads from its last epoch and refuses mutations.
type Session struct {
	cur atomic.Pointer[Epoch]

	queue    chan sessionOp
	maxBatch int

	// sendMu guards queue sends against Close's close(queue); it is
	// never touched by the read path.
	sendMu sync.RWMutex
	closed bool

	enqueued atomic.Int64
	applied  atomic.Int64
	batches  atomic.Int64

	pending    map[edgeKey]edgeState // writer-owned coalescing scratch
	writerDone chan struct{}

	initial *Report
}

// NewSession decomposes g on the engine's execution path and wraps the
// result in a Session. The engine runs exactly once — the Session's
// incremental maintenance takes over from there — and its Report stays
// available via InitialReport.
func (e *Engine) NewSession(ctx context.Context, g *Graph, opts ...SessionOption) (*Session, error) {
	rep, err := e.Run(ctx, g)
	if err != nil {
		return nil, err
	}
	mt, err := stream.NewMaintainerFromCoreness(g, rep.Coreness)
	if err != nil {
		return nil, fmt.Errorf("dkcore: Engine(%s).NewSession: %w", e.kind, err)
	}
	return newSession(mt, rep, opts)
}

// NewSession decomposes g with the Sequential engine and returns a query
// Session over the result; use Engine.NewSession to decompose with a
// different engine kind.
func NewSession(ctx context.Context, g *Graph, opts ...SessionOption) (*Session, error) {
	eng, err := NewEngine(Sequential)
	if err != nil {
		return nil, err
	}
	return eng.NewSession(ctx, g, opts...)
}

func newSession(mt *stream.Maintainer, rep *Report, opts []SessionOption) (*Session, error) {
	cfg := sessionConfig{queueSize: 1024, maxBatch: 256}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.queueSize < 1 {
		return nil, fmt.Errorf("dkcore: QueueSize(%d): need at least 1", cfg.queueSize)
	}
	if cfg.maxBatch < 1 {
		return nil, fmt.Errorf("dkcore: MaxBatch(%d): need at least 1", cfg.maxBatch)
	}
	s := &Session{
		queue:      make(chan sessionOp, cfg.queueSize),
		maxBatch:   cfg.maxBatch,
		pending:    make(map[edgeKey]edgeState),
		writerDone: make(chan struct{}),
		initial:    rep,
	}
	s.cur.Store(newEpoch(1, mt))
	go s.writer(mt)
	return s, nil
}

// InitialReport returns the Report of the engine run that seeded this
// Session. It reflects the graph as of session creation, not later
// mutations.
func (s *Session) InitialReport() *Report { return s.initial }

// CurrentEpoch returns the currently published snapshot. Successive
// calls on one Session handle return epochs with non-decreasing
// sequence numbers; queries answered from one Epoch are mutually
// consistent, where two Session-level queries may straddle a publish.
func (s *Session) CurrentEpoch() *Epoch { return s.cur.Load() }

// Coreness returns the exact coreness of node u under the current
// epoch's edge set, or 0 for unknown nodes.
func (s *Session) Coreness(u int) int { return s.cur.Load().Coreness(u) }

// CorenessValues returns a copy of the current epoch's per-node coreness
// array.
func (s *Session) CorenessValues() []int { return s.cur.Load().CorenessValues() }

// KCoreMembers returns the sorted IDs of the nodes in the current
// epoch's k-core (coreness >= k); k <= 0 returns every node.
func (s *Session) KCoreMembers(k int) []int { return s.cur.Load().KCoreMembers(k) }

// Degeneracy returns the maximum coreness of the current epoch, an O(1)
// read.
func (s *Session) Degeneracy() int { return s.cur.Load().Degeneracy() }

// NumNodes returns the current epoch's node count.
func (s *Session) NumNodes() int { return s.cur.Load().NumNodes() }

// NumEdges returns the current epoch's undirected edge count.
func (s *Session) NumEdges() int { return s.cur.Load().NumEdges() }

// HasEdge reports whether the undirected edge {u, v} is present in the
// current epoch.
func (s *Session) HasEdge(u, v int) bool { return s.cur.Load().HasEdge(u, v) }

// Snapshot materializes the current epoch's edge set as a Graph owned by
// the caller: mutating it cannot affect the Session or other callers.
func (s *Session) Snapshot() *Graph { return s.cur.Load().view.Graph() }

// Stats returns a point-in-time snapshot of the session's serving
// counters.
func (s *Session) Stats() SessionStats {
	ep := s.cur.Load()
	return SessionStats{
		Epoch:      ep.seq,
		NumNodes:   ep.NumNodes(),
		NumEdges:   ep.NumEdges(),
		Degeneracy: ep.Degeneracy(),
		QueueDepth: len(s.queue),
		Enqueued:   s.enqueued.Load(),
		Applied:    s.applied.Load(),
		Batches:    s.batches.Load(),
	}
}

// InsertEdge adds the undirected edge {u, v} and updates the
// decomposition exactly, growing the node set if an endpoint is new. It
// blocks until the mutation is absorbed and its epoch published, then
// reports whether the edge was added; self-loops, negative endpoints,
// already-present edges, and closed sessions leave the session unchanged
// and return false.
func (s *Session) InsertEdge(u, v int) bool {
	return s.ApplyEvent(EdgeEvent{Op: EdgeInsert, U: u, V: v})
}

// DeleteEdge removes the undirected edge {u, v} and updates the
// decomposition exactly. It blocks until the mutation is absorbed, then
// reports whether the edge was present; deleting an absent edge or
// mutating a closed session returns false.
func (s *Session) DeleteEdge(u, v int) bool {
	return s.ApplyEvent(EdgeEvent{Op: EdgeDelete, U: u, V: v})
}

// ApplyEvent applies one edge event, blocking until it is absorbed, and
// returns whether it changed the graph.
func (s *Session) ApplyEvent(ev EdgeEvent) bool { return s.ApplyEvents([]EdgeEvent{ev}) == 1 }

// ApplyEvents applies a frame of edge events in order as one unit of
// the writer's work: it blocks until every event is absorbed and the one
// epoch carrying their combined effect is published, then returns how
// many of them changed the graph — exactly the count a one-by-one
// sequential replay reports, although edges that flap inside the frame
// cost no cascade. The caller must not modify evs before the call
// returns. A closed session returns 0.
func (s *Session) ApplyEvents(evs []EdgeEvent) (changed int) {
	changed, _ = s.submit(evs)
	return changed
}

// submit queues evs as one waited frame and waits for its result.
func (s *Session) submit(evs []EdgeEvent) (changed int, err error) {
	done := make(chan int, 1)
	s.sendMu.RLock()
	if s.closed {
		s.sendMu.RUnlock()
		return 0, ErrSessionClosed
	}
	s.enqueued.Add(int64(len(evs)))
	s.queue <- sessionOp{frame: evs, done: done}
	s.sendMu.RUnlock()
	return <-done, nil
}

// Enqueue submits one edge event without waiting for absorption. It
// returns ErrQueueFull when the bounded queue is full (the backpressure
// signal) and ErrSessionClosed after Close; a nil return means the event
// will be absorbed by a future epoch — use Flush to wait for it.
//
//dkcore:noctx non-blocking by contract: a full queue returns ErrQueueFull immediately
func (s *Session) Enqueue(ev EdgeEvent) error {
	s.sendMu.RLock()
	defer s.sendMu.RUnlock()
	if s.closed {
		return ErrSessionClosed
	}
	select {
	case s.queue <- sessionOp{ev: ev}:
		s.enqueued.Add(1)
		return nil
	default:
		return ErrQueueFull
	}
}

// Flush blocks until every mutation enqueued before the call has been
// absorbed and published, or returns ErrSessionClosed.
//
//dkcore:noctx blocking is Flush's documented contract (drain barrier); bounded by writer progress
func (s *Session) Flush() error {
	_, err := s.submit(nil)
	return err
}

// Close stops the writer goroutine after absorbing every queued
// mutation. Reads keep serving the final epoch; subsequent mutations
// return false (blocking mutators) or ErrSessionClosed (Enqueue, Flush).
// Close is idempotent and always returns nil.
//
//dkcore:noctx blocking drain is the documented Close contract; bounded by queued work
func (s *Session) Close() error {
	s.sendMu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.sendMu.Unlock()
	<-s.writerDone
	return nil
}
