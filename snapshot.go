package dkcore

// This file is the epoch-snapshot layer beneath Session: an immutable
// Epoch per absorbed mutation batch, swapped in through an atomic
// pointer, plus the single-writer queue that absorbs mutations with
// batching and coalescing. Reads never take a lock: they grab the
// current Epoch with one atomic load and answer everything from that
// frozen view, so a deletion cascade in the writer can never stall the
// read path. Consecutive epochs share, copy-on-write, everything the
// batch between them did not touch, so publishing one costs what the
// batch changed, not the size of the graph.

import (
	"errors"
	"sync"

	"dkcore/internal/stream"
)

// ErrQueueFull is returned by Session.Enqueue when the bounded mutation
// queue is full — the backpressure signal for callers that must not
// block. Callers that prefer blocking use InsertEdge/DeleteEdge/
// ApplyEvent, which wait for queue space and for the mutation's result.
var ErrQueueFull = errors.New("dkcore: session mutation queue full")

// ErrSessionClosed is returned by Session.Enqueue and Session.Flush
// after Close. The closed session keeps serving reads from its last
// published epoch forever; only mutations are refused.
var ErrSessionClosed = errors.New("dkcore: session closed")

// Epoch is one immutable snapshot of a Session's decomposition: the
// per-node coreness, the degeneracy, and the edge set as of one absorbed
// mutation batch, tagged with a monotonically increasing sequence
// number. All methods are read-only, safe for concurrent use, and never
// observe later mutations — two queries against the same Epoch are
// guaranteed mutually consistent, which a pair of Session-level queries
// (two separate atomic loads) is not.
type Epoch struct {
	seq  uint64
	view *stream.View

	graphOnce sync.Once
	graph     *Graph // the view's edge set as a CSR, built by the first Graph call
}

// newEpoch freezes the maintainer's current state. Called only from the
// session writer, after a batch is fully absorbed. The cost is
// Maintainer.Publish's: the two tables' roots, the directories and
// leaves the batch wrote under, and the rows it wrote.
func newEpoch(seq uint64, mt *stream.Maintainer) *Epoch {
	return &Epoch{seq: seq, view: mt.Publish()}
}

// Seq returns the epoch's sequence number. The initial decomposition is
// epoch 1; every published batch increments it by one. A client that
// observed epoch N never observes an epoch < N from the same Session.
func (e *Epoch) Seq() uint64 { return e.seq }

// Coreness returns the coreness of node u in this epoch, or 0 for
// unknown nodes.
func (e *Epoch) Coreness(u int) int { return e.view.Coreness(u) }

// CorenessValues returns a copy of the epoch's per-node coreness array.
func (e *Epoch) CorenessValues() []int { return e.view.CorenessValues() }

// KCoreMembers returns the sorted IDs of the nodes in this epoch's
// k-core (coreness >= k); k <= 0 returns every node.
func (e *Epoch) KCoreMembers(k int) []int { return e.view.CoreMembers(k) }

// Degeneracy returns the epoch's maximum coreness: an O(1) read of the
// value the maintainer's per-level node counts held when the epoch was
// published — neither the read nor the publish scans the nodes.
func (e *Epoch) Degeneracy() int { return e.view.MaxCoreness() }

// NumNodes returns the epoch's node count.
func (e *Epoch) NumNodes() int { return e.view.NumNodes() }

// NumEdges returns the epoch's undirected edge count.
func (e *Epoch) NumEdges() int { return e.view.NumEdges() }

// HasEdge reports whether the undirected edge {u, v} is present in this
// epoch.
func (e *Epoch) HasEdge(u, v int) bool { return e.view.HasEdge(u, v) }

// Graph returns the epoch's edge set as an immutable CSR graph. The
// first call on an Epoch materializes it, in O(n+m); every later call
// returns the same graph, which is shared by all callers and must not be
// modified. Use Session.Snapshot for a private mutable-safe copy.
//
//dkcore:epochinit the CSR is a cache of the frozen view, filled once under sync.Once; every caller sees the one completed value
func (e *Epoch) Graph() *Graph {
	e.graphOnce.Do(func() { e.graph = e.view.Graph() })
	return e.graph
}

// SessionStats is a point-in-time counter snapshot of a Session's
// serving state, for monitoring and the /stats and /healthz endpoints
// of cmd/kcore-serve.
type SessionStats struct {
	// Epoch is the sequence number of the currently published epoch.
	Epoch uint64
	// NumNodes and NumEdges describe the published epoch's graph.
	NumNodes, NumEdges int
	// Degeneracy is the published epoch's maximum coreness.
	Degeneracy int
	// QueueDepth is the number of mutations waiting in the ingest queue.
	QueueDepth int
	// Enqueued counts mutations accepted since session creation.
	Enqueued int64
	// Applied counts mutations absorbed by the writer. EpochLag
	// (Enqueued - Applied, clamped at 0) is the freshness gap a reader
	// can observe.
	Applied int64
	// Batches counts published epochs beyond the initial one — the
	// number of writer batches that changed the graph.
	Batches int64
}

// EpochLag returns the number of accepted mutations not yet reflected
// in the published epoch, clamped at 0.
func (st SessionStats) EpochLag() int64 {
	if lag := st.Enqueued - st.Applied; lag > 0 {
		return lag
	}
	return 0
}

// sessionConfig holds the tunables SessionOption constructors set.
type sessionConfig struct {
	queueSize int
	maxBatch  int
}

// SessionOption tunes a Session's mutation queue; pass to NewSession or
// Engine.NewSession.
type SessionOption func(*sessionConfig)

// QueueSize bounds the mutation ingest queue (default 1024). A full
// queue makes Enqueue return ErrQueueFull and the blocking mutators
// wait — the backpressure knob.
func QueueSize(n int) SessionOption {
	return func(c *sessionConfig) { c.queueSize = n }
}

// MaxBatch bounds how many queued mutations the writer absorbs into one
// epoch (default 256); a waited frame (ApplyEvents) is never split, so
// it may carry a batch past the bound. A publish costs the two tables'
// roots (n/1024 pointers each), about a 16-entry leaf and a 512 B
// directory per coreness or row header written, and the rows written:
// only the roots are shared, so a larger batch saves little beyond them
// and edges that flap inside it, at the cost of coarser snapshots.
func MaxBatch(n int) SessionOption {
	return func(c *sessionConfig) { c.maxBatch = n }
}

// sessionOp is one entry of the mutation queue: a single event from
// Enqueue, or — when done is non-nil — a waited frame of zero or more
// events whose submitter wants to know how many of them changed the
// graph, once the epoch carrying all of them is published. A waited
// frame of zero events is Flush's barrier.
type sessionOp struct {
	ev    stream.Event
	frame []stream.Event
	done  chan int
}

// size is the number of events the op carries.
func (op sessionOp) size() int {
	if op.done == nil {
		return 1
	}
	return len(op.frame)
}

// writer is the Session's single mutator goroutine: it drains the queue
// in batches of up to maxBatch events (a frame is never split, so the
// last op of a batch may carry it past that), absorbs each batch into
// the maintainer, publishes one immutable Epoch per batch that changed
// the graph, and only then reports each waited op's result. It exits
// when the queue is closed, after draining every remaining op.
func (s *Session) writer(mt *stream.Maintainer) {
	defer close(s.writerDone)
	batch := make([]sessionOp, 0, s.maxBatch)
	changed := make([]int, 0, s.maxBatch)
	for op := range s.queue {
		batch = append(batch[:0], op)
		events := op.size()
	drain:
		for events < s.maxBatch {
			select {
			case next, ok := <-s.queue:
				if !ok {
					break drain
				}
				batch = append(batch, next)
				events += next.size()
			default:
				break drain
			}
		}
		changed = s.absorb(mt, batch, changed[:0])
		for i, op := range batch {
			if op.done != nil {
				op.done <- changed[i]
			}
		}
	}
}

// edgeKey normalizes an undirected edge for coalescing.
type edgeKey struct{ u, v int }

// edgeState tracks one coalesced edge through a batch: presence before
// the batch and presence after the events simulated so far.
type edgeState struct{ before, after bool }

// absorb applies one batch to the maintainer, publishes an epoch if the
// graph changed, and appends to changed, per op, how many of the op's
// events changed the graph in sequential order. Events on edges inside
// the pre-batch node set are coalesced: their results are computed by
// simulating presence per edge, and only each edge's net effect (insert,
// delete, or nothing for an insert+delete pair) touches the maintainer —
// so an edge that flaps within a batch costs zero cascades. Events that
// would grow the node set are applied literally, keeping NumNodes (and
// hence the published state) exactly what a sequential replay of the
// batch would produce. Edge sets of the two classes are disjoint (a key
// is literal iff an endpoint is outside the frozen pre-batch node set),
// so the final state is order-independent and matches the sequential
// result.
func (s *Session) absorb(mt *stream.Maintainer, batch []sessionOp, changed []int) []int {
	n0 := mt.NumNodes()
	dirty := false
	applied := int64(0)
	pending := s.pending
	clear(pending)
	for _, op := range batch {
		evs := op.frame
		if op.done == nil {
			evs = []stream.Event{op.ev}
		}
		applied += int64(len(evs))
		count := 0
		for _, ev := range evs {
			u, v := ev.U, ev.V
			if u < 0 || v < 0 || u == v {
				continue
			}
			if u >= n0 || v >= n0 {
				if mt.Apply(ev) {
					dirty = true
					count++
				}
				continue
			}
			if u > v {
				u, v = v, u
			}
			key := edgeKey{u, v}
			st, seen := pending[key]
			if !seen {
				p := mt.HasEdge(u, v)
				st = edgeState{before: p, after: p}
			}
			// A delete changes the graph iff the edge is present, an
			// insert iff it is absent.
			if isDelete := ev.Op == stream.OpDelete; st.after == isDelete {
				count++
				st.after = !isDelete
			}
			pending[key] = st
		}
		changed = append(changed, count)
	}
	for key, st := range pending {
		if st.after == st.before {
			continue
		}
		if st.after {
			mt.InsertEdge(key.u, key.v)
		} else {
			mt.DeleteEdge(key.u, key.v)
		}
		dirty = true
	}
	if dirty {
		seq := s.cur.Load().seq + 1
		s.cur.Store(newEpoch(seq, mt))
		s.batches.Add(1)
	}
	// Results become visible to waiters only after the epoch carrying
	// their effect is published, so a caller whose InsertEdge returned
	// true immediately observes an epoch containing that edge.
	s.applied.Add(applied)
	return changed
}
