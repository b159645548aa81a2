// Package parallel decomposes a graph in shared memory with a
// level-synchronous peel sharded by owner: each of P persistent workers
// keeps int32 residual degrees and coreness for the nodes an assignment
// gives it and reads the graph's CSR in place. Level k peels every node
// of residual degree at most k, at coreness k, in barrier-separated
// sub-rounds: an owner applies the decrements sent to it in the previous
// one, in source order, then peels to local quiescence, queueing one per
// foreign neighbour in that owner's outbox. A level ends when a sub-round
// sends nothing; the next starts at the least surviving degree. Each arc
// is walked once, and the fixed inbox order makes the counters repeat.
package parallel

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"dkcore/internal/core"
	"dkcore/internal/graph"
)

// Option configures a parallel decomposition.
type Option func(*options)

type options struct {
	workers   int
	assign    core.Assignment
	maxRounds int
}

// WithWorkers sets the number of owners (and worker goroutines).
// Default: runtime.GOMAXPROCS(0), capped at the node count. Ignored when
// WithAssignment is given, except that a non-zero mismatch with the
// assignment's host count is an error.
func WithWorkers(n int) Option { return func(o *options) { o.workers = n } }

// WithAssignment decides which owner peels which node; the worker count
// becomes the assignment's host count. Default: core.BlockAssignment,
// which keeps contiguous node ranges together.
func WithAssignment(a core.Assignment) Option { return func(o *options) { o.assign = a } }

// WithMaxRounds overrides the sub-round budget (default 8*(N+1)).
func WithMaxRounds(n int) Option { return func(o *options) { o.maxRounds = n } }

// Result reports a parallel decomposition.
type Result struct {
	// Coreness is the exact per-node coreness.
	Coreness []int
	// Rounds is the number of peel sub-rounds.
	Rounds int
	// Workers is the resolved owner/goroutine count.
	Workers int
	// EstimatesSent is the number of cross-owner degree decrements: one
	// per arc from a peeled node to a node of another owner.
	EstimatesSent int64
	// Batches is the number of non-empty (sub-round, src, dst) outboxes.
	Batches int64
}

// slot locates a node: its owner and its index in the owner's slices.
type slot struct{ owner, idx int32 }

// shard is one owner's state; index i of each slice is node nodes[i].
type shard struct {
	nodes, coreness []int32
	deg             []int32      // residual degree; at most the level once peeled
	alive           []int32      // indices that survived the last finished level
	queue           []int32      // indices peeled in the current sub-round
	out             [2][][]int32 // by sub-round parity and destination owner
	min             int32        // least degree in alive
	arcs            int64        // adjacency entries walked this run
}

// step is shard x's scan past level k (k < 0: a new run) or sub-round.
type step struct {
	x          int
	k          int32
	scan, seed bool // seed: the level's first sub-round
	parity     uint8
}

// engine is a reusable peel: P persistent workers around P shards.
type engine struct {
	g                      *graph.Graph
	place                  []slot
	shards                 []shard
	maxRounds, rounds      int
	estimatesSent, batches int64
	start                  chan step
	done                   chan struct{}
}

// newEngine builds the shards and starts the workers; close() them.
func newEngine(g *graph.Graph, assign core.Assignment, maxRounds int) (*engine, error) {
	p := assign.NumHosts()
	e := &engine{g: g, place: make([]slot, g.NumNodes()), shards: make([]shard, p),
		maxRounds: maxRounds, start: make(chan step, p), done: make(chan struct{}, p)}
	for u := range e.place {
		h := assign.Host(u)
		if h < 0 || h >= p {
			return nil, fmt.Errorf("parallel: assignment routes node %d to host %d outside [0, %d)", u, h, p)
		}
		e.place[u] = slot{int32(h), int32(len(e.shards[h].nodes))}
		e.shards[h].nodes = append(e.shards[h].nodes, int32(u))
	}
	for x := range e.shards {
		c, s := len(e.shards[x].nodes), &e.shards[x]
		*s = shard{nodes: s.nodes, deg: make([]int32, c), coreness: make([]int32, c), alive: make([]int32, c),
			queue: make([]int32, 0, c), out: [2][][]int32{make([][]int32, p), make([][]int32, p)}}
		go e.work()
	}
	return e, nil
}

func (e *engine) work() {
	for st := range e.start {
		if st.scan {
			e.shards[st.x].scan(e.g, st.k)
		} else {
			e.peel(st)
		}
		e.done <- struct{}{}
	}
}

// run peels level by level; after an error, discard the engine.
//
//dkcore:noalloc the level and sub-round loop (TestSteadyStateRoundAllocs)
func (e *engine) run(ctx context.Context) error {
	e.rounds, e.estimatesSent, e.batches = 0, 0, 0
	var parity uint8
	for k := int32(-1); ; {
		e.barrier(step{k: k, scan: true})
		k = math.MaxInt32
		for x := range e.shards {
			k = min(k, e.shards[x].min)
		}
		if k == math.MaxInt32 {
			return nil
		}
		for seed, sent := true, int64(1); sent > 0; seed = false {
			if err := ctx.Err(); err != nil {
				return err
			}
			if e.rounds >= e.maxRounds {
				//dkcore:lint-ignore KC004 cold failure exit: the round budget tripped, the run is over
				return fmt.Errorf("parallel: %d nodes not peeled in %d sub-rounds", len(e.place), e.maxRounds)
			}
			e.barrier(step{k: k, seed: seed, parity: parity})
			sent = 0
			for x := range e.shards {
				for _, b := range e.shards[x].out[parity] {
					if len(b) > 0 {
						sent, e.batches = sent+int64(len(b)), e.batches+1
					}
				}
			}
			e.rounds, e.estimatesSent, parity = e.rounds+1, e.estimatesSent+sent, parity^1
		}
	}
}

func (e *engine) barrier(st step) {
	for st.x = 0; st.x < len(e.shards); st.x++ {
		e.start <- st
	}
	for range e.shards {
		<-e.done
	}
}

// scan drops the nodes peeled at levels up to k from alive and records
// the least surviving degree (MaxInt32 if none).
//
//dkcore:noalloc once per level; compacts alive in place
func (s *shard) scan(g *graph.Graph, k int32) {
	if k < 0 {
		s.alive, s.arcs = s.alive[:len(s.nodes)], 0
		for i, u := range s.nodes {
			s.deg[i], s.alive[i] = int32(g.Degree(int(u))), int32(i)
		}
	}
	live, m := s.alive[:0], int32(math.MaxInt32)
	for _, i := range s.alive {
		if d := s.deg[i]; d > k {
			live, m = append(live, i), min(m, d)
		}
	}
	s.alive, s.min = live, m
}

// peel is shard x's sub-round: seed or apply the inboxes, then cascade.
//
//dkcore:noalloc the per-sub-round peel; queue and outboxes are retained
func (e *engine) peel(st step) {
	x, k, s, out := st.x, st.k, &e.shards[st.x], e.shards[st.x].out[st.parity]
	for d := range out {
		out[d] = out[d][:0]
	}
	s.queue = s.queue[:0]
	if st.seed {
		for _, i := range s.alive {
			if s.deg[i] == k {
				s.take(i, k)
			}
		}
	} else {
		for src := range e.shards {
			for _, i := range e.shards[src].out[st.parity^1][x] {
				s.lower(i, k)
			}
		}
	}
	for h := 0; h < len(s.queue); h++ {
		nb := e.g.Neighbors(int(s.nodes[s.queue[h]]))
		s.arcs += int64(len(nb))
		for _, v := range nb {
			if at := e.place[v]; int(at.owner) == x {
				s.lower(at.idx, k)
			} else {
				out[at.owner] = append(out[at.owner], at.idx)
			}
		}
	}
}

// lower applies one decrement at level k and peels a survivor falling to
// k; a peeled node's degree is at most k, so it falls below k instead.
//
//dkcore:noalloc per-arc step of the peel
func (s *shard) lower(i, k int32) {
	if s.deg[i]--; s.deg[i] == k {
		s.take(i, k)
	}
}

// take peels node i at level k.
//
//dkcore:estwrite the peel's only coreness write: each node once per run, at the level it is peeled
//dkcore:noalloc queue push; append reuses the retained buffer sized to the shard
func (s *shard) take(i, k int32) {
	s.coreness[i] = k
	s.queue = append(s.queue, i)
}

func (e *engine) coreness() []int {
	out := make([]int, len(e.place))
	for _, s := range e.shards {
		for i, u := range s.nodes {
			out[u] = int(s.coreness[i])
		}
	}
	return out
}

func (e *engine) close() { close(e.start) }

// Decompose computes the exact k-core decomposition of g with P owners.
// Cancelling ctx stops the run at the next barrier with ctx.Err().
func Decompose(ctx context.Context, g *graph.Graph, opts ...Option) (*Result, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	n, p, assign := g.NumNodes(), o.workers, o.assign
	switch {
	case n == 0:
		return &Result{Coreness: []int{}}, nil
	case assign != nil && p != 0 && p != assign.NumHosts():
		return nil, fmt.Errorf("parallel: %d workers conflicts with assignment over %d hosts", p, assign.NumHosts())
	case assign != nil:
		if p = assign.NumHosts(); p < 1 {
			return nil, fmt.Errorf("parallel: assignment reports %d hosts", p)
		}
	case p < 0:
		return nil, fmt.Errorf("parallel: negative worker count %d", p)
	default:
		if p == 0 {
			p = runtime.GOMAXPROCS(0)
		}
		p = min(p, n)
		assign = core.BlockAssignment{N: n, H: p}
	}
	if o.maxRounds == 0 {
		o.maxRounds = 8 * (n + 1) // far above the peel's two sub-rounds a node
	}
	e, err := newEngine(g, assign, o.maxRounds)
	if err != nil {
		return nil, err
	}
	defer e.close()
	if err := e.run(ctx); err != nil {
		return nil, err
	}
	return &Result{Coreness: e.coreness(), Rounds: e.rounds, Workers: p,
		EstimatesSent: e.estimatesSent, Batches: e.batches}, nil
}
