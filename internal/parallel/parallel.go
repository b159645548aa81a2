// Package parallel decomposes a graph in shared memory with a
// level-synchronous frontier peel: P persistent workers share one int32
// residual-degree array, lower it with sync/atomic, and read the graph's
// CSR in place. Level k is the least surviving degree, and it takes two
// barrier-separated steps. First each worker compacts its assignment
// share to the survivors and collects the nodes of its least degree;
// the shares whose least degree is k seed the level. Then each worker
// peels its seeds and cascades: a decrement that lands exactly on k
// claims the node for the decrementing worker's queue, and one that
// would go below k is undone. Each arc is walked once, and the counters
// do not depend on the interleaving.
package parallel

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

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

// WithWorkers sets the number of worker goroutines.
// Default: runtime.GOMAXPROCS(0), capped at the node count. Ignored when
// WithAssignment is given, except that a non-zero mismatch with the
// assignment's host count is an error.
func WithWorkers(n int) Option { return func(o *options) { o.workers = n } }

// WithAssignment decides which worker scans and seeds which node; a
// node a cascade reaches is peeled by the worker whose decrement claimed
// it. The worker count becomes the assignment's host count. Default:
// core.BlockAssignment, which keeps contiguous node ranges together.
func WithAssignment(a core.Assignment) Option { return func(o *options) { o.assign = a } }

// WithMaxRounds overrides the level budget (default 8*(N+1)).
func WithMaxRounds(n int) Option { return func(o *options) { o.maxRounds = n } }

// Result reports a parallel decomposition.
type Result struct {
	// Coreness is the exact per-node coreness.
	Coreness []int
	// Rounds is the number of levels peeled: the distinct coreness values.
	Rounds int
	// Workers is the resolved worker goroutine count.
	Workers int
	// EstimatesSent is the number of degree decrements that landed,
	// Σ(degree − coreness) over the nodes.
	EstimatesSent int64
	// Batches is the number of non-empty (level, worker) seed lists.
	Batches int64
}

// worker is one goroutine's state over its assignment share.
type worker struct {
	g             *graph.Graph
	deg, coreness []int32 // every worker's; deg is atomic while they cascade
	alive         []int32 // the share, survivors of the last finished level first; cap is the share
	queue         []int32 // the level's seeds, then the nodes this worker claimed
	min           int32   // least degree in alive; queue holds alive's nodes of it
	arcs          int64   // adjacency entries walked this run
	landed        int64   // decrements that landed this run
}

// step is worker x's scan past level k (k < 0: a new run) or cascade.
type step struct {
	x    int
	k    int32
	scan bool
}

// engine is a reusable peel: P persistent workers over one degree array.
type engine struct {
	workers                []worker
	maxRounds, rounds      int
	estimatesSent, batches int64
	start                  chan step
	done                   chan struct{}
}

// newEngine splits the nodes into shares and starts the workers; close() them.
func newEngine(g *graph.Graph, assign core.Assignment, maxRounds int) (*engine, error) {
	n, p := g.NumNodes(), assign.NumHosts()
	shares := make([][]int32, p)
	for h := range shares {
		shares[h] = make([]int32, 0, n/p+1) // a balanced assignment never grows it
	}
	for u := 0; u < n; u++ {
		h := assign.Host(u)
		if h < 0 || h >= p {
			return nil, fmt.Errorf("parallel: assignment routes node %d to host %d outside [0, %d)", u, h, p)
		}
		shares[h] = append(shares[h], int32(u))
	}
	e := &engine{workers: make([]worker, p), maxRounds: maxRounds, start: make(chan step, p), done: make(chan struct{}, p)}
	deg, coreness := make([]int32, n), make([]int32, n)
	for x, share := range shares {
		e.workers[x] = worker{g: g, deg: deg, coreness: coreness,
			alive: share[:len(share):len(share)], queue: make([]int32, 0, len(share))}
		go e.work()
	}
	return e, nil
}

func (e *engine) work() {
	for st := range e.start {
		if w := &e.workers[st.x]; st.scan {
			w.scan(st.k)
		} else {
			w.cascade(st.k)
		}
		e.done <- struct{}{}
	}
}

// run peels level by level; after an error, discard the engine.
//
//dkcore:noalloc the level loop (TestSteadyStateRoundAllocs)
func (e *engine) run(ctx context.Context) error {
	e.rounds, e.estimatesSent, e.batches = 0, 0, 0
	for k := int32(-1); ; e.rounds++ {
		e.barrier(step{k: k, scan: true})
		k = math.MaxInt32
		for x := range e.workers {
			k = min(k, e.workers[x].min)
		}
		if k == math.MaxInt32 {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if e.rounds >= e.maxRounds {
			//dkcore:lint-ignore KC004 cold failure exit: the level budget tripped, the run is over
			return fmt.Errorf("parallel: %d nodes not peeled in %d levels", len(e.workers[0].deg), e.maxRounds)
		}
		for x := range e.workers {
			if e.workers[x].min == k {
				e.batches++
			}
		}
		e.barrier(step{k: k})
	}
	for x := range e.workers {
		e.estimatesSent += e.workers[x].landed
	}
	return nil
}

func (e *engine) barrier(st step) {
	for st.x = 0; st.x < len(e.workers); st.x++ {
		e.start <- st
	}
	for range e.workers {
		<-e.done
	}
}

// scan drops the nodes peeled at levels up to k from the worker's
// survivors and queues those of the least surviving degree (min is
// MaxInt32 if none survive). No worker cascades while any scans.
//
//dkcore:noalloc once per level; swaps the peeled behind the survivors and refills queue in place
func (w *worker) scan(k int32) {
	if k < 0 {
		w.alive, w.arcs, w.landed = w.alive[:cap(w.alive)], 0, 0
		for _, u := range w.alive {
			w.deg[u] = int32(w.g.Degree(int(u)))
		}
	}
	live, queue, m := w.alive, w.queue[:0], int32(math.MaxInt32)
	for i := 0; i < len(live); {
		u := live[i]
		d := w.deg[u]
		if d <= k {
			last := len(live) - 1
			live[i], live[last], live = live[last], u, live[:last]
			continue
		}
		i++
		if d < m {
			m, queue = d, queue[:0]
		}
		if d == m {
			queue = append(queue, u)
		}
	}
	w.alive, w.queue, w.min = live, queue, m
}

// cascade peels the worker's seeds at level k, if its least degree is k,
// and every node its decrements claim. A decrement that would take a
// survivor below k is undone, so only the one that takes it from k+1 to
// k claims it, and each node is peeled, and its row walked, exactly once.
//
//dkcore:estwrite the peel's only coreness write: each node once per run, by the one worker that seeded or claimed it
//dkcore:noalloc the per-level cascade; append reuses the retained queue
func (w *worker) cascade(k int32) {
	if w.min != k {
		w.queue = w.queue[:0]
	}
	// Locals keep the per-arc counters off the cache lines the other
	// workers read their own fields from.
	deg, queue, arcs, landed := w.deg, w.queue, int64(0), int64(0)
	for h := 0; h < len(queue); h++ {
		u := queue[h]
		w.coreness[u] = k
		nb := w.g.Neighbors(int(u))
		arcs += int64(len(nb))
		for _, v := range nb {
			if atomic.LoadInt32(&deg[v]) <= k {
				continue
			}
			switch d := atomic.AddInt32(&deg[v], -1); {
			case d < k: // another decrement took v to k first
				atomic.AddInt32(&deg[v], 1)
			case d == k:
				queue = append(queue, int32(v))
				fallthrough
			default:
				landed++
			}
		}
	}
	w.queue, w.arcs, w.landed = queue, w.arcs+arcs, w.landed+landed
}

func (e *engine) coreness() []int {
	out := make([]int, len(e.workers[0].coreness))
	for u, c := range e.workers[0].coreness {
		out[u] = int(c)
	}
	return out
}

func (e *engine) close() { close(e.start) }

// Decompose computes the exact k-core decomposition of g with P workers.
// Cancelling ctx stops the run at the next level with ctx.Err().
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
		o.maxRounds = 8 * (n + 1) // far above the peel's at most n levels
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
