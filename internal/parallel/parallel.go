// Package parallel executes the one-to-many protocol (Algorithm 3) as a
// shared-memory bulk-synchronous engine. The graph is sharded across P
// partitions by an assignment policy; one worker goroutine per partition
// runs the local estimate cascade (Algorithm 4) concurrently with the
// others, and cross-partition estimate updates are exchanged between
// rounds as batched per-destination per-round-deduplicated deltas: a
// node's new estimate is shipped at most once per round per destination
// partition, and only to partitions actually hosting one of its
// neighbors (Algorithm 5, the paper's §5 message-reduction policy).
//
// Each worker drives its partition's core.HostState through the same
// Apply / ImproveIfDirty / CollectPointToPoint calls as the simulator
// adapter and the networked cluster host; only the exchange differs
// (a slice swap between rounds).
//
// Unlike the simulator in internal/sim, which interleaves every process
// on one goroutine to measure protocol metrics, this engine exists to
// decompose large graphs as fast as the hardware allows. The round
// structure is strict BSP (updates collected in round r are visible in
// round r+1), so results are deterministic regardless of scheduling, and
// the steady-state round loop allocates nothing: workers are persistent
// goroutines signalled over reusable channels (not respawned per round),
// partition cascades refine incrementally via support histograms, and
// collected batches live in the HostState's double-buffered storage —
// exactly the one-round-handoff pattern its reuse contract permits.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"dkcore/internal/core"
	"dkcore/internal/graph"
)

// defaultMaxRoundsSlack mirrors internal/core: the budget is far above
// the paper's N-round bound so only genuine non-termination trips it.
const defaultMaxRoundsSlack = 8

// Option configures a parallel decomposition.
type Option func(*options)

type options struct {
	workers   int
	assign    core.Assignment
	maxRounds int
}

// WithWorkers sets the number of partitions (and worker goroutines).
// Default: runtime.GOMAXPROCS(0), capped at the node count. Ignored when
// WithAssignment is given, except that a non-zero mismatch with the
// assignment's host count is an error.
func WithWorkers(n int) Option { return func(o *options) { o.workers = n } }

// WithAssignment shards the graph with an explicit node-to-partition
// policy; the worker count becomes the assignment's host count. Default:
// core.BlockAssignment, which keeps contiguous node ranges together.
func WithAssignment(a core.Assignment) Option { return func(o *options) { o.assign = a } }

// WithMaxRounds overrides the round budget (default 8*(N+1)).
func WithMaxRounds(n int) Option { return func(o *options) { o.maxRounds = n } }

// Result reports a parallel decomposition.
type Result struct {
	// Coreness is the exact per-node coreness.
	Coreness []int
	// Rounds is the number of BSP rounds executed, including the final
	// quiet round that confirmed quiescence.
	Rounds int
	// Workers is the resolved partition/goroutine count.
	Workers int
	// EstimatesSent is the number of (node, estimate) pairs exchanged
	// between partitions — the paper's Figure-5 overhead numerator.
	EstimatesSent int64
	// Batches is the number of cross-partition batch handoffs.
	Batches int64
}

// engine is a reusable BSP runner: P persistent worker goroutines around
// P partition states, driven round by round from run. Everything a round
// touches — inboxes, outboxes, the start/done channels, the HostState's
// collection buffers — is allocated once here, so a warmed engine re-runs
// with zero allocations (the property the allocation-regression test
// pins down).
type engine struct {
	p         int
	n         int
	maxRounds int
	states    []*core.HostState

	inbox  [][]core.Batch
	next   [][]core.Batch
	outbox []map[int]core.Batch // per state, keyed by destination partition

	start []chan int // per-worker round signal; closed by close()
	done  chan int

	estimatesSent int64
	batches       int64
}

// newEngine builds partition states and launches the worker pool. The
// caller must close() the engine to release the workers.
func newEngine(parts *core.Partitions, p, n, maxRounds int) *engine {
	e := &engine{
		p:         p,
		n:         n,
		maxRounds: maxRounds,
		states:    make([]*core.HostState, p),
		inbox:     make([][]core.Batch, p),
		next:      make([][]core.Batch, p),
		outbox:    make([]map[int]core.Batch, p),
		start:     make([]chan int, p),
		done:      make(chan int, p),
	}
	parFor(p, func(x int) {
		e.states[x] = parts.NewPartitionState(x)
	})
	for x := 0; x < p; x++ {
		e.start[x] = make(chan int, 1)
		go func(x int) {
			s := e.states[x]
			for round := range e.start[x] {
				if round == 0 {
					s.InitEstimates()
				} else {
					for _, b := range e.inbox[x] {
						s.Apply(b)
					}
					e.inbox[x] = e.inbox[x][:0]
					s.ImproveIfDirty()
				}
				e.outbox[x] = s.CollectPointToPoint()
				e.done <- x
			}
		}(x)
	}
	return e
}

// run drives BSP rounds until quiescence, returning the round count
// (including the final quiet round). The channel handoffs publish the
// coordinator's inbox swaps to the workers and the workers' outboxes
// back, so the loop is race-free without locks. After a successful run
// the engine may be re-run (InitEstimates is idempotent); after an error
// the inboxes may hold undelivered batches and the engine must be
// discarded.
//
//dkcore:noalloc the BSP steady-state round loop (TestSteadyStateRoundAllocs)
func (e *engine) run(ctx context.Context) (int, error) {
	e.estimatesSent = 0
	e.batches = 0
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if round >= e.maxRounds {
			//dkcore:lint-ignore KC004 cold failure exit: the round budget tripped, the run is over
			return 0, fmt.Errorf("parallel: no quiescence on %d nodes over %d partitions within %d rounds",
				e.n, e.p, e.maxRounds)
		}
		for x := 0; x < e.p; x++ {
			e.start[x] <- round
		}
		for i := 0; i < e.p; i++ {
			<-e.done
		}
		// Barrier passed: route this round's deltas. Apply is a pointwise
		// minimum, so delivery order within a round cannot affect results;
		// walking NeighborHosts keeps it deterministic anyway.
		active := false
		for x := 0; x < e.p; x++ {
			for _, y := range e.states[x].NeighborHosts() {
				batch := e.outbox[x][y]
				if len(batch) == 0 {
					continue
				}
				e.next[y] = append(e.next[y], batch)
				e.estimatesSent += int64(len(batch))
				e.batches++
				active = true
			}
		}
		if !active {
			return round + 1, nil
		}
		e.inbox, e.next = e.next, e.inbox
	}
}

// coreness gathers the final owned estimates from every partition.
func (e *engine) coreness() []int {
	out := make([]int, e.n)
	parFor(e.p, func(x int) {
		s := e.states[x]
		for _, u := range s.Owned() {
			c, _ := s.Estimate(u)
			out[u] = c
		}
	})
	return out
}

// close releases the worker goroutines. Must not be called while a run
// is in flight.
func (e *engine) close() {
	for _, ch := range e.start {
		close(ch)
	}
}

// Decompose computes the exact k-core decomposition of g with P
// concurrent partition workers. Cancelling ctx stops the run at the next
// BSP round barrier with ctx.Err().
func Decompose(ctx context.Context, g *graph.Graph, opts ...Option) (*Result, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	n := g.NumNodes()
	if n == 0 {
		return &Result{Coreness: []int{}, Workers: 0}, nil
	}

	p := o.workers
	assign := o.assign
	if assign != nil {
		if p != 0 && p != assign.NumHosts() {
			return nil, fmt.Errorf("parallel: %d workers conflicts with assignment over %d hosts",
				p, assign.NumHosts())
		}
		p = assign.NumHosts()
		if p < 1 {
			return nil, fmt.Errorf("parallel: assignment reports %d hosts", p)
		}
	} else {
		if p < 0 {
			return nil, fmt.Errorf("parallel: negative worker count %d", p)
		}
		if p == 0 {
			p = runtime.GOMAXPROCS(0)
		}
		if p > n {
			p = n
		}
		assign = core.BlockAssignment{N: n, H: p}
	}
	maxRounds := o.maxRounds
	if maxRounds == 0 {
		maxRounds = defaultMaxRoundsSlack * (n + 1)
	}

	// One O(n+m) bucketing pass for all partitions; PartitionAll also
	// validates user-supplied assignments, so no separate node scan.
	parts, err := core.PartitionAll(g, assign)
	if err != nil {
		return nil, fmt.Errorf("parallel: %w", err)
	}
	e := newEngine(parts, p, n, maxRounds)
	defer e.close()
	rounds, err := e.run(ctx)
	if err != nil {
		return nil, err
	}
	return &Result{
		Coreness:      e.coreness(),
		Rounds:        rounds,
		Workers:       p,
		EstimatesSent: e.estimatesSent,
		Batches:       e.batches,
	}, nil
}

// parFor runs fn(0..p-1) on p goroutines and waits for all of them; with
// one partition it stays on the calling goroutine.
func parFor(p int, fn func(x int)) {
	if p == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(p)
	for x := 0; x < p; x++ {
		go func(x int) {
			defer wg.Done()
			fn(x)
		}(x)
	}
	wg.Wait()
}
