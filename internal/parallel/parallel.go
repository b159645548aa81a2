// Package parallel decomposes a graph in shared memory on P workers:
// it resolves the worker count and the assignment that splits the nodes
// into their shares, and runs kcore.LevelPeel, the level-synchronous
// frontier peel, over them. Each arc is walked once, and the counters
// do not depend on the interleaving.
package parallel

import (
	"context"
	"fmt"
	"runtime"

	"dkcore/internal/core"
	"dkcore/internal/graph"
	"dkcore/internal/kcore"
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

// Decompose computes the exact k-core decomposition of g with P workers.
// Cancelling ctx stops the run at the end of the level it lands in,
// with ctx.Err().
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
	peel, err := kcore.NewLevelPeel(g, p, assign.Host)
	if err != nil {
		return nil, fmt.Errorf("parallel: %w", err)
	}
	defer peel.Close()
	if err := peel.Run(ctx, nil, o.maxRounds); err != nil {
		return nil, err
	}
	return &Result{Coreness: peel.Coreness(), Rounds: peel.Levels, Workers: p,
		EstimatesSent: peel.Landed, Batches: peel.Batches}, nil
}
