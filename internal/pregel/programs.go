package pregel

import (
	"context"
	"fmt"

	"dkcore/internal/core"
	"dkcore/internal/graph"
)

// kcoreMsg is the ⟨u, core⟩ update.
type kcoreMsg struct {
	from int
	core int
}

// KCoreOption configures a KCore run.
type KCoreOption func(*kcoreRunOptions)

type kcoreRunOptions struct {
	workers       int
	maxSupersteps int
}

// WithKCoreWorkers bounds KCore's worker parallelism (0 = GOMAXPROCS).
func WithKCoreWorkers(n int) KCoreOption {
	return func(o *kcoreRunOptions) { o.workers = n }
}

// WithKCoreMaxSupersteps overrides KCore's superstep budget (default
// 8*(N+2), far above the protocol's N-round convergence bound).
func WithKCoreMaxSupersteps(n int) KCoreOption {
	return func(o *kcoreRunOptions) { o.maxSupersteps = n }
}

// KCore runs the paper's protocol as a Pregel vertex program and returns
// the exact coreness of every node. The vertex state is Algorithm 1's
// per-node machine, core.NodeState: superstep 0 broadcasts degrees;
// afterwards a vertex is woken only by neighbor updates, delivers them to
// its NodeState (an O(1) support-histogram update each), re-broadcasts
// when its estimate was lowered, and votes to halt — the one-to-many
// scenario realized on the framework the paper's conclusions propose.
func KCore(ctx context.Context, g *graph.Graph, opts ...KCoreOption) ([]int, Result, error) {
	var ro kcoreRunOptions
	for _, opt := range opts {
		opt(&ro)
	}
	compute := func(ctx *Context[core.NodeState, kcoreMsg], s *core.NodeState, msgs []kcoreMsg) {
		if ctx.Superstep() == 0 {
			*s = core.NewNodeState(ctx.Neighbors())
			if s.Core() > 0 {
				ctx.SendToNeighbors(kcoreMsg{from: ctx.Vertex(), core: s.Core()})
			}
			ctx.VoteToHalt()
			return
		}
		lowered := false
		for _, m := range msgs {
			if s.Deliver(m.from, m.core) {
				lowered = true
			}
		}
		if lowered {
			ctx.SendToNeighbors(kcoreMsg{from: ctx.Vertex(), core: s.Core()})
		}
		ctx.VoteToHalt()
	}

	var engOpts []Option[core.NodeState, kcoreMsg]
	if ro.workers != 0 {
		engOpts = append(engOpts, WithWorkers[core.NodeState, kcoreMsg](ro.workers))
	}
	budget := ro.maxSupersteps
	if budget == 0 {
		budget = 8 * (g.NumNodes() + 2)
	}
	eng := NewEngine(g, compute, nil, engOpts...)
	res, err := eng.Run(ctx, budget)
	if err != nil {
		return nil, res, fmt.Errorf("pregel: k-core: %w", err)
	}
	coreness := make([]int, g.NumNodes())
	for v := range coreness {
		s := eng.State(v)
		coreness[v] = s.Core()
	}
	return coreness, res, nil
}

// ccState is the connected-components label.
type ccState struct {
	label int
}

// ConnectedComponents runs hash-min label propagation: every vertex
// adopts the smallest vertex ID seen in its component. It demonstrates
// the framework on a second classic program and uses a min-combiner.
func ConnectedComponents(ctx context.Context, g *graph.Graph, opts ...Option[ccState, int]) ([]int, Result, error) {
	compute := func(ctx *Context[ccState, int], s *ccState, msgs []int) {
		if ctx.Superstep() == 0 {
			s.label = ctx.Vertex()
			ctx.SendToNeighbors(s.label)
			ctx.VoteToHalt()
			return
		}
		minSeen := s.label
		for _, m := range msgs {
			if m < minSeen {
				minSeen = m
			}
		}
		if minSeen < s.label {
			s.label = minSeen
			ctx.SendToNeighbors(minSeen)
		}
		ctx.VoteToHalt()
	}

	all := append([]Option[ccState, int]{
		WithCombiner[ccState, int](func(a, b int) int {
			if a < b {
				return a
			}
			return b
		}),
	}, opts...)
	eng := NewEngine(g, compute, nil, all...)
	res, err := eng.Run(ctx, 4*(g.NumNodes()+2))
	if err != nil {
		return nil, res, fmt.Errorf("pregel: connected components: %w", err)
	}
	labels := make([]int, g.NumNodes())
	for v := range labels {
		labels[v] = eng.State(v).label
	}
	return labels, res, nil
}
