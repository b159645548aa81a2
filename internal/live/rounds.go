package live

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dkcore/internal/aggregate"
	"dkcore/internal/core"
	"dkcore/internal/graph"
)

// roundNode is one process of the synchronous δ-round modes: the
// Algorithm 1 machine plus its inboxes. Nodes are advanced in parallel by
// a worker pool between barriers; inboxes for the next round are guarded
// by a mutex because any neighbor may append concurrently.
type roundNode struct {
	id            int
	st            core.NodeState
	changed       bool // estimate lowered and not yet sent
	sentOrChanged bool // activity marker for the epidemic detector

	mu   sync.Mutex
	next []message // inbox for the following round
	cur  []message // inbox being processed this round
}

func (n *roundNode) push(m message) {
	n.mu.Lock()
	n.next = append(n.next, m)
	n.mu.Unlock()
}

// roundRuntime drives the synchronous modes.
type roundRuntime struct {
	nodes    []*roundNode
	workers  int
	messages atomic.Int64 // estimate messages sent, across the worker pool
	sendOpt  bool
}

// newRoundRuntime builds one process per node of g, each aliasing its
// neighbor list in the graph's CSR storage.
func newRoundRuntime(g *graph.Graph, o options) *roundRuntime {
	n := g.NumNodes()
	rt := &roundRuntime{
		nodes:   make([]*roundNode, n),
		workers: o.workers,
		sendOpt: o.sendOpt,
	}
	if rt.workers <= 0 {
		rt.workers = runtime.GOMAXPROCS(0)
	}
	for u := 0; u < n; u++ {
		rt.nodes[u] = &roundNode{id: u, st: core.NewNodeState(g.Neighbors(u))}
	}
	return rt
}

// parallel runs fn over every node index using the worker pool and waits
// for completion (the barrier).
func (rt *roundRuntime) parallel(fn func(u int)) {
	n := len(rt.nodes)
	if n == 0 {
		return
	}
	workers := rt.workers
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for u := lo; u < hi; u++ {
				fn(u)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// send delivers nd's current estimate to its neighbors' next-round
// inboxes, respecting the send optimization.
func (rt *roundRuntime) send(nd *roundNode) {
	m := message{from: nd.id, core: nd.st.Core()}
	sent := int64(0)
	for i, v := range nd.st.Neighbors() {
		if rt.sendOpt && !nd.st.CanLower(i) {
			continue
		}
		rt.nodes[v].push(m)
		sent++
	}
	rt.messages.Add(sent)
}

// start runs round 1: every node broadcasts its degree.
func (rt *roundRuntime) start() {
	rt.parallel(func(u int) { rt.send(rt.nodes[u]) })
}

// step advances one synchronous round: swap inboxes, deliver, tick.
// It reports whether any node was active (received, changed or sent).
func (rt *roundRuntime) step() bool {
	rt.parallel(func(u int) {
		nd := rt.nodes[u]
		nd.mu.Lock()
		nd.cur, nd.next = nd.next, nd.cur[:0]
		nd.mu.Unlock()
		nd.sentOrChanged = false
	})

	// Deliver and tick. Deliveries only read remote state via the
	// messages already captured in cur, so nodes can proceed in parallel;
	// sends append to next-round inboxes under the inbox mutex.
	rt.parallel(func(u int) {
		nd := rt.nodes[u]
		for _, m := range nd.cur {
			if nd.st.Deliver(m.from, m.core) {
				nd.changed = true
			}
		}
		if nd.changed {
			nd.changed = false
			nd.sentOrChanged = true
			rt.send(nd)
		}
	})
	for _, nd := range rt.nodes {
		if len(nd.cur) > 0 || nd.sentOrChanged {
			return true
		}
	}
	return false
}

// DecomposeRounds runs the synchronous protocol for at most `rounds`
// δ-rounds (including the initial broadcast round) and returns the current
// estimates — the paper's fixed-round termination option, which yields an
// approximate decomposition when the budget is below the convergence time.
// Cancelling ctx stops the run at the next round boundary with ctx.Err().
func DecomposeRounds(ctx context.Context, g *graph.Graph, rounds int, opts ...Option) (*Result, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("live: rounds = %d, need >= 1", rounds)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o := buildOptions(opts)
	rt := newRoundRuntime(g, o)
	rt.start()
	executed := 1
	for r := 2; r <= rounds; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !rt.step() {
			break // quiescent: no pending messages, no changes
		}
		executed = r
	}
	return rt.result(executed), nil
}

// DecomposeEpidemic runs the synchronous protocol with the decentralized
// epidemic termination detector (§3.3): each round, nodes gossip the most
// recent round in which anyone was active; the system halts once every
// node's view is at least `quiet` rounds stale. With quiet chosen
// comfortably above the gossip convergence time (a few dozen rounds on
// connected graphs), the returned coreness is exact.
func DecomposeEpidemic(ctx context.Context, g *graph.Graph, quiet int, opts ...Option) (*Result, error) {
	if quiet < 1 {
		return nil, fmt.Errorf("live: quiet window = %d, need >= 1", quiet)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o := buildOptions(opts)
	rt := newRoundRuntime(g, o)
	det := aggregate.NewDetector(g, quiet, o.seed)
	rt.start()
	executed := 1
	maxRounds := 64 * (g.NumNodes() + quiet + 2)
	for r := 2; ; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if r > maxRounds {
			return nil, fmt.Errorf("live: epidemic run exceeded %d rounds", maxRounds)
		}
		active := rt.step()
		if active {
			executed = r
		}
		if det.Step(r, func(u int) bool { return rt.nodes[u].sentOrChanged }) {
			break
		}
	}
	return rt.result(executed), nil
}

func (rt *roundRuntime) coreness() []int {
	coreness := make([]int, len(rt.nodes))
	for u, nd := range rt.nodes {
		coreness[u] = nd.st.Core()
	}
	return coreness
}

func (rt *roundRuntime) result(rounds int) *Result {
	return &Result{Coreness: rt.coreness(), Messages: rt.messages.Load(), Rounds: rounds}
}
