// Package live runs the one-to-one protocol on a "live" distributed
// system in the paper's sense (§1): one concurrent process per graph node,
// real message passing, no global simulator. Three termination mechanisms
// from §3.3 are provided:
//
//   - Decompose: fully asynchronous event-driven execution (the δ→0
//     limit) with the centralized termination approach, realized as
//     credit-counting over in-flight messages.
//   - DecomposeRounds: synchronous δ-rounds with a fixed round budget
//     (the paper's "fixed number of rounds" option), returning the
//     possibly-approximate estimates.
//   - DecomposeEpidemic: synchronous δ-rounds with the decentralized
//     epidemic detector from internal/aggregate; the run halts once every
//     node's gossiped view of the last-active round is Quiet rounds old.
//
// Every exported entry point is safe to call concurrently and owns the
// lifecycle of every goroutine it starts: no goroutine outlives the call.
package live

import (
	"context"
	"sync"
	"sync/atomic"

	"dkcore/internal/core"
	"dkcore/internal/graph"
)

// Option configures a live run.
type Option func(*options)

type options struct {
	sendOpt bool
	seed    int64
	workers int
}

// WithSendOptimization enables the §3.1.2 send filter.
func WithSendOptimization(on bool) Option { return func(o *options) { o.sendOpt = on } }

// WithSeed seeds the epidemic detector's gossip randomness (used by
// DecomposeEpidemic only). Default 1.
func WithSeed(seed int64) Option { return func(o *options) { o.seed = seed } }

// WithWorkers bounds the worker parallelism of the round-based modes.
// Default 0 means GOMAXPROCS.
func WithWorkers(n int) Option { return func(o *options) { o.workers = n } }

func buildOptions(opts []Option) options {
	o := options{seed: 1}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Result reports a live run.
type Result struct {
	// Coreness is the per-node estimate when the run stopped; exact for
	// Decompose and DecomposeEpidemic (with an adequate quiet window),
	// possibly approximate for DecomposeRounds.
	Coreness []int
	// Messages is the total number of estimate messages exchanged.
	Messages int64
	// Rounds is the number of δ-rounds executed (0 for the asynchronous
	// mode, which has no round structure).
	Rounds int
}

// message is the ⟨u, core⟩ update of Algorithm 1.
type message struct {
	from int
	core int
}

// asyncNode is one live process with an unbounded inbox. Senders never
// block, which rules out channel-capacity deadlocks on cyclic topologies.
type asyncNode struct {
	id int
	st core.NodeState // touched only by the owning goroutine

	mu     sync.Mutex
	queue  []message
	notify chan struct{}
}

func (n *asyncNode) enqueue(m message) {
	n.mu.Lock()
	n.queue = append(n.queue, m)
	n.mu.Unlock()
	select {
	case n.notify <- struct{}{}:
	default:
	}
}

func (n *asyncNode) drain(buf []message) []message {
	n.mu.Lock()
	buf = append(buf[:0], n.queue...)
	n.queue = n.queue[:0]
	n.mu.Unlock()
	return buf
}

// Decompose runs the asynchronous one-to-one protocol to completion and
// returns the exact coreness of every node. Cancelling ctx stops the run
// promptly (the node goroutines are torn down before it returns) with
// ctx.Err().
//
// Termination uses the centralized approach of §3.3: a shared credit
// counter tracks undelivered messages plus unfinished initial broadcasts;
// because a process only retires its credit after enqueueing (and
// crediting) every message it produced, the counter reads zero only at
// true quiescence.
func Decompose(ctx context.Context, g *graph.Graph, opts ...Option) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o := buildOptions(opts)
	n := g.NumNodes()
	nodes := make([]*asyncNode, n)
	for u := 0; u < n; u++ {
		nodes[u] = &asyncNode{
			id:     u,
			st:     core.NewNodeState(g.Neighbors(u)),
			notify: make(chan struct{}, 1),
		}
	}

	var (
		inFlight atomic.Int64
		msgCount atomic.Int64
		done     = make(chan struct{})
		doneOnce sync.Once
		stop     = make(chan struct{})
		wg       sync.WaitGroup
	)
	retire := func(k int64) {
		if inFlight.Add(-k) == 0 {
			doneOnce.Do(func() { close(done) })
		}
	}
	// One credit per node for the initial broadcast.
	inFlight.Add(int64(n))

	send := func(nd *asyncNode) {
		m := message{from: nd.id, core: nd.st.Core()}
		for i, v := range nd.st.Neighbors() {
			if o.sendOpt && !nd.st.CanLower(i) {
				continue
			}
			inFlight.Add(1)
			msgCount.Add(1)
			nodes[v].enqueue(m)
		}
	}

	for u := 0; u < n; u++ {
		nd := nodes[u]
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Initial broadcast, then retire the init credit.
			send(nd)
			retire(1)
			var buf []message
			for {
				select {
				case <-stop:
					return
				case <-nd.notify:
				}
				buf = nd.drain(buf)
				lowered := false
				for _, m := range buf {
					if nd.st.Deliver(m.from, m.core) {
						lowered = true
					}
				}
				if lowered {
					send(nd)
				}
				retire(int64(len(buf)))
			}
		}()
	}

	if n == 0 {
		doneOnce.Do(func() { close(done) })
	}
	select {
	case <-done:
	case <-ctx.Done():
		close(stop)
		wg.Wait()
		return nil, ctx.Err()
	}
	close(stop)
	wg.Wait()

	coreness := make([]int, n)
	for u, nd := range nodes {
		coreness[u] = nd.st.Core()
	}
	return &Result{Coreness: coreness, Messages: msgCount.Load()}, nil
}
