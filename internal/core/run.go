package core

import (
	"context"
	"fmt"

	"dkcore/internal/graph"
	"dkcore/internal/sim"
)

// defaultMaxRounds bounds runs generously above the paper's N-round upper
// bound (Theorem 5) to catch non-termination bugs without false positives.
const defaultMaxRoundsSlack = 8

// Options configure a protocol run; construct them with Run* option
// functions.
type Option func(*options)

type options struct {
	seed        int64
	maxRounds   int
	delivery    sim.DeliveryMode
	sendOpt     bool
	mode        Dissemination
	groundTruth []int
	snapshot    func(round int, estimates []int)
	lossRate    float64
	retransmit  int
}

// WithSeed sets the seed controlling the random operation order (the only
// randomness in a run). Default 1.
func WithSeed(seed int64) Option { return func(o *options) { o.seed = seed } }

// WithMaxRounds overrides the round budget. The default is
// 8*(N+1), far above the paper's N-K+1 bound, so legitimate runs never
// trip it.
func WithMaxRounds(n int) Option { return func(o *options) { o.maxRounds = n } }

// WithDelivery selects the simulator delivery discipline. The default,
// sim.DeliverSameRound, matches the paper's PeerSim cycle-driven
// experiments; use sim.DeliverNextRound for the strict synchronous model
// of the §4 analysis.
func WithDelivery(mode sim.DeliveryMode) Option { return func(o *options) { o.delivery = mode } }

// WithSendOptimization toggles the §3.1.2 optimization (one-to-one only):
// updates are sent to a neighbor only when they can still lower that
// neighbor's estimate. Default off.
func WithSendOptimization(on bool) Option { return func(o *options) { o.sendOpt = on } }

// WithDissemination selects the one-to-many update-shipping policy
// (Broadcast or PointToPoint). Default Broadcast.
func WithDissemination(d Dissemination) Option { return func(o *options) { o.mode = d } }

// WithGroundTruth supplies the true coreness values; when set, the run
// records per-round average and maximum estimation error traces
// (Figure 4's series).
func WithGroundTruth(coreness []int) Option {
	return func(o *options) { o.groundTruth = coreness }
}

// WithSnapshot registers fn to observe the per-node estimates at the end
// of every round. The slice is reused between calls and must not be
// retained.
func WithSnapshot(fn func(round int, estimates []int)) Option {
	return func(o *options) { o.snapshot = fn }
}

// WithLoss drops each message independently with the given probability —
// an extension past the paper's reliable-channel assumption (§2). Loss
// alone breaks liveness (a lost update may never be replaced); combine
// with WithRetransmitEvery to restore convergence. Safety (estimates
// never below the true coreness) holds regardless.
func WithLoss(rate float64) Option { return func(o *options) { o.lossRate = rate } }

// WithRetransmitEvery makes every node rebroadcast its current estimate
// each k rounds even when unchanged (one-to-one only), so lost updates
// are eventually replaced. Because retransmission never quiesces, the
// run executes exactly the WithMaxRounds budget and then reports the
// current estimates; pick the budget a small multiple of the loss-free
// convergence time divided by (1 - loss rate).
func WithRetransmitEvery(k int) Option { return func(o *options) { o.retransmit = k } }

// Result reports the outcome of a protocol run.
type Result struct {
	// Coreness is the per-node coreness computed by the protocol.
	Coreness []int
	// ExecutionTime is the number of rounds in which at least one process
	// sent a message — the paper's §5 t metric. This equals T, the last
	// round in which any estimate changed.
	ExecutionTime int
	// RoundsToQuiescence counts through the final round in which the last
	// updates are delivered without effect — the paper's §4 convention
	// (footnote 1: execution time "includes also the last round, in which
	// updates are sent but they have no further effect"), i.e. T+1. The
	// Figure-3 worst-case family takes exactly N-1 rounds in this
	// counting.
	RoundsToQuiescence int
	// TotalMessages is the number of point-to-point messages exchanged.
	TotalMessages int64
	// MessagesPerProc is per-process sent-message counts: per node in the
	// one-to-one scenario, per host in one-to-many.
	MessagesPerProc []int64
	// EstimatesSent is the number of (node, estimate) pairs shipped
	// between hosts (one-to-many only) — the overhead numerator of
	// Figure 5. Zero in the one-to-one scenario.
	EstimatesSent int64
	// AvgErrorTrace[r-1] and MaxErrorTrace[r-1] are the average and
	// maximum estimation error across nodes at the end of round r.
	// Populated only when WithGroundTruth was supplied.
	AvgErrorTrace []float64
	MaxErrorTrace []int
}

func buildOptions(g *graph.Graph, opts []Option) options {
	o := options{
		seed:     1,
		delivery: sim.DeliverSameRound,
		mode:     Broadcast,
	}
	for _, opt := range opts {
		opt(&o)
	}
	if o.maxRounds == 0 {
		o.maxRounds = defaultMaxRoundsSlack * (g.NumNodes() + 1)
	}
	return o
}

// RunOneToOne executes Algorithm 1 on g, one process per node, and returns
// the computed decomposition along with the paper's performance metrics.
// Cancelling ctx stops the simulation at the next round boundary with
// ctx.Err().
func RunOneToOne(ctx context.Context, g *graph.Graph, opts ...Option) (*Result, error) {
	o := buildOptions(g, opts)
	n := g.NumNodes()
	nodes := make([]*oneToOneNode, n)
	procs := make([]sim.Process[EstimateMsg], n)
	for u := 0; u < n; u++ {
		nodes[u] = newOneToOneNode(g, u, o.sendOpt)
		nodes[u].retransmit = o.retransmit
		procs[u] = nodes[u]
	}

	res := &Result{}
	var observer func(round int)
	if o.observed() {
		scratch := make([]int, n)
		observer = func(round int) {
			for u, nd := range nodes {
				scratch[u] = nd.Core()
			}
			res.observeRound(round, scratch, o)
		}
	}

	engine := sim.NewEngine(procs,
		sim.WithSeed(o.seed),
		sim.WithDelivery(o.delivery),
		sim.WithRoundObserver(observer),
		sim.WithLoss(o.lossRate),
	)
	var simRes sim.Result
	var err error
	if o.retransmit > 0 {
		// Retransmission never quiesces; run the chosen budget exactly.
		simRes, err = engine.RunFixed(ctx, o.maxRounds)
		if err != nil {
			return nil, err
		}
	} else {
		simRes, err = engine.Run(ctx, o.maxRounds)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("core: one-to-one on %d nodes: %w", n, err)
		}
	}

	coreness := make([]int, n)
	for u, nd := range nodes {
		coreness[u] = nd.Core()
	}
	res.Coreness = coreness
	res.ExecutionTime = simRes.ExecutionTime
	res.RoundsToQuiescence = simRes.RoundsSimulated
	res.TotalMessages = simRes.TotalMessages
	res.MessagesPerProc = simRes.MessagesPerProc
	return res, nil
}

// RunOneToMany executes Algorithm 3 on g over the hosts defined by the
// assignment and returns the computed decomposition along with the
// performance metrics. Cancelling ctx stops the simulation at the next
// round boundary with ctx.Err().
func RunOneToMany(ctx context.Context, g *graph.Graph, assign Assignment, opts ...Option) (*Result, error) {
	if assign.NumHosts() < 1 {
		return nil, fmt.Errorf("core: one-to-many needs at least 1 host, got %d", assign.NumHosts())
	}
	o := buildOptions(g, opts)
	n := g.NumNodes()
	numHosts := assign.NumHosts()
	parts, err := PartitionAll(g, assign)
	if err != nil {
		return nil, fmt.Errorf("core: one-to-many: %w", err)
	}
	hosts := make([]*oneToManyHost, numHosts)
	procs := make([]sim.Process[Batch], numHosts)
	for x := 0; x < numHosts; x++ {
		hosts[x] = newOneToManyHost(parts, x, o.mode)
		procs[x] = hosts[x]
	}
	owner := make([]*oneToManyHost, n)
	for u := 0; u < n; u++ {
		owner[u] = hosts[parts.HostOf(u)]
	}

	res := &Result{}
	var observer func(round int)
	if o.observed() {
		scratch := make([]int, n)
		observer = func(round int) {
			for u := 0; u < n; u++ {
				if e, ok := owner[u].Estimate(u); ok {
					scratch[u] = e
				} else {
					scratch[u] = g.Degree(u) // before the owner's Init ran
				}
			}
			res.observeRound(round, scratch, o)
		}
	}

	engine := sim.NewEngine(procs,
		sim.WithSeed(o.seed),
		sim.WithDelivery(o.delivery),
		sim.WithRoundObserver(observer),
	)
	simRes, err := engine.Run(ctx, o.maxRounds)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("core: one-to-many on %d nodes over %d hosts: %w", n, numHosts, err)
	}

	coreness := make([]int, n)
	for u := 0; u < n; u++ {
		e, ok := owner[u].Estimate(u)
		if !ok {
			return nil, fmt.Errorf("core: host %d has no estimate for owned node %d", parts.HostOf(u), u)
		}
		coreness[u] = e
	}
	res.Coreness = coreness
	res.ExecutionTime = simRes.ExecutionTime
	res.RoundsToQuiescence = simRes.RoundsSimulated
	res.TotalMessages = simRes.TotalMessages
	res.MessagesPerProc = simRes.MessagesPerProc
	for _, h := range hosts {
		res.EstimatesSent += h.estimatesSent
	}
	return res, nil
}

// observed reports whether a run needs the per-round estimates: only the
// error traces and the snapshot read them, so without either the
// simulator gets no round observer and nothing gathers them.
func (o options) observed() bool { return o.groundTruth != nil || o.snapshot != nil }

// observeRound appends error-trace samples and invokes the user snapshot.
func (r *Result) observeRound(round int, estimates []int, o options) {
	if o.groundTruth != nil {
		var sum int64
		maxErr := 0
		for u, e := range estimates {
			d := e - o.groundTruth[u]
			sum += int64(d)
			if d > maxErr {
				maxErr = d
			}
		}
		avg := 0.0
		if len(estimates) > 0 {
			avg = float64(sum) / float64(len(estimates))
		}
		r.AvgErrorTrace = append(r.AvgErrorTrace, avg)
		r.MaxErrorTrace = append(r.MaxErrorTrace, maxErr)
	}
	if o.snapshot != nil {
		o.snapshot(round, estimates)
	}
}
