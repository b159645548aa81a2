package dkcore

// This file is the unified execution facade: one Engine abstraction over
// every execution path the repo offers — the sequential baseline, the
// simulated protocols, the live runtimes, the shared-memory engines, and
// the networked cluster — with a single merged option set, uniform
// context cancellation, and one Report type for results. The per-kind
// dispatch lives in engineRegistry, which also drives the CLIs' mode
// tables.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"dkcore/internal/cluster"
	"dkcore/internal/core"
	"dkcore/internal/kcore"
	"dkcore/internal/live"
	"dkcore/internal/oocore"
	"dkcore/internal/parallel"
)

// EngineKind selects which execution path an Engine runs. Every kind
// computes the same decomposition (exactly, except Live under a MaxRounds
// budget); they differ in execution model and in which Report metrics
// they populate.
type EngineKind int

// The eight engine kinds.
const (
	// Sequential is the centralized Batagelj–Zaversnik O(m) baseline.
	Sequential EngineKind = iota + 1
	// OneToOne simulates Algorithm 1: one process per graph node.
	OneToOne
	// OneToMany simulates Algorithm 3: nodes grouped onto hosts.
	OneToMany
	// Live runs one goroutine per node with asynchronous messages and
	// centralized (credit-counting) termination; with MaxRounds it runs
	// the synchronous δ-round mode on a fixed budget instead.
	Live
	// LiveEpidemic is the live runtime with the decentralized epidemic
	// termination detector of §3.3.
	LiveEpidemic
	// Parallel is the shared-memory peel, run level by level by worker
	// goroutines that lower one shared degree array with atomic
	// decrements — the fastest path.
	Parallel
	// Cluster runs a networked one-to-many deployment: an in-process
	// coordinator plus one host worker goroutine per host, over TCP
	// loopback. For multi-machine deployments use NewCoordinator and
	// RunClusterHost directly.
	Cluster
	// OutOfCore keeps O(n) node state (an estimate and a support counter
	// per node) in memory, spills the adjacency to disk once as
	// read-only blocks, and relaxes nodes
	// block-at-a-time under a hard budget on decoded adjacency — the
	// path for graphs whose adjacency exceeds RAM. Tune with
	// WithMemoryBudget, WithSpillDir, and WithBlockSize.
	OutOfCore
)

// String returns the kind's canonical name — the same token the CLIs'
// -mode flags accept.
func (k EngineKind) String() string {
	if e := lookupKind(k); e != nil {
		return e.name
	}
	return fmt.Sprintf("EngineKind(%d)", int(k))
}

// Description returns a one-line summary of the kind's execution model.
func (k EngineKind) Description() string {
	if e := lookupKind(k); e != nil {
		return e.summary
	}
	return "unknown engine kind"
}

// EngineKinds returns every engine kind in registry order.
func EngineKinds() []EngineKind {
	kinds := make([]EngineKind, len(engineRegistry))
	for i, e := range engineRegistry {
		kinds[i] = e.kind
	}
	return kinds
}

// ParseEngineKind resolves a kind name (as printed by EngineKind.String
// and accepted by the CLIs' -mode flags) to its EngineKind. The legacy
// alias "seq" is accepted for Sequential.
func ParseEngineKind(name string) (EngineKind, error) {
	for _, e := range engineRegistry {
		if e.name == name || (e.alias != "" && e.alias == name) {
			return e.kind, nil
		}
	}
	return 0, fmt.Errorf("dkcore: unknown engine kind %q (have %s)", name, strings.Join(kindNames(), ", "))
}

func kindNames() []string {
	names := make([]string, len(engineRegistry))
	for i, e := range engineRegistry {
		names[i] = e.name
	}
	return names
}

// Report is the unified outcome of an Engine run. Coreness is always
// populated; the metric fields each kind fills depend on its execution
// model (a simulator counts messages, the parallel engine counts
// cross-partition traffic, the sequential baseline none of either) and
// are zero where not meaningful.
type Report struct {
	// Kind is the engine kind that produced this report.
	Kind EngineKind
	// Coreness is the per-node coreness. It is exact for every kind
	// except Live under an explicit MaxRounds budget below the
	// convergence time.
	Coreness []int
	// Rounds is the number of rounds stepped: δ-rounds for the
	// simulators and live runtimes (through quiescence), peeled levels
	// for Parallel, coordinator rounds for Cluster, block-scheduler passes
	// for OutOfCore. Zero for Sequential and for Live's asynchronous
	// mode, which have no round structure. Cluster takes one round more
	// than OneToMany under PointToPoint, DeliverNextRound and
	// BlockAssignment, whose estimates and frames it matches exactly.
	Rounds int
	// ExecutionTime is the paper's §5 t metric — the number of rounds in
	// which at least one process sent a message. Populated by the
	// simulated kinds (OneToOne, OneToMany) only.
	ExecutionTime int
	// TotalMessages counts point-to-point protocol messages: estimate
	// messages for the simulated and live kinds, batch frames for
	// Cluster.
	TotalMessages int64
	// MessagesPerProc is per-process sent-message counts (simulated
	// kinds only): per node for OneToOne, per host for OneToMany.
	MessagesPerProc []int64
	// EstimatesSent is the number of (node, estimate) pairs shipped
	// between hosts — the paper's Figure-5 overhead numerator — by
	// OneToMany and Cluster. Parallel counts the degree decrements that
	// landed, Σ(degree − coreness) over the nodes whatever the
	// interleaving; OutOfCore counts cross-block wake-ups: estimate drops
	// that lowered the support of a node of another block below its
	// estimate.
	EstimatesSent int64
	// Batches is the number of non-empty (level, worker) seed lists
	// (Parallel), or the (pass, block) pairs that cross-block wake-ups
	// touched (OutOfCore; a wake-up means a node's support fell below
	// its estimate).
	Batches int64
	// Workers is the resolved worker/partition/host count for the kinds
	// that shard work (OneToMany, Parallel, Cluster), and the number of
	// spilled blocks for OutOfCore.
	Workers int
	// Hosts holds the per-host results of a Cluster run, ordered by
	// host ID.
	Hosts []HostResult
	// SpillBytesWritten and SpillBytesRead count bytes moved through the
	// out-of-core spill directory: the block files, written once by the
	// spill and read back on every cache miss (OutOfCore only). A block
	// that fits the memory budget stays resident from the spill and is
	// never read back, so SpillBytesRead is 0 when the whole graph fits.
	SpillBytesWritten int64
	SpillBytesRead    int64
	// WallTime is the measured wall-clock duration of the run.
	WallTime time.Duration
	// AvgErrorTrace[r-1] and MaxErrorTrace[r-1] are the average and
	// maximum estimation error across nodes at the end of round r,
	// populated when GroundTruth was supplied (OneToOne, OneToMany).
	AvgErrorTrace []float64
	MaxErrorTrace []int
}

// engineConfig is the merged option state. Option constructors record
// which fields were explicitly set so each kind forwards only those to
// its native engine and keeps the engine's own defaults otherwise.
type engineConfig struct {
	set map[string]bool

	seed          int64
	maxRounds     int
	delivery      DeliveryMode
	sendOpt       bool
	dissemination Dissemination
	groundTruth   []int
	snapshot      func(round int, estimates []int)
	loss          float64
	retransmit    int
	assign        Assignment
	workers       int
	hosts         int
	quiet         int
	listenAddr    string
	memBudget     int64
	spillDir      string
	blockNodes    int
}

// EngineOption is one entry of the merged option set understood by
// NewEngine. Each option applies to a subset of engine kinds;
// constructing an Engine with an option its kind does not understand is
// an error.
type EngineOption struct {
	name  string
	kinds []EngineKind
	apply func(*engineConfig)
}

func (o EngineOption) appliesTo(k EngineKind) bool {
	for _, ok := range o.kinds {
		if ok == k {
			return true
		}
	}
	return false
}

func option(name string, kinds []EngineKind, apply func(*engineConfig)) EngineOption {
	return EngineOption{name: name, kinds: kinds, apply: func(c *engineConfig) {
		c.set[name] = true
		apply(c)
	}}
}

// Seed sets the seed for the run's randomized operation order (OneToOne,
// OneToMany) or the epidemic detector's gossip (LiveEpidemic).
func Seed(seed int64) EngineOption {
	return option("Seed", []EngineKind{OneToOne, OneToMany, LiveEpidemic},
		func(c *engineConfig) { c.seed = seed })
}

// MaxRounds overrides the round budget: simulation rounds (OneToOne,
// OneToMany), peeled levels (Parallel), coordinator rounds (Cluster), or —
// for Live — switches the runtime to the paper's fixed-round
// termination, running at most that synchronous δ-round budget (it
// stops early at quiescence) and returning the (possibly approximate)
// estimates.
func MaxRounds(n int) EngineOption {
	return option("MaxRounds", []EngineKind{OneToOne, OneToMany, Live, Parallel, Cluster},
		func(c *engineConfig) { c.maxRounds = n })
}

// Delivery selects the simulator's message-visibility discipline
// (OneToOne, OneToMany).
func Delivery(mode DeliveryMode) EngineOption {
	return option("Delivery", []EngineKind{OneToOne, OneToMany},
		func(c *engineConfig) { c.delivery = mode })
}

// SendOptimization toggles the §3.1.2 message filter (OneToOne, Live,
// LiveEpidemic).
func SendOptimization(on bool) EngineOption {
	return option("SendOptimization", []EngineKind{OneToOne, Live, LiveEpidemic},
		func(c *engineConfig) { c.sendOpt = on })
}

// DisseminationPolicy selects Broadcast or PointToPoint update shipping
// (OneToMany).
func DisseminationPolicy(d Dissemination) EngineOption {
	return option("DisseminationPolicy", []EngineKind{OneToMany},
		func(c *engineConfig) { c.dissemination = d })
}

// GroundTruth supplies true coreness values so the run records per-round
// error traces (OneToOne, OneToMany).
func GroundTruth(coreness []int) EngineOption {
	return option("GroundTruth", []EngineKind{OneToOne, OneToMany},
		func(c *engineConfig) { c.groundTruth = coreness })
}

// Snapshot observes per-node estimates at the end of each round
// (OneToOne, OneToMany). The slice is reused between calls and must not
// be retained.
func Snapshot(fn func(round int, estimates []int)) EngineOption {
	return option("Snapshot", []EngineKind{OneToOne, OneToMany},
		func(c *engineConfig) { c.snapshot = fn })
}

// Loss drops each message independently with the given probability
// (OneToOne); combine with RetransmitEvery to keep convergence exact.
func Loss(rate float64) EngineOption {
	return option("Loss", []EngineKind{OneToOne},
		func(c *engineConfig) { c.loss = rate })
}

// RetransmitEvery rebroadcasts current estimates every k rounds even when
// unchanged (OneToOne), restoring liveness under Loss. Such runs execute
// exactly the MaxRounds budget.
func RetransmitEvery(k int) EngineOption {
	return option("RetransmitEvery", []EngineKind{OneToOne},
		func(c *engineConfig) { c.retransmit = k })
}

// PartitionBy shards the graph with an explicit node-to-host policy:
// which host simulates a node (OneToMany) or which worker scans and
// seeds it (Parallel). The host/worker count becomes the assignment's
// host count.
func PartitionBy(a Assignment) EngineOption {
	return option("PartitionBy", []EngineKind{OneToMany, Parallel},
		func(c *engineConfig) { c.assign = a })
}

// Workers bounds worker parallelism: peel workers for Parallel, compute
// workers for the round-based live runtimes (LiveEpidemic always; Live
// in its MaxRounds fixed-budget mode — the asynchronous mode is one
// goroutine per node and ignores it). 0 means GOMAXPROCS.
func Workers(n int) EngineOption {
	return option("Workers", []EngineKind{Live, LiveEpidemic, Parallel},
		func(c *engineConfig) { c.workers = n })
}

// Hosts sets the host count: modulo-assigned simulation hosts for
// OneToMany (default 4), networked host workers for Cluster (default 2).
func Hosts(n int) EngineOption {
	return option("Hosts", []EngineKind{OneToMany, Cluster},
		func(c *engineConfig) { c.hosts = n })
}

// QuietWindow sets LiveEpidemic's required silence window in rounds
// (default 32): the run halts once every node's gossiped view of the
// last-active round is at least this stale.
func QuietWindow(n int) EngineOption {
	return option("QuietWindow", []EngineKind{LiveEpidemic},
		func(c *engineConfig) { c.quiet = n })
}

// ListenOn sets the Cluster coordinator's TCP listen address (default
// "127.0.0.1:0").
func ListenOn(addr string) EngineOption {
	return option("ListenOn", []EngineKind{Cluster},
		func(c *engineConfig) { c.listenAddr = addr })
}

// WithMemoryBudget caps OutOfCore's cache of decoded adjacency blocks
// at the given byte budget (default 256 MiB), charged at 8 bytes per
// element of capacity of each block's decoded offset and arc arrays.
// Peak heap is the O(n) node state (about 13 bytes per node: estimate,
// support counter, active flag) plus the budget plus one pinned block.
// A block that fits the budget beside the blocks kept before it stays
// resident from the spill and is never read back unless evicted.
func WithMemoryBudget(bytes int64) EngineOption {
	return option("WithMemoryBudget", []EngineKind{OutOfCore},
		func(c *engineConfig) { c.memBudget = bytes })
}

// WithSpillDir roots OutOfCore's spill files inside dir (created if
// missing). Each run works in a fresh subdirectory removed on success;
// a crash leaves it behind for inspection (see docs/OPERATIONS.md).
// Default is the OS temp directory.
func WithSpillDir(dir string) EngineOption {
	return option("WithSpillDir", []EngineKind{OutOfCore},
		func(c *engineConfig) { c.spillDir = dir })
}

// WithBlockSize sets how many consecutive node IDs each OutOfCore
// spilled block owns (default 32768). Smaller blocks evict at finer
// grain; larger blocks amortize load cost.
func WithBlockSize(nodes int) EngineOption {
	return option("WithBlockSize", []EngineKind{OutOfCore},
		func(c *engineConfig) { c.blockNodes = nodes })
}

// Engine is a configured execution path. An Engine is immutable and safe
// for concurrent use; Run may be called any number of times on different
// graphs.
type Engine struct {
	kind EngineKind
	cfg  engineConfig
}

// NewEngine validates the option set against the chosen kind and returns
// a reusable Engine. Options inapplicable to the kind are rejected with
// an error naming the kinds they do apply to.
func NewEngine(kind EngineKind, opts ...EngineOption) (*Engine, error) {
	entry := lookupKind(kind)
	if entry == nil {
		return nil, fmt.Errorf("dkcore: unknown engine kind %d", int(kind))
	}
	cfg := engineConfig{set: make(map[string]bool), quiet: 32}
	for _, opt := range opts {
		if opt.apply == nil {
			return nil, fmt.Errorf("dkcore: zero-value EngineOption passed to NewEngine(%s)", kind)
		}
		if !opt.appliesTo(kind) {
			names := make([]string, len(opt.kinds))
			for i, k := range opt.kinds {
				names[i] = k.String()
			}
			return nil, fmt.Errorf("dkcore: option %s is not applicable to engine kind %s (applies to: %s)",
				opt.name, kind, strings.Join(names, ", "))
		}
		opt.apply(&cfg)
	}
	if cfg.set["Hosts"] && cfg.set["PartitionBy"] {
		return nil, fmt.Errorf("dkcore: options Hosts and PartitionBy conflict; pick one partitioning policy")
	}
	if cfg.set["Hosts"] && cfg.hosts < 1 {
		return nil, fmt.Errorf("dkcore: Hosts(%d): need at least 1 host", cfg.hosts)
	}
	if cfg.set["QuietWindow"] && cfg.quiet < 1 {
		return nil, fmt.Errorf("dkcore: QuietWindow(%d): need a window of at least 1 round", cfg.quiet)
	}
	if cfg.set["MaxRounds"] && cfg.maxRounds < 1 {
		return nil, fmt.Errorf("dkcore: MaxRounds(%d): need a budget of at least 1 round", cfg.maxRounds)
	}
	if cfg.set["Workers"] && cfg.workers < 0 {
		return nil, fmt.Errorf("dkcore: Workers(%d): negative worker count (0 means GOMAXPROCS)", cfg.workers)
	}
	if cfg.set["WithMemoryBudget"] && cfg.memBudget < 1 {
		return nil, fmt.Errorf("dkcore: WithMemoryBudget(%d): need a positive byte budget", cfg.memBudget)
	}
	if cfg.set["WithBlockSize"] && cfg.blockNodes < 1 {
		return nil, fmt.Errorf("dkcore: WithBlockSize(%d): need at least 1 node per block", cfg.blockNodes)
	}
	return &Engine{kind: kind, cfg: cfg}, nil
}

// Kind returns the engine's execution path.
func (e *Engine) Kind() EngineKind { return e.kind }

// Run decomposes g on the engine's execution path. Cancelling ctx (or
// exceeding its deadline) stops the run within one round/superstep and
// returns ctx.Err(); the coreness computed so far is discarded.
func (e *Engine) Run(ctx context.Context, g *Graph) (*Report, error) {
	if g == nil {
		return nil, fmt.Errorf("dkcore: Engine(%s).Run: nil graph", e.kind)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	entry := lookupKind(e.kind)
	if entry == nil {
		// A zero-value Engine was never vetted by NewEngine; fail like
		// every other misuse instead of dereferencing nil.
		return nil, fmt.Errorf("dkcore: Engine not constructed with NewEngine (kind %d)", int(e.kind))
	}
	start := time.Now()
	rep, err := entry.run(ctx, e.cfg, g)
	if err != nil {
		return nil, err
	}
	rep.Kind = e.kind
	rep.WallTime = time.Since(start)
	return rep, nil
}

// engineEntry is one row of the engine registry: the kind's canonical
// name, a summary for CLI usage strings, and the dispatch function.
type engineEntry struct {
	kind    EngineKind
	name    string
	alias   string // legacy CLI spelling, if any
	summary string
	run     func(ctx context.Context, cfg engineConfig, g *Graph) (*Report, error)
}

// engineRegistry drives EngineKinds, ParseEngineKind, Engine.Run, and the
// CLIs' mode dispatch. Order here is presentation order.
var engineRegistry = []engineEntry{
	{Sequential, "sequential", "seq", "centralized Batagelj–Zaversnik baseline", runSequential},
	{OneToOne, "one2one", "", "simulated protocol, one process per node (Algorithm 1)", runOneToOne},
	{OneToMany, "one2many", "", "simulated protocol, nodes grouped onto hosts (Algorithm 3)", runOneToMany},
	{Live, "live", "", "one goroutine per node, asynchronous messages, credit-counting termination", runLive},
	{LiveEpidemic, "live-epidemic", "", "live δ-rounds with decentralized epidemic termination", runLiveEpidemic},
	{Parallel, "parallel", "", "level-synchronous shared-memory peel over one atomic degree array", runParallel},
	{Cluster, "cluster", "", "networked one-to-many deployment over TCP loopback", runClusterKind},
	{OutOfCore, "oocore", "", "disk-spilling block engine under a hard memory budget", runOutOfCore},
}

func lookupKind(k EngineKind) *engineEntry {
	for i := range engineRegistry {
		if engineRegistry[i].kind == k {
			return &engineRegistry[i]
		}
	}
	return nil
}

func runSequential(ctx context.Context, _ engineConfig, g *Graph) (*Report, error) {
	dec, err := kcore.DecomposeContext(ctx, g)
	if err != nil {
		return nil, err
	}
	return &Report{Coreness: dec.CorenessValues()}, nil
}

// coreOptions translates the explicitly set merged options into the
// simulator's native option set.
func (c engineConfig) coreOptions() []core.Option {
	var opts []core.Option
	if c.set["Seed"] {
		opts = append(opts, core.WithSeed(c.seed))
	}
	if c.set["MaxRounds"] {
		opts = append(opts, core.WithMaxRounds(c.maxRounds))
	}
	if c.set["Delivery"] {
		opts = append(opts, core.WithDelivery(c.delivery))
	}
	if c.set["SendOptimization"] {
		opts = append(opts, core.WithSendOptimization(c.sendOpt))
	}
	if c.set["DisseminationPolicy"] {
		opts = append(opts, core.WithDissemination(c.dissemination))
	}
	if c.set["GroundTruth"] {
		opts = append(opts, core.WithGroundTruth(c.groundTruth))
	}
	if c.set["Snapshot"] {
		opts = append(opts, core.WithSnapshot(c.snapshot))
	}
	if c.set["Loss"] {
		opts = append(opts, core.WithLoss(c.loss))
	}
	if c.set["RetransmitEvery"] {
		opts = append(opts, core.WithRetransmitEvery(c.retransmit))
	}
	return opts
}

func simReport(res *core.Result) *Report {
	return &Report{
		Coreness:        res.Coreness,
		Rounds:          res.RoundsToQuiescence,
		ExecutionTime:   res.ExecutionTime,
		TotalMessages:   res.TotalMessages,
		MessagesPerProc: res.MessagesPerProc,
		EstimatesSent:   res.EstimatesSent,
		AvgErrorTrace:   res.AvgErrorTrace,
		MaxErrorTrace:   res.MaxErrorTrace,
	}
}

func runOneToOne(ctx context.Context, cfg engineConfig, g *Graph) (*Report, error) {
	res, err := core.RunOneToOne(ctx, g, cfg.coreOptions()...)
	if err != nil {
		return nil, err
	}
	return simReport(res), nil
}

func runOneToMany(ctx context.Context, cfg engineConfig, g *Graph) (*Report, error) {
	assign := cfg.assign
	if assign == nil {
		hosts := cfg.hosts
		if !cfg.set["Hosts"] {
			hosts = 4
		}
		assign = ModuloAssignment{H: hosts}
	}
	workers := assign.NumHosts()
	res, err := core.RunOneToMany(ctx, g, assign, cfg.coreOptions()...)
	if err != nil {
		return nil, err
	}
	rep := simReport(res)
	rep.Workers = workers
	return rep, nil
}

func (c engineConfig) liveOptions() []live.Option {
	var opts []live.Option
	if c.set["SendOptimization"] {
		opts = append(opts, live.WithSendOptimization(c.sendOpt))
	}
	if c.set["Seed"] {
		opts = append(opts, live.WithSeed(c.seed))
	}
	if c.set["Workers"] {
		opts = append(opts, live.WithWorkers(c.workers))
	}
	return opts
}

func runLive(ctx context.Context, cfg engineConfig, g *Graph) (*Report, error) {
	var res *live.Result
	var err error
	if cfg.set["MaxRounds"] {
		// The paper's fixed-round termination: run the synchronous mode
		// on exactly this budget, possibly returning approximations.
		res, err = live.DecomposeRounds(ctx, g, cfg.maxRounds, cfg.liveOptions()...)
	} else {
		res, err = live.Decompose(ctx, g, cfg.liveOptions()...)
	}
	if err != nil {
		return nil, err
	}
	return &Report{Coreness: res.Coreness, Rounds: res.Rounds, TotalMessages: res.Messages}, nil
}

func runLiveEpidemic(ctx context.Context, cfg engineConfig, g *Graph) (*Report, error) {
	res, err := live.DecomposeEpidemic(ctx, g, cfg.quiet, cfg.liveOptions()...)
	if err != nil {
		return nil, err
	}
	return &Report{Coreness: res.Coreness, Rounds: res.Rounds, TotalMessages: res.Messages}, nil
}

func runParallel(ctx context.Context, cfg engineConfig, g *Graph) (*Report, error) {
	var opts []parallel.Option
	if cfg.set["Workers"] {
		opts = append(opts, parallel.WithWorkers(cfg.workers))
	}
	if cfg.set["PartitionBy"] {
		opts = append(opts, parallel.WithAssignment(cfg.assign))
	}
	if cfg.set["MaxRounds"] {
		opts = append(opts, parallel.WithMaxRounds(cfg.maxRounds))
	}
	res, err := parallel.Decompose(ctx, g, opts...)
	if err != nil {
		return nil, err
	}
	return &Report{
		Coreness:      res.Coreness,
		Rounds:        res.Rounds,
		Workers:       res.Workers,
		EstimatesSent: res.EstimatesSent,
		Batches:       res.Batches,
	}, nil
}

func runOutOfCore(ctx context.Context, cfg engineConfig, g *Graph) (*Report, error) {
	var opts []oocore.Option
	if cfg.set["WithMemoryBudget"] {
		opts = append(opts, oocore.WithMemoryBudget(cfg.memBudget))
	}
	if cfg.set["WithSpillDir"] {
		opts = append(opts, oocore.WithSpillDir(cfg.spillDir))
	}
	if cfg.set["WithBlockSize"] {
		opts = append(opts, oocore.WithBlockSize(cfg.blockNodes))
	}
	res, err := oocore.Decompose(ctx, g, opts...)
	if err != nil {
		return nil, err
	}
	return &Report{
		Coreness:          res.Coreness,
		Rounds:            res.Passes,
		Workers:           res.Blocks,
		EstimatesSent:     res.EstimatesSent,
		Batches:           res.Batches,
		SpillBytesWritten: res.Cache.SpillBytesWritten,
		SpillBytesRead:    res.Cache.SpillBytesRead,
	}, nil
}

func runClusterKind(ctx context.Context, cfg engineConfig, g *Graph) (*Report, error) {
	hosts := cfg.hosts
	if !cfg.set["Hosts"] {
		hosts = 2
	}
	res, hostResults, err := cluster.RunLocal(ctx, cluster.CoordinatorConfig{
		Graph:      g,
		NumHosts:   hosts,
		ListenAddr: cfg.listenAddr, // "" means 127.0.0.1:0
		MaxRounds:  cfg.maxRounds,
	}, cluster.HostConfig{})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Coreness:      res.Coreness,
		Rounds:        res.Rounds,
		EstimatesSent: res.EstimatesSent,
		Workers:       hosts,
		Hosts:         make([]HostResult, 0, hosts),
	}
	for _, hr := range hostResults {
		if hr != nil {
			rep.Hosts = append(rep.Hosts, *hr)
			rep.TotalMessages += hr.BatchesSent
		}
	}
	sort.Slice(rep.Hosts, func(i, j int) bool { return rep.Hosts[i].HostID < rep.Hosts[j].HostID })
	return rep, nil
}
