package oocore

import (
	"context"
	"fmt"

	"dkcore/internal/chaos"
	"dkcore/internal/core"
	"dkcore/internal/graph"
)

// Default knobs: a budget generous enough that small graphs never
// evict, and a block size that keeps per-block overhead negligible
// while still splitting million-node graphs into hundreds of
// schedulable units.
const (
	DefaultMemoryBudget = 256 << 20
	DefaultBlockSize    = 1 << 15
)

// Options configures an out-of-core decomposition. The zero value is
// not useful; start from defaults via the With* functional options.
type Options struct {
	memoryBudget int64
	spillDir     string
	blockSize    int
	fs           chaos.FS
}

// Option mutates Options; pass to Decompose.
type Option func(*Options)

// WithMemoryBudget caps the cache of decoded adjacency blocks at the
// given byte budget, charged at 8 bytes per element of capacity of a
// block's offset and arc arrays: exactly its decoded size when the
// arrays are fresh, and the whole of a dropped block's arrays when it
// was decoded into them. The engine's peak heap is the O(n) node state
// (an estimate, a support counter and an active flag per node, about 9
// bytes) plus the budget plus one pinned block (the block being
// processed is never dropped); at return it is the estimates and the
// coreness vector, about 12 bytes per node. The spill keeps every block
// that fits the budget beside those kept before it, so such a block is
// written once and never read back unless evicted; at a budget that
// holds the whole graph nothing is read back. Must be positive.
func WithMemoryBudget(bytes int64) Option {
	return func(o *Options) { o.memoryBudget = bytes }
}

// WithSpillDir roots the spill files inside dir (created if missing).
// Each run works in a fresh subdirectory that is removed on success; a
// crash leaves it behind for inspection (see docs/OPERATIONS.md on
// cleanup). Empty means a temp directory from the OS.
func WithSpillDir(dir string) Option {
	return func(o *Options) { o.spillDir = dir }
}

// WithBlockSize sets how many consecutive node IDs each spilled block
// owns. Smaller blocks evict at finer grain (lower peak memory, more
// disk traffic); larger blocks amortize load cost. Must be positive.
func WithBlockSize(nodes int) Option {
	return func(o *Options) { o.blockSize = nodes }
}

// WithFS routes the run's spill I/O through fs. The default is the real
// filesystem; chaos tests substitute a chaos.FaultFS to exercise short
// writes, injected EIO, torn renames, and crash-at-byte-N kill points.
func WithFS(fs chaos.FS) Option {
	return func(o *Options) { o.fs = fs }
}

// Result reports a completed out-of-core decomposition.
type Result struct {
	// Coreness[u] is node u's exact coreness.
	Coreness []int
	// Blocks and BlockSize describe the partitioning actually used.
	Blocks    int
	BlockSize int
	// Passes counts block passes (load-or-hit, then relax the block's
	// active nodes until it is quiet) — the out-of-core analogue of
	// rounds. A block the spill kept resident costs its first pass no
	// load, so the scheduler, which prefers resident blocks, works
	// through the kept blocks by backlog rather than one load at a time.
	Passes int
	// EstimatesSent counts cross-block wake-ups: estimate drops that
	// lowered the support of a visited node of another block below its
	// estimate, activating it. Batches counts the (pass, destination
	// block) pairs those wake-ups touched.
	EstimatesSent int64
	Batches       int64
	// BlockStoreBytes is the on-disk footprint of the spilled CSR
	// blocks — what the memory gate compares against the cache budget.
	BlockStoreBytes int64
	// Cache holds the block cache's hit/miss/eviction/spill counters.
	Cache CacheStats
}

// engine is one run's state: the resident O(n) node state, the block
// store below and the adjacency cache beside. Single-goroutine by
// design — out-of-core wins come from locality, not concurrency.
type engine struct {
	per    int // node IDs per block (last block may own fewer)
	blocks int

	store *Store
	cache *cache
	stats *CacheStats

	// est[u] is node u's coreness estimate: seeded by the spill pass with
	// the h-index of its neighbours' degrees, only ever lowered by relax,
	// exact once no node is active.
	est []int32
	// sup[u] counts u's neighbours whose estimate is at least est[u]. It
	// is first counted when u is first relaxed; until then it is 0 or
	// below, under est[u], so that relax always counts it.
	sup []int32
	// active[u] marks a node queued for relax: one not yet visited since
	// the seed, or one whose support fell below its estimate.
	// blockActive[b] counts block b's active nodes and is the
	// scheduler's priority.
	active      []bool
	blockActive []int
	// wokenAt[b] is the last pass that woke a node of block b (Batches).
	wokenAt []int

	// The running pass: its block and its FIFO of active nodes, a ring of
	// block-size capacity (a node is queued at most once, while active).
	cur         int
	queue       []int
	qhead, qlen int
	// bins is the h-index histogram of seed and relax, with a slot for
	// every estimate up to the maximum degree, and woken is relax's Drop
	// buffer, with room for the longest row; neither allocates.
	bins  []int32
	woken []int

	passes        int
	maxPasses     int
	estimatesSent int64
	batches       int64
}

// newEngine sizes a run over g's nodes, cut into blockSize-node blocks,
// spilling to store and caching decoded blocks under budget.
func newEngine(g *graph.Graph, blockSize int, store *Store, budget int64) *engine {
	n := g.NumNodes()
	per := min(blockSize, n)
	blocks := (n + per - 1) / per
	stats := &CacheStats{}
	return &engine{
		per:         per,
		blocks:      blocks,
		store:       store,
		cache:       newCache(budget, stats),
		stats:       stats,
		est:         make([]int32, n),
		sup:         make([]int32, n),
		active:      make([]bool, n),
		blockActive: make([]int, blocks),
		wokenAt:     make([]int, blocks),
		queue:       make([]int, per),
		bins:        make([]int32, g.MaxDegree()+1),
		woken:       make([]int, 0, g.MaxDegree()),
		// Safety ceiling against a scheduler bug, not a proven bound:
		// every pass after a block's first consumes at least one
		// cross-block wake-up, and wake-ups along an arc u→v need est[v]
		// to drop between them, but their total can exceed the arc
		// count. Observed pass counts stay far below this.
		maxPasses: 64*blocks + 8*g.NumArcs() + 1024,
	}
}

func (e *engine) blockRange(b int) (lo, hi int) {
	lo = b * e.per
	return lo, min(lo+e.per, len(e.est))
}

// Decompose computes exact coreness for every node of g while keeping
// only O(n) node state (an estimate, a support counter and an active
// flag per node, about 9 bytes) and a budgeted cache of adjacency
// blocks in memory, spilling the adjacency to disk once. The coreness
// vector is identical to the sequential engine's; scheduling affects
// only how much disk traffic the fixpoint costs.
func Decompose(ctx context.Context, g *graph.Graph, opts ...Option) (*Result, error) {
	e, err := decompose(ctx, g, opts...)
	if err != nil {
		return nil, err
	}
	return e.result(), nil
}

// decompose is Decompose up to its result: it returns the quiet engine,
// whose resident state the tests inspect before calling result.
func decompose(ctx context.Context, g *graph.Graph, opts ...Option) (*engine, error) {
	o := Options{memoryBudget: DefaultMemoryBudget, blockSize: DefaultBlockSize, fs: chaos.OS{}}
	for _, opt := range opts {
		opt(&o)
	}
	if o.fs == nil {
		o.fs = chaos.OS{}
	}
	if o.memoryBudget <= 0 {
		return nil, fmt.Errorf("oocore: memory budget must be positive, got %d", o.memoryBudget)
	}
	if o.blockSize <= 0 {
		return nil, fmt.Errorf("oocore: block size must be positive, got %d", o.blockSize)
	}
	if g.NumNodes() == 0 {
		return &engine{per: o.blockSize, stats: &CacheStats{}}, nil
	}

	dir, cleanup, err := spillDir(o.fs, o.spillDir)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cleanup != nil {
			cleanup()
		}
	}()

	e := newEngine(g, o.blockSize, NewStoreFS(dir, o.fs), o.memoryBudget)
	// The run's directory is freshly created, so the sweep is normally a
	// no-op; it exists so a store pointed at a reused or crash-scarred
	// directory starts from verified files (torn ones quarantined, stray
	// .tmp removed) instead of reading garbage.
	if _, err := e.store.Sweep(); err != nil {
		return nil, err
	}
	if err := e.spill(ctx, g); err != nil {
		return nil, err
	}
	if err := e.run(ctx); err != nil {
		return nil, err
	}

	if cleanup != nil {
		if err := cleanup(); err != nil {
			return nil, err
		}
		cleanup = nil
	}
	return e, nil
}

// result drops all but the estimates, so that the coreness vector's 8
// bytes per node sit beside their 4 alone, and reports the run.
func (e *engine) result() *Result {
	e.cache, e.store, e.sup, e.active = nil, nil, nil, nil
	coreness := make([]int, len(e.est))
	for u, k := range e.est {
		coreness[u] = int(k)
	}
	return &Result{
		Coreness:        coreness,
		Blocks:          e.blocks,
		BlockSize:       e.per,
		Passes:          e.passes,
		EstimatesSent:   e.estimatesSent,
		Batches:         e.batches,
		BlockStoreBytes: e.stats.SpillBytesWritten,
		Cache:           *e.stats,
	}
}

// spillDir resolves the run's working directory on fs: a fresh temp
// dir, or a fresh subdirectory of the user-supplied root. Both are
// removed by the returned cleanup on success and left behind on crash.
func spillDir(fs chaos.FS, root string) (string, func() error, error) {
	if root != "" {
		if err := fs.MkdirAll(root, 0o755); err != nil {
			return "", nil, fmt.Errorf("oocore: spill dir: %w", err)
		}
	}
	dir, err := fs.MkdirTemp(root, "dkcore-oocore-*")
	if err != nil {
		return "", nil, fmt.Errorf("oocore: spill dir: %w", err)
	}
	return dir, func() error { return fs.RemoveAll(dir) }, nil
}

// spill streams the graph into per-block CSR files and seeds each
// block's estimates from the rows it just wrote and the degree vector.
// A block whose rows fit the budget beside the blocks already kept is
// encoded from arrays of its exact size, which then stay in the cache as
// a resident entry, charged as a load would charge them: it is written
// once and never read back unless it is evicted. Every other block is
// encoded through one reused buffer pair, never materializing a second
// whole-graph adjacency beyond the budget, and is loaded on its first
// miss.
func (e *engine) spill(ctx context.Context, g *graph.Graph) error {
	var off, flat []int // the reused pair of the blocks that do not fit
	for b := 0; b < e.blocks; b++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		lo, hi := e.blockRange(b)
		arcs := 0
		for u := lo; u < hi; u++ {
			arcs += g.Degree(u)
		}
		size := 8 * int64(hi-lo+1+arcs)
		rowOff, rowFlat := off[:0], flat[:0]
		keep := e.cache.bytes+size <= e.cache.budget
		if keep {
			rowOff, rowFlat = make([]int, 0, hi-lo+1), make([]int, 0, arcs)
		}
		rowOff = append(rowOff, 0)
		for u := lo; u < hi; u++ {
			rowFlat = append(rowFlat, g.Neighbors(u)...)
			rowOff = append(rowOff, len(rowFlat))
		}
		nb, err := e.store.WriteBlock(b, lo, hi-lo, rowOff, rowFlat)
		if err != nil {
			return err
		}
		e.stats.SpillBytesWritten += nb
		e.seed(b, rowOff, rowFlat, g)
		if keep {
			e.cache.insert(&entry{id: b, off: rowOff, flat: rowFlat, bytes: size})
		} else {
			off, flat = rowOff, rowFlat
		}
	}
	return nil
}

// seed initializes block b, whose rows are off and flat, reading only
// node degrees from g: est[u] is the h-index of u's neighbours' degrees,
// each clamped at d(u) — Algorithm 1's update applied once to the degree
// seed, so still an upper bound on the coreness, and often a much
// tighter one. A node seeded at 1 or below is already exact (every node
// with a neighbour has coreness at least 1); every other node starts
// active, to count its support at its first visit.
//
//dkcore:estwrite Algorithm 1 initialization: one update over the degree seed, before any node is relaxed
func (e *engine) seed(b int, off, flat []int, g *graph.Graph) {
	lo, _ := e.blockRange(b)
	for i := 0; i+1 < len(off); i++ {
		d := off[i+1] - off[i]
		if d == 0 {
			continue
		}
		cnt := e.bins[:d+1]
		for _, v := range flat[off[i]:off[i+1]] {
			cnt[min(g.Degree(v), d)]++
		}
		k, _ := core.HIndex(cnt)
		clear(cnt)
		e.est[lo+i] = k
		if k > 1 {
			e.active[lo+i] = true
			e.blockActive[b]++
		}
	}
}

// load returns block id's resident adjacency, pinned. On a miss it
// drops unpinned blocks until the block's decoded size fits the budget
// beside the rest, then decodes the block file into the arrays of a
// dropped block where they are large enough.
func (e *engine) load(id int) (*entry, error) {
	if ent := e.cache.get(id); ent != nil {
		ent.pinned = true
		return ent, nil
	}
	first, off, flat, nb, err := e.store.loadBlock(id, func(offs, arcs int) ([]int, []int) {
		return e.cache.shrink(8*int64(offs+arcs), offs, arcs)
	})
	if err != nil {
		return nil, err
	}
	if lo, hi := e.blockRange(id); first != lo || len(off)-1 != hi-lo {
		return nil, fmt.Errorf("oocore: block %d holds nodes [%d, %d), want [%d, %d): %w",
			id, first, first+len(off)-1, lo, hi, ErrCorrupt)
	}
	e.stats.SpillBytesRead += nb
	ent := &entry{id: id, off: off, flat: flat, bytes: 8 * int64(cap(off)+cap(flat)), pinned: true, ref: true}
	e.cache.insert(ent)
	e.cache.shrink(0, 0, 0)
	return ent, nil
}

// process runs one block pass: pin the block's adjacency, queue its
// active nodes in ID order, and relax them first-in first-out until the
// block is quiet. Wake-ups in other blocks only raise their active
// counts; the scheduler gets to them later.
func (e *engine) process(ctx context.Context, id int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if e.passes >= e.maxPasses {
		return fmt.Errorf("oocore: no quiescence after %d block passes", e.passes)
	}
	e.passes++
	ent, err := e.load(id)
	if err != nil {
		return err
	}
	defer func() { ent.pinned = false }()
	lo, hi := e.blockRange(id)
	e.cur, e.qhead, e.qlen = id, 0, 0
	for u := lo; u < hi; u++ {
		if e.active[u] {
			e.queue[e.qlen] = u
			e.qlen++
		}
	}
	for e.qlen > 0 {
		u := e.queue[e.qhead]
		e.qhead = (e.qhead + 1) % len(e.queue)
		e.qlen--
		e.active[u] = false
		e.blockActive[id]--
		e.relax(u, ent.flat[ent.off[u-lo]:ent.off[u-lo+1]])
	}
	return nil
}

// relax applies Algorithm 1's update to node u with neighbours nbrs on
// the support-counter kernel: O(1) while u's support covers its estimate
// (or the estimate is at the floor of 1), else core.Refine, then
// core.Drop. A neighbour Drop wakes that is not yet active (an unvisited
// one is) is queued if in the running block, counted against its block
// otherwise.
//
//dkcore:estwrite Algorithm 1's update rule: lowers est[u] to the h-index of its neighbours, never raises it
//dkcore:noalloc per-node step of every block pass; bins is sized at construction
func (e *engine) relax(u int, nbrs []int) {
	old := e.est[u]
	if old <= 1 || e.sup[u] >= old {
		return
	}
	k, sup := core.Refine(nbrs, e.est, old, e.bins)
	e.sup[u] = sup
	if k == old {
		return
	}
	e.est[u] = k
	e.woken = core.Drop(nbrs, e.est, e.sup, old, k, e.woken[:0])
	for _, v := range e.woken {
		if e.active[v] {
			continue
		}
		e.active[v] = true
		b := v / e.per
		e.blockActive[b]++
		if b == e.cur {
			e.queue[(e.qhead+e.qlen)%len(e.queue)] = v
			e.qlen++
			continue
		}
		e.estimatesSent++
		if e.wokenAt[b] != e.passes {
			e.wokenAt[b] = e.passes
			e.batches++
		}
	}
}

// run drives the scheduler until no node is active. Every estimate is
// then an upper bound on the coreness (the seed is one, and the update
// keeps it one) that its support certifies (each node with estimate
// k > 1 has k neighbours at k or above), so it is the coreness.
func (e *engine) run(ctx context.Context) error {
	for {
		id, ok := e.pick()
		if !ok {
			return nil
		}
		if err := e.process(ctx, id); err != nil {
			return err
		}
	}
}

// pick chooses the next block: the resident block with the most active
// nodes (hot adjacency, zero load cost), else the spilled block with the
// most (one load absorbs the biggest backlog); lowest ID on ties.
func (e *engine) pick() (int, bool) {
	best, bestScore := -1, 0
	for _, ent := range e.cache.ring {
		if a := e.blockActive[ent.id]; a > bestScore || (a == bestScore && a > 0 && ent.id < best) {
			best, bestScore = ent.id, a
		}
	}
	if best >= 0 {
		return best, true
	}
	for b, a := range e.blockActive {
		if a > bestScore {
			best, bestScore = b, a
		}
	}
	return best, best >= 0
}
