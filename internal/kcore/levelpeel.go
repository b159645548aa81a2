package kcore

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"dkcore/internal/graph"
)

// LevelPeel is the level-synchronous frontier peel (Esfandiari et al.,
// arXiv:1808.02546): P persistent workers share one int32
// residual-degree array, lower it with sync/atomic, and read the graph's
// CSR in place. Level k takes two barrier-separated steps. First each
// worker compacts its share to the survivors and queues the seeds of its
// least level; the shares whose least level is k seed the level. Then
// each worker peels its seeds and cascades. Each arc is walked once, and
// the counters do not depend on the interleaving.
//
// Without claims a node's level is its residual degree: level k is the
// least surviving degree, and the peel decomposes the graph. With
// claims (Certify) it is the node's claim: level k is the least
// surviving claim, and only nodes claimed at k with at most k neighbors
// left seed it or are claimed by a decrement.
type LevelPeel struct {
	workers []peelWorker
	// Levels, Landed, Batches and Arcs count the last run's levels, the
	// decrements that landed (Σ(degree − coreness) without claims), the
	// non-empty (level, worker) seed lists and the adjacency entries
	// walked.
	Levels                int
	Landed, Batches, Arcs int64
	start                 chan peelStep
	done                  chan struct{}
	exited                sync.WaitGroup
}

// peelWorker is one goroutine's state over its share.
type peelWorker struct {
	g             *graph.Graph
	deg, coreness []int32 // every worker's; deg is atomic while they cascade
	claim         []int   // the claimed coreness of Certify's run, or nil
	level         []int32 // every worker's; claim as int32 once checked, or nil
	alive         []int32 // the share, survivors of the last finished level first; cap is the share
	queue         []int32 // the level's seeds, then the nodes this worker claimed
	min           int32   // least level in alive; queue holds alive's seeds of it
	bad, badCount int32   // least node of the share failing the last scan's check, or -1
	arcs          int64   // adjacency entries walked this run
	landed        int64   // decrements that landed this run
}

// peelStep is worker x's scan past level k (k < 0: a new run) or cascade.
type peelStep struct {
	x    int
	k    int32
	scan bool
}

// NewLevelPeel starts p workers, of which worker owner(u) scans and
// seeds node u. Close stops them.
func NewLevelPeel(g *graph.Graph, p int, owner func(u int) int) (*LevelPeel, error) {
	n := g.NumNodes()
	shares := make([][]int32, p)
	for x := range shares {
		shares[x] = make([]int32, 0, n/p+1) // a balanced owner never grows it
	}
	for u := 0; u < n; u++ {
		x := owner(u)
		if x < 0 || x >= p {
			return nil, fmt.Errorf("kcore: node %d owned by worker %d outside [0, %d)", u, x, p)
		}
		shares[x] = append(shares[x], int32(u))
	}
	lp := &LevelPeel{workers: make([]peelWorker, p), start: make(chan peelStep, p), done: make(chan struct{}, p)}
	deg, coreness := make([]int32, n), make([]int32, n)
	lp.exited.Add(p)
	for x, share := range shares {
		lp.workers[x] = peelWorker{g: g, deg: deg, coreness: coreness,
			alive: share[:len(share):len(share)], queue: make([]int32, 0, len(share))}
		go lp.work()
	}
	return lp, nil
}

func (lp *LevelPeel) work() {
	defer lp.exited.Done()
	for st := range lp.start {
		if w := &lp.workers[st.x]; st.scan {
			w.scan(st.k)
		} else {
			w.cascade(st.k)
		}
		lp.done <- struct{}{}
	}
}

// Close stops the workers and returns once every one has exited.
func (lp *LevelPeel) Close() {
	close(lp.start)
	lp.exited.Wait()
}

// Run peels level by level and returns an error after maxLevels levels.
// With a nil claim it decomposes the graph into Coreness; with a claim
// (one entry per node) it is Certify's check and returns its first
// failure. After an error, discard the peel.
//
//dkcore:noalloc the level loop (TestSteadyStateRoundAllocs)
func (lp *LevelPeel) Run(ctx context.Context, claim []int, maxLevels int) error {
	lp.Levels, lp.Landed, lp.Batches, lp.Arcs = 0, 0, 0, 0
	var level []int32
	if claim != nil {
		//dkcore:lint-ignore KC004 Certify's run, not a decomposition: one claim vector per check
		level = make([]int32, len(claim))
	}
	for x := range lp.workers {
		lp.workers[x].claim, lp.workers[x].level = claim, level
	}
	for k := int32(-1); ; lp.Levels++ {
		lp.barrier(peelStep{k: k, scan: true})
		if claim != nil {
			if err := lp.failure(k); err != nil {
				return err
			}
		}
		k = math.MaxInt32
		for x := range lp.workers {
			k = min(k, lp.workers[x].min)
		}
		if k == math.MaxInt32 {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if lp.Levels >= maxLevels {
			//dkcore:lint-ignore KC004 cold failure exit: the level budget tripped, the run is over
			return fmt.Errorf("kcore: %d nodes not peeled in %d levels", len(lp.workers[0].deg), maxLevels)
		}
		for x := range lp.workers {
			if lp.workers[x].min == k {
				lp.Batches++
			}
		}
		lp.barrier(peelStep{k: k})
	}
	for x := range lp.workers {
		lp.Landed, lp.Arcs = lp.Landed+lp.workers[x].landed, lp.Arcs+lp.workers[x].arcs
	}
	return nil
}

func (lp *LevelPeel) barrier(st peelStep) {
	for st.x = 0; st.x < len(lp.workers); st.x++ {
		lp.start <- st
	}
	for range lp.workers {
		<-lp.done
	}
}

// failure reports the least node any share failed the scan past level
// k on: Certify's first error. The first scan (k < 0) checks condition
// (i) and the sign of each claim; every later scan checks that each
// node claimed at k was peeled.
func (lp *LevelPeel) failure(k int32) error {
	u, count := int32(-1), int32(0)
	for x := range lp.workers {
		if w := &lp.workers[x]; w.bad >= 0 && (u < 0 || w.bad < u) {
			u, count = w.bad, w.badCount
		}
	}
	switch claim := lp.workers[0].claim; {
	case u < 0:
		return nil
	case k >= 0 || claim[u] < 0: // a later scan fails only nodes claimed at k
		return &LevelError{Level: claim[u], Node: int(u), Residual: int(count)}
	default:
		return &LocalityError{Node: int(u), Coreness: claim[u], Count: int(count), AtLeast: claim[u]}
	}
}

// Coreness returns the last run's peel level of every node: its
// coreness after a decomposition.
func (lp *LevelPeel) Coreness() []int {
	out := make([]int, len(lp.workers[0].coreness))
	for u, c := range lp.workers[0].coreness {
		out[u] = int(c)
	}
	return out
}

// check is Certify's condition (i) over the share: every node has at
// least its claim of neighbors claimed at least as high, and no claim
// is negative. It records the least failing node and copies the claims
// of a share that passes into level, where each now fits an int32.
func (w *peelWorker) check() bool {
	claim := w.claim
	for _, u := range w.alive {
		k, atLeast := claim[u], int32(0)
		for _, v := range w.g.Neighbors(int(u)) {
			if claim[v] >= k {
				atLeast++
			}
		}
		if k < 0 {
			atLeast = w.deg[u]
		} else if int(atLeast) >= k {
			w.level[u] = int32(k)
			continue
		}
		if w.bad < 0 || u < w.bad {
			w.bad, w.badCount = u, atLeast
		}
	}
	return w.bad < 0
}

// scan drops the nodes peeled at levels up to k from the worker's
// survivors and queues the seeds of the least surviving level (min is
// MaxInt32 if none survive). A node claimed at k or below that is still
// above k was not peeled: the scan records it as the share's failure.
// No worker cascades while any scans.
//
//dkcore:noalloc once per level; swaps the peeled behind the survivors and refills queue in place
func (w *peelWorker) scan(k int32) {
	w.bad = -1
	if k < 0 {
		w.alive, w.arcs, w.landed = w.alive[:cap(w.alive)], 0, 0
		for _, u := range w.alive {
			w.deg[u] = int32(w.g.Degree(int(u)))
		}
		if w.claim != nil && !w.check() {
			return
		}
	}
	// Without claims a node's level is its degree.
	deg, level := w.deg, w.level
	if level == nil {
		level = deg
	}
	live, queue, m := w.alive, w.queue[:0], int32(math.MaxInt32)
	for i := 0; i < len(live); {
		u := live[i]
		d, l := deg[u], level[u]
		if l <= k {
			if d > k && (w.bad < 0 || u < w.bad) {
				w.bad, w.badCount = u, d
			}
			last := len(live) - 1
			live[i], live[last], live = live[last], u, live[:last]
			continue
		}
		i++
		if l < m {
			m, queue = l, queue[:0]
		}
		if l == m && d <= m {
			queue = append(queue, u)
		}
	}
	w.alive, w.queue, w.min = live, queue, m
}

// cascade peels the worker's seeds at level k, if its least level is k,
// and every node its decrements claim. A decrement that would take a
// survivor below k is undone, so only the one that takes it from k+1 to
// k claims it, and each node is peeled, and its row walked, exactly
// once. A node claimed above k may stop at k: its own level seeds it.
//
//dkcore:estwrite the peel's only coreness write: each node once per run, by the one worker that seeded or claimed it
//dkcore:noalloc the per-level cascade; append reuses the retained queue
func (w *peelWorker) cascade(k int32) {
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
				if w.level == nil || w.level[v] == k {
					queue = append(queue, int32(v))
				}
				fallthrough
			default:
				landed++
			}
		}
	}
	w.queue, w.arcs, w.landed = queue, w.arcs+arcs, w.landed+landed
}
