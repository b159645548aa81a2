package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dkcore"
	"dkcore/internal/chaos"
	"dkcore/internal/cluster"
	"dkcore/internal/graph"
	"dkcore/internal/kcore"
	"dkcore/internal/oocore"
)

// tally counts operations attempted and failed. An operation is one
// engine rep or one serve request; see README.md for what fails one.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu    sync.Mutex
	notes []string
}

// fail records one failed operation and keeps the first few reasons for
// the report.
func (t *tally) fail(format string, args ...any) {
	t.failed.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.notes) < 8 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// failAll fails n operations for one reason: a wrong final state fails
// every operation of the legs that led to it. failed never exceeds
// attempted.
func (t *tally) failAll(n int64, format string, args ...any) {
	t.fail(format, args...)
	t.failed.Store(min(t.failed.Load()+n-1, t.attempted.Load()))
}

// checkCoreness is the correctness gate of every engine rep: equal to the
// sequential oracle node by node, and locally consistent (Theorem 1).
func checkCoreness(in *inputs, coreness []int) error {
	if len(coreness) != len(in.oracle) {
		return fmt.Errorf("coreness has %d entries, oracle %d", len(coreness), len(in.oracle))
	}
	for u, c := range coreness {
		if c != in.oracle[u] {
			return fmt.Errorf("node %d: coreness %d, oracle %d", u, c, in.oracle[u])
		}
	}
	return kcore.VerifyLocality(in.g, coreness)
}

// counts holds a rep's deterministic counters; they must repeat exactly
// across the reps of a run.
type counts map[string]int64

// rep is the outcome of one timed call: how long the public call(s)
// took, the counters it reported, and a check to run after the timer
// has stopped.
type rep struct {
	dur    time.Duration
	counts counts
	verify func() error
}

// leg is one repeatable timed call into the program.
type leg struct {
	name string
	run  func(ctx context.Context) (rep, error)
}

func ingestLeg(in *inputs) leg {
	return leg{name: "ingest", run: func(context.Context) (rep, error) {
		f, err := os.Open(in.files.text)
		if err != nil {
			return rep{}, err
		}
		defer f.Close()
		start := time.Now()
		g, origID, err := dkcore.ReadEdgeList(f)
		dur := time.Since(start)
		if err != nil {
			return rep{}, err
		}
		return rep{dur: dur, verify: func() error {
			if g.NumEdges() != in.g.NumEdges() {
				return fmt.Errorf("ingested %d edges, wrote %d", g.NumEdges(), in.g.NumEdges())
			}
			if sum := edgeChecksum(g, func(u int) uint64 { return uint64(origID[u]) }); sum != in.checksum {
				return fmt.Errorf("ingested edge set digest %x, wrote %x", sum, in.checksum)
			}
			return nil
		}}, nil
	}}
}

func parallelLeg(in *inputs) leg {
	return leg{name: depParallel.String(), run: func(ctx context.Context) (rep, error) {
		start := time.Now()
		eng, err := dkcore.NewEngine(dkcore.Parallel, dkcore.Workers(loadGenerators))
		if err != nil {
			return rep{}, err
		}
		rp, err := eng.Run(ctx, in.g)
		dur := time.Since(start)
		if err != nil {
			return rep{}, err
		}
		return rep{
			dur:    dur,
			counts: counts{"rounds": int64(rp.Rounds), "estimates_sent": rp.EstimatesSent, "batches": rp.Batches},
			verify: func() error { return checkCoreness(in, rp.Coreness) },
		}, nil
	}}
}

// clusterRun is one loopback deployment: the calls kcore-coord and
// kcore-host make, in one process. It returns once the coordinator and
// every host have returned.
func clusterRun(ctx context.Context, g *graph.Graph, compress bool) (time.Duration, *cluster.Result, []*cluster.HostResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	start := time.Now()
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Graph:       g,
		NumHosts:    loadGenerators,
		ListenAddr:  "127.0.0.1:0",
		Compression: compress,
	})
	if err != nil {
		return 0, nil, nil, err
	}
	hosts := make([]*cluster.HostResult, loadGenerators)
	hostErrs := make([]error, loadGenerators)
	var wg sync.WaitGroup
	for i := 0; i < loadGenerators; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hosts[i], hostErrs[i] = cluster.RunHost(ctx, cluster.HostConfig{CoordinatorAddr: coord.Addr()})
		}(i)
	}
	res, err := coord.RunContext(ctx)
	if err != nil {
		cancel()
	}
	wg.Wait()
	dur := time.Since(start)
	if err = errors.Join(append(hostErrs, err)...); err != nil {
		return 0, nil, nil, err
	}
	return dur, res, hosts, nil
}

func clusterLeg(in *inputs, d deployment) leg {
	return leg{name: d.String(), run: func(ctx context.Context) (rep, error) {
		dur, res, _, err := clusterRun(ctx, in.g, d == depClusterFlate)
		if err != nil {
			return rep{}, err
		}
		return rep{
			dur:    dur,
			counts: counts{"rounds": int64(res.Rounds), "estimates_sent": res.EstimatesSent, "bytes_raw": res.BatchBytesRaw},
			verify: func() error { return checkCoreness(in, res.Coreness) },
		}, nil
	}}
}

// spillFS is the filesystem the out-of-core legs run on: the real one,
// with every call counted and fsync counted but not executed. On this
// VM's disk the same tight leg took 4.4-6.8 s against 1.5 s from fsync
// jitter alone, so durability is accounted for as a count and the leg
// times the engine. The program's flush policy (temp + fsync + rename)
// is untouched. timed adds a clock read around each call for fs_busy_s.
type spillFS struct {
	chaos.OS
	timed   bool
	calls   atomic.Int64
	syncs   atomic.Int64
	renames atomic.Int64
	busyNs  atomic.Int64
}

func (fs *spillFS) enter() time.Time {
	fs.calls.Add(1)
	if fs.timed {
		return time.Now()
	}
	return time.Time{}
}

func (fs *spillFS) leave(start time.Time) {
	if fs.timed {
		fs.busyNs.Add(int64(time.Since(start)))
	}
}

func (fs *spillFS) ReadFile(name string) ([]byte, error) {
	defer fs.leave(fs.enter())
	return fs.OS.ReadFile(name)
}

func (fs *spillFS) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	defer fs.leave(fs.enter())
	f, err := fs.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &spillFile{File: f, fs: fs}, nil
}

func (fs *spillFS) Rename(oldpath, newpath string) error {
	fs.renames.Add(1)
	defer fs.leave(fs.enter())
	return fs.OS.Rename(oldpath, newpath)
}

func (fs *spillFS) Remove(name string) error {
	defer fs.leave(fs.enter())
	return fs.OS.Remove(name)
}

type spillFile struct {
	chaos.File
	fs *spillFS
}

func (f *spillFile) Write(p []byte) (int, error) {
	defer f.fs.leave(f.fs.enter())
	return f.File.Write(p)
}

func (f *spillFile) Sync() error {
	f.fs.calls.Add(1)
	f.fs.syncs.Add(1)
	return nil
}

// spillKnobs scales the out-of-core block size and budgets with the
// graph, so a smoke-test graph still spills into several blocks.
func spillKnobs(d deployment, scale float64) (blockSize int, budget int64) {
	blockSize = scaledN(spillBlockSize, scale, 64)
	if d == depOOCoreFit {
		return blockSize, spillFitBudget
	}
	return blockSize, int64(scaledN(spillTightBudget, scale, 128<<10))
}

func oocoreRun(ctx context.Context, in *inputs, d deployment, scale float64, fs chaos.FS) (time.Duration, *oocore.Result, error) {
	blockSize, budget := spillKnobs(d, scale)
	start := time.Now()
	res, err := oocore.Decompose(ctx, in.g,
		oocore.WithMemoryBudget(budget),
		oocore.WithBlockSize(blockSize),
		oocore.WithSpillDir(in.files.dir),
		oocore.WithFS(fs))
	return time.Since(start), res, err
}

func oocoreLeg(in *inputs, d deployment, scale float64) leg {
	return leg{name: d.String(), run: func(ctx context.Context) (rep, error) {
		fs := &spillFS{}
		dur, res, err := oocoreRun(ctx, in, d, scale, fs)
		if err != nil {
			return rep{}, err
		}
		return rep{
			dur: dur,
			counts: counts{
				"passes": int64(res.Passes), "estimates_sent": res.EstimatesSent,
				"cache_hits": res.Cache.Hits, "cache_misses": res.Cache.Misses, "evictions": res.Cache.Evictions,
				"spill_bytes_read": res.Cache.SpillBytesRead, "spill_bytes_written": res.Cache.SpillBytesWritten,
				"fs_syncs": fs.syncs.Load(),
			},
			verify: func() error { return checkCoreness(in, res.Coreness) },
		}, nil
	}}
}

// batchLeg returns the timed leg of a batch deployment.
func batchLeg(in *inputs, d deployment, scale float64) leg {
	switch d {
	case depParallel:
		return parallelLeg(in)
	case depCluster, depClusterFlate:
		return clusterLeg(in, d)
	case depOOCoreTight, depOOCoreFit:
		return oocoreLeg(in, d, scale)
	}
	panic("benchmark: " + d.String() + " is not a batch deployment")
}

// runOnce executes one rep of l with the collector quiesced first,
// outside the timer, and folds its outcome into the tally: an error, a
// wrong result, or a deterministic counter that drifted from the leg's
// first rep is one failed operation. It returns the rep's seconds, or
// false when the rep failed and its time must not be used.
func runOnce(ctx context.Context, l leg, first *counts, t *tally) (sample, bool) {
	runtime.GC()
	t.attempted.Add(1)
	meter := startStealMeter()
	r, err := l.run(ctx)
	stolen := meter.share()
	if err == nil && r.verify != nil {
		err = r.verify()
	}
	if err != nil {
		t.fail("%s: %v", l.name, err)
		return sample{}, false
	}
	if *first == nil {
		*first = r.counts
	}
	for name, v := range r.counts {
		if want := (*first)[name]; v != want {
			t.fail("%s: %s drifted between reps: %d then %d", l.name, name, want, v)
			return sample{}, false
		}
	}
	return sample{r.dur.Seconds(), stolen}, true
}

// minReps is the fewest timed reps a batch leg may report a median from.
const minReps = 3

// runLegs times legs round-robin (A,B,A,B...) so that a slow stretch on
// a shared machine hits every leg alike. One untimed warm-up cycle sizes
// the work; the number of timed cycles is what fits the budget, at
// least minReps.
func runLegs(ctx context.Context, legs []leg, budget time.Duration, t *tally) [][]sample {
	first := make([]counts, len(legs))
	start := time.Now()
	for i, l := range legs {
		runOnce(ctx, l, &first[i], t)
	}
	cycle := time.Since(start)
	n := minReps
	if cycle > 0 {
		if fit := int((budget - cycle) / cycle); fit > n {
			n = fit
		}
	}
	samples := make([][]sample, len(legs))
	for c := 0; c < n; c++ {
		for i, l := range legs {
			if s, ok := runOnce(ctx, l, &first[i], t); ok {
				samples[i] = append(samples[i], s)
			}
		}
	}
	return samples
}
