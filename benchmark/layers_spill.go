package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dkcore/internal/core"
	"dkcore/internal/graph"
	"dkcore/internal/kcore"
	"dkcore/internal/oocore"
	"dkcore/internal/transport"
)

// companionNodes caps the graph the out-of-core, stream, session and
// serve layers are probed on in a traced run. A tight out-of-core pass
// over skew's 1.5M edges takes minutes and its session publishes 140 ms
// epochs; those layers are measured on the same generator at this size
// instead. The spill and serve workloads are below the cap and use
// their own graph.
const companionNodes = 60000

// companion returns the inputs the small-graph layers run on: in itself
// when it is small enough, else the workload's generator scaled down,
// with its oracle.
func (p *layerPass) companion() *inputs {
	limit := scaledN(companionNodes, p.cfg.scale, 400)
	if p.in.g.NumNodes() <= limit {
		return p.in
	}
	g := p.cfg.workload.input(p.cfg.seed, p.cfg.scale*float64(limit)/float64(p.in.g.NumNodes()))
	c := &inputs{files: p.in.files, g: g, oracle: kcore.Decompose(g).CorenessValues()}
	for _, k := range c.oracle {
		c.maxCore = max(c.maxCore, k)
	}
	return c
}

// spillBlock is one contiguous node range in the form oocore spills.
type spillBlock struct {
	first     int
	off, flat []int
}

// blocksOf cuts g into blockSize-node ranges the way oocore's spill does.
func blocksOf(g *graph.Graph, blockSize int) []spillBlock {
	var blocks []spillBlock
	for lo := 0; lo < g.NumNodes(); lo += blockSize {
		hi := min(lo+blockSize, g.NumNodes())
		b := spillBlock{first: lo, off: []int{0}}
		for u := lo; u < hi; u++ {
			b.flat = append(b.flat, g.Neighbors(u)...)
			b.off = append(b.off, len(b.flat))
		}
		blocks = append(blocks, b)
	}
	return blocks
}

// oocoreLayer runs both budget legs once on the counting, clock-reading
// filesystem, then calls the block store and the state rebuild directly
// on the same blocks: what a cache miss costs once the bytes arrive.
func (p *layerPass) oocoreLayer(c *inputs, peel float64) error {
	ctx := context.Background()
	var storeBytes int64
	for _, d := range []deployment{depOOCoreTight, depOOCoreFit} {
		suffix := ".tight"
		if d == depOOCoreFit {
			suffix = ".fit"
		}
		runtime.GC()
		fs := &spillFS{timed: true}
		id := p.tr.begin(0, "oocore", "Decompose("+d.String()+")")
		dur, res, err := oocoreRun(ctx, c, d, p.cfg.scale, fs)
		if err != nil {
			return err
		}
		p.tr.end(id, map[string]int64{"passes": int64(res.Passes), "misses": res.Cache.Misses, "evictions": res.Cache.Evictions,
			"fs_calls": fs.calls.Load(), "fs_busy_ns": fs.busyNs.Load()})
		p.t.attempted.Add(1)
		if err := checkCoreness(c, res.Coreness); err != nil {
			p.t.fail("oocore%s: %v", suffix, err)
		}
		storeBytes = res.BlockStoreBytes
		cs := res.Cache
		p.add(single("oocore.seconds"+suffix, "s", dur.Seconds()),
			single("oocore.passes"+suffix, "count", float64(res.Passes)),
			single("oocore.cache_hits"+suffix, "count", float64(cs.Hits)),
			single("oocore.cache_misses"+suffix, "count", float64(cs.Misses)),
			single("oocore.evictions"+suffix, "count", float64(cs.Evictions)),
			derived("oocore.hit_ratio"+suffix, "ratio", ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses))),
			single("oocore.spill_bytes_read"+suffix, "B", float64(cs.SpillBytesRead)),
			single("oocore.spill_bytes_written"+suffix, "B", float64(cs.SpillBytesWritten)),
			derived("oocore.read_amp"+suffix, "ratio", ratio(float64(cs.SpillBytesRead), float64(res.BlockStoreBytes))),
			derived("oocore.write_amp"+suffix, "ratio", ratio(float64(cs.SpillBytesWritten), float64(res.BlockStoreBytes))),
			single("oocore.peak_resident_bytes"+suffix, "B", float64(cs.PeakResidentBytes)),
			single("oocore.estimates_sent"+suffix, "count", float64(res.EstimatesSent)),
			derived("oocore.work_ratio_vs_seq"+suffix, "ratio", ratio(dur.Seconds(), peel)))
		if d == depOOCoreTight {
			p.add(single("oocore.fs_calls", "count", float64(fs.calls.Load())),
				single("oocore.fs_syncs", "count", float64(fs.syncs.Load())),
				single("oocore.fs_renames", "count", float64(fs.renames.Load())),
				single("oocore.fs_busy_s", "s", float64(fs.busyNs.Load())/1e9))
		}
	}
	p.add(single("oocore.store_bytes", "B", float64(storeBytes)))
	return p.storeLayer(c)
}

// storeLayer times the pieces of a cache miss and an eviction one block
// at a time, plus the CSR block codec underneath them.
func (p *layerPass) storeLayer(c *inputs) error {
	dir := filepath.Join(c.files.dir, "store-probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	blockSize, _ := spillKnobs(depOOCoreTight, p.cfg.scale)
	blocks := blocksOf(c.g, blockSize)
	owner := func(u int) int { return u / blockSize }
	store := oocore.NewStoreFS(dir, &spillFS{})
	var (
		blockWrite, blockLoad, ckptWrite, ckptLoad, rebuild []float64
		encNs, decNs, arcs, encBytes                        int64
	)
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	root := p.tr.begin(0, "benchmark", "rep:store-probe")
	for id, b := range blocks {
		count := len(b.off) - 1
		var wire []byte
		encNs += p.tr.in(root, "transport", "EncodeCSRBlock", func() map[string]int64 {
			wire = transport.EncodeCSRBlock(b.first, count, b.off, b.flat)
			return map[string]int64{"bytes": int64(len(wire))}
		}).Nanoseconds()
		var err error
		decNs += p.tr.in(root, "transport", "DecodeCSRBlock", func() map[string]int64 {
			_, _, _, err = transport.DecodeCSRBlock(wire)
			return nil
		}).Nanoseconds()
		if err != nil {
			return err
		}
		arcs += int64(len(b.flat))
		encBytes += int64(len(wire))

		blockWrite = append(blockWrite, us(p.tr.in(root, "oocore", "Store.WriteBlock", func() map[string]int64 {
			_, err = store.WriteBlock(id, b.first, count, b.off, b.flat)
			return nil
		})))
		if err != nil {
			return err
		}
		var off, flat []int
		blockLoad = append(blockLoad, us(p.tr.in(root, "oocore", "Store.LoadBlock", func() map[string]int64 {
			_, off, flat, _, err = store.LoadBlock(id)
			return nil
		})))
		if err != nil {
			return err
		}
		owned := make([]int, count)
		for i := range owned {
			owned[i] = b.first + i
		}
		// The checkpoint of a block late in a run: every tracked node at
		// its final estimate, external neighbours included.
		ckpt := make(core.Batch, 0, count)
		seen := make(map[int]bool, count)
		for _, u := range append(append([]int(nil), owned...), flat...) {
			if !seen[u] {
				seen[u] = true
				ckpt = append(ckpt, core.EstimateMsg{Node: u, Core: c.oracle[u]})
			}
		}
		ckptWrite = append(ckptWrite, us(p.tr.in(root, "oocore", "Store.WriteCheckpoint", func() map[string]int64 {
			_, err = store.WriteCheckpoint(id, ckpt)
			return map[string]int64{"estimates": int64(len(ckpt))}
		})))
		if err != nil {
			return err
		}
		var loaded core.Batch
		ckptLoad = append(ckptLoad, us(p.tr.in(root, "oocore", "Store.LoadCheckpoint", func() map[string]int64 {
			var ok bool
			loaded, _, ok, err = store.LoadCheckpoint(id)
			if err == nil && !ok {
				err = fmt.Errorf("checkpoint of block %d vanished", id)
			}
			return nil
		})))
		if err != nil {
			return err
		}
		var state *core.HostState
		rebuild = append(rebuild, us(p.tr.in(root, "core", "NewHostState+InitEstimates+Apply+Improve", func() map[string]int64 {
			state = core.NewHostState(id, c.g.NumNodes(), owned, off, flat, owner)
			state.InitEstimates()
			state.Apply(loaded)
			state.ImproveIfDirty()
			return nil
		})))
		p.t.attempted.Add(1)
		for i, est := range state.AppendOwnedEstimates(nil) {
			if est != c.oracle[owned[i]] {
				p.t.fail("rebuilt block %d: node %d at %d, oracle %d", id, owned[i], est, c.oracle[owned[i]])
				break
			}
		}
	}
	p.tr.end(root, map[string]int64{"blocks": int64(len(blocks))})
	p.add(summarize("oocore.block_write_us", "us", blockWrite),
		summarize("oocore.block_load_us", "us", blockLoad),
		summarize("oocore.ckpt_write_us", "us", ckptWrite),
		summarize("oocore.ckpt_load_us", "us", ckptLoad),
		summarize("oocore.state_rebuild_us", "us", rebuild),
		derived("transport.csr_encode_mb_per_s", "MB/s", ratio(float64(encBytes)*1e3, float64(encNs))),
		derived("transport.csr_decode_mb_per_s", "MB/s", ratio(float64(encBytes)*1e3, float64(decNs))),
		derived("transport.csr_bytes_per_arc", "B", ratio(float64(encBytes), float64(arcs))))
	return nil
}
