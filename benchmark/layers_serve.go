package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"dkcore"
	"dkcore/internal/gen"
	"dkcore/internal/kcore"
	"dkcore/internal/serve"
	"dkcore/internal/stream"
)

// companionChurnEvents is the length of the churn stream a traced run
// draws for a graph that set-up wrote none for: enough for its short
// mutation legs to run forward only.
const companionChurnEvents = 60000

// churnFor returns a churn stream valid against c's graph: the file
// set-up wrote when c is the workload's own input and has one, else a
// fresh stream.
func (p *layerPass) churnFor(c *inputs) []dkcore.EdgeEvent {
	if c == p.in && len(c.events) > 0 {
		return c.events
	}
	return gen.ChurnEvents(c.g, scaledN(companionChurnEvents, p.cfg.scale, 2*coalescedBurstEvents), 0.5, p.cfg.seed)
}

func percentile(vals []float64, q float64) float64 { return quantile(sortedCopy(vals), q) }

// streamLayer applies churn to a bare Maintainer, one call per event,
// and times the O(n+m) graph rebuild every epoch publish pays.
func (p *layerPass) streamLayer(c *inputs, events []dkcore.EdgeEvent) {
	var mt *stream.Maintainer
	p.tr.in(0, "stream", "NewMaintainer", func() map[string]int64 {
		mt = stream.NewMaintainer(c.g)
		return nil
	})
	var insertUs, deleteUs []float64
	id := p.tr.begin(0, "stream", "InsertEdge/DeleteEdge")
	for _, ev := range events[:min(len(events), scaledN(4000, p.cfg.scale, 400))] {
		start := time.Now()
		if ev.Op == stream.OpInsert {
			mt.InsertEdge(ev.U, ev.V)
			insertUs = append(insertUs, float64(time.Since(start))/1e3)
		} else {
			mt.DeleteEdge(ev.U, ev.V)
			deleteUs = append(deleteUs, float64(time.Since(start))/1e3)
		}
	}
	p.tr.end(id, map[string]int64{"inserts": int64(len(insertUs)), "deletes": int64(len(deleteUs))})
	var rebuildMs []float64
	for i := 0; i < 5; i++ {
		rebuildMs = append(rebuildMs, p.tr.in(0, "stream", "Maintainer.Graph", func() map[string]int64 {
			mt.Graph()
			return nil
		}).Seconds()*1e3)
	}
	p.t.attempted.Add(1)
	got, want := mt.CorenessValues(), kcore.Decompose(mt.Graph()).CorenessValues()
	for u := range want {
		if got[u] != want[u] {
			p.t.fail("maintainer after churn: node %d at %d, recomputation gives %d", u, got[u], want[u])
			break
		}
	}
	p.add(summarize("stream.insert_us", "us", insertUs),
		derived("stream.insert_p99_us", "us", percentile(insertUs, 0.99)),
		summarize("stream.delete_us", "us", deleteUs),
		derived("stream.delete_p99_us", "us", percentile(deleteUs, 0.99)),
		summarize("stream.graph_rebuild_ms", "ms", rebuildMs))
}

// sessionLayer calls the root package's Session in process: open, read,
// one blocking mutation per epoch, and the coalescing enqueue path.
func (p *layerPass) sessionLayer(ctx context.Context, c *inputs, svc *service, feed *eventFeed) error {
	var opens []float64
	for i := 0; i < 2; i++ {
		runtime.GC()
		var sess *dkcore.Session
		var err error
		opens = append(opens, p.tr.in(0, "dkcore", "NewSession", func() map[string]int64 {
			sess, err = dkcore.NewSession(ctx, c.g)
			return nil
		}).Seconds())
		if err != nil {
			return err
		}
		sess.Close()
	}
	reads := scaledN(1<<20, p.cfg.scale, 1<<14)
	n := c.g.NumNodes()
	var sink int
	readDur := p.tr.in(0, "dkcore", "Session.Coreness", func() map[string]int64 {
		for i := 0; i < reads; i++ {
			sink += svc.sess.Coreness(i % n)
		}
		return map[string]int64{"reads": int64(reads)}
	})
	if sink < 0 {
		return fmt.Errorf("negative coreness sum %d", sink)
	}
	var applyMs []float64
	id := p.tr.begin(0, "dkcore", "Session.ApplyEvent")
	for _, ev := range feed.next(20) {
		start := time.Now()
		svc.sess.ApplyEvent(ev)
		applyMs = append(applyMs, time.Since(start).Seconds()*1e3)
	}
	p.tr.end(id, map[string]int64{"events": int64(len(applyMs))})

	batchesBefore := svc.sess.Stats().Batches
	burst := feed.next(burstEvents(depMutateCoalesced, p.cfg.scale))
	var err error
	enqueue := p.tr.in(0, "dkcore", "Session.Enqueue+Flush", func() map[string]int64 {
		for _, ev := range burst {
			if err = svc.sess.Enqueue(ev); err != nil {
				return nil
			}
		}
		err = svc.sess.Flush()
		return map[string]int64{"events": int64(len(burst))}
	})
	if err != nil {
		return err
	}
	batches := svc.sess.Stats().Batches - batchesBefore
	p.add(summarize("dkcore.session_open_s", "s", opens),
		derived("dkcore.session_read_ns", "ns", float64(readDur.Nanoseconds())/float64(reads)),
		summarize("dkcore.session_apply_ms", "ms", applyMs),
		derived("dkcore.session_enqueue_per_s", "1/s", ratio(float64(len(burst)), enqueue.Seconds())),
		derived("dkcore.session_events_per_batch", "count", ratio(float64(len(burst)), float64(batches))))
	return nil
}

// idleRoundTrips times n reads on one connection of an otherwise idle
// server, in microseconds.
func idleRoundTrips(c *inputs, r reader, n int, t *tally) []float64 {
	defer r.close()
	check := readCheck{in: c, rng: newRand(1)}
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		t.attempted.Add(1)
		if err := check.issue(r); err != nil {
			t.fail("idle read: %v", err)
		}
		samples = append(samples, float64(time.Since(start))/1e3)
	}
	return samples
}

// serveLayer measures the service over the wire: idle round trips, the
// closed-loop and open-loop read legs beside light churn, and the two
// mutation legs beside a paced reader.
func (p *layerPass) serveLayer(ctx context.Context, c *inputs, svc *service, feed *eventFeed) error {
	window := time.Duration(p.cfg.seconds * float64(time.Second) / 20)
	const subWindows = 8

	bin, err := svc.dialBinary()
	if err != nil {
		return err
	}
	id := p.tr.begin(0, "serve", "idle round trips (binary)")
	binRTT := idleRoundTrips(c, bin, scaledN(2000, p.cfg.scale, 200), p.t)
	p.tr.end(id, nil)
	web, err := svc.dialHTTP()
	if err != nil {
		return err
	}
	id = p.tr.begin(0, "serve", "idle round trips (http)")
	httpRTT := idleRoundTrips(c, web, scaledN(1000, p.cfg.scale, 100), p.t)
	p.tr.end(id, nil)

	stop := startChurn(svc.sess, feed, 10, p.t)
	id = p.tr.begin(0, "serve", "closed-loop reads (binary)")
	binRates, err := closedLoopReads(c, svc.dialBinary, false, p.cfg.seed, subWindows, window/subWindows, p.t)
	p.tr.end(id, nil)
	if err != nil {
		stop()
		return err
	}
	id = p.tr.begin(0, "serve", "closed-loop reads (http)")
	httpRates, err := closedLoopReads(c, svc.dialHTTP, false, p.cfg.seed, subWindows, window/subWindows, p.t)
	p.tr.end(id, nil)
	if err != nil {
		stop()
		return err
	}
	openCtx, cancel := context.WithTimeout(ctx, window)
	id = p.tr.begin(0, "serve", "open-loop reads (binary, 20000/s)")
	open, err := openLoopReads(openCtx, c, svc.dialBinary, loadGenerators, 20000/loadGenerators, false, p.cfg.seed, p.t)
	p.tr.end(id, map[string]int64{"reads": int64(len(open.latencyUs)), "missed": open.missed})
	cancel()
	stop()
	if err != nil {
		return err
	}

	id = p.tr.begin(0, "serve", "Mutate(wait) bursts")
	waited, err := mutateBursts(ctx, c, svc, feed, depMutateWait, burstEvents(depMutateWait, p.cfg.scale), window, p.cfg.seed, p.t)
	p.tr.end(id, map[string]int64{"events": waited.events, "epochs": waited.epochs})
	if err != nil {
		return err
	}

	lagCtx, stopLag := context.WithCancel(ctx)
	var (
		lagDone sync.WaitGroup
		lagMax  int64
		lagErr  error
	)
	lagDone.Add(1)
	go func() {
		defer lagDone.Done()
		lagMax, lagErr = maxEpochLag(lagCtx, svc.binAddr)
	}()
	id = p.tr.begin(0, "serve", "Mutate(nowait) bursts")
	coalesced, err := mutateBursts(ctx, c, svc, feed, depMutateCoalesced, burstEvents(depMutateCoalesced, p.cfg.scale), window, p.cfg.seed, p.t)
	p.tr.end(id, map[string]int64{"events": coalesced.events, "epochs": coalesced.epochs})
	stopLag()
	lagDone.Wait()
	if err != nil {
		return err
	}
	if lagErr != nil {
		return lagErr
	}

	events := feed.next(burstEvents(depMutateCoalesced, p.cfg.scale))
	const codecPasses = 50
	var buf []byte
	codec := p.tr.in(0, "serve", "AppendMutate+DecodeMutate", func() map[string]int64 {
		for i := 0; i < codecPasses; i++ {
			buf = serve.AppendMutate(buf[:0], events, true)
			if _, _, err = serve.DecodeMutate(buf); err != nil {
				return nil
			}
		}
		return map[string]int64{"events": codecPasses * int64(len(events))}
	})
	if err != nil {
		return err
	}

	p.add(derived("serve.binary_rtt_us", "us", percentile(binRTT, 0.5)),
		derived("serve.http_rtt_us", "us", percentile(httpRTT, 0.5)),
		summarizeClean("serve.read_qps", "1/s", binRates),
		summarizeClean("serve.http_read_qps", "1/s", httpRates),
		derived("serve.read_p50_us", "us", percentile(open.latencyUs, 0.5)),
		derived("serve.read_p99_us", "us", percentile(open.latencyUs, 0.99)),
		derived("serve.read_p999_us", "us", percentile(open.latencyUs, 0.999)),
		derived("serve.open_loop_late_us", "us", percentile(open.lateUs, 0.99)),
		single("serve.open_loop_missed", "count", float64(open.missed)),
		derived("serve.mutate_per_s", "1/s", ratio(float64(waited.events), waited.elapsed.Seconds())),
		single("serve.mutate_events_acked", "count", float64(waited.events)),
		single("dkcore.session_epochs", "count", float64(waited.epochs)),
		derived("serve.mutate_nowait_per_s", "1/s", ratio(float64(coalesced.events), coalesced.elapsed.Seconds())),
		derived("serve.read_p50_during_mutate_us", "us", percentile(waited.reads.latencyUs, 0.5)),
		derived("serve.read_p99_during_mutate_us", "us", percentile(waited.reads.latencyUs, 0.99)),
		derived("serve.mutate_codec_ns_per_event", "ns", float64(codec.Nanoseconds())/float64(codecPasses*len(events))),
		single("serve.epoch_lag_max", "count", float64(lagMax)))
	return nil
}

// maxEpochLag polls the stats frame on its own connection until ctx
// ends and returns the largest epoch lag it saw.
func maxEpochLag(ctx context.Context, addr string) (int64, error) {
	c, err := serve.DialClient(addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	var lag int64
	for ctx.Err() == nil {
		st, err := c.Stats()
		if err != nil {
			return lag, err
		}
		lag = max(lag, st.EpochLag)
		time.Sleep(2 * time.Millisecond)
	}
	return lag, nil
}

// runTraced is the per-layer pass: it re-runs a workload with a span
// around each call into a layer, prints the per-layer table, and
// returns the layer metrics.
func runTraced(ctx context.Context, cfg runConfig, stdout io.Writer) (*outcome, error) {
	in, _, err := prepare(cfg, 1)
	if err != nil {
		return nil, err
	}
	defer cleanUp(cfg, in)
	p := &layerPass{cfg: cfg, in: in, tr: newTracer(cfg.workload.name), t: &tally{}}

	if err := p.graphLayer(); err != nil {
		return nil, fmt.Errorf("graph layer: %w", err)
	}
	peel, err := p.kcoreLayer()
	if err != nil {
		return nil, fmt.Errorf("kcore layer: %w", err)
	}
	driven, err := p.coreLayer()
	if err != nil {
		return nil, fmt.Errorf("core layer: %w", err)
	}
	parallelTotal, err := p.parallelLayer(peel, driven)
	if err != nil {
		return nil, fmt.Errorf("parallel layer: %w", err)
	}
	if err := p.transportLayer(); err != nil {
		return nil, fmt.Errorf("transport layer: %w", err)
	}
	if err := p.clusterLayer(peel, parallelTotal); err != nil {
		return nil, fmt.Errorf("cluster layer: %w", err)
	}

	c := p.companion()
	companionPeel := peel
	if c != in {
		start := time.Now()
		kcore.Decompose(c.g)
		companionPeel = time.Since(start).Seconds()
	}
	if err := p.oocoreLayer(c, companionPeel); err != nil {
		return nil, fmt.Errorf("oocore layer: %w", err)
	}
	events := p.churnFor(c)
	p.streamLayer(c, events)
	svc, err := openService(ctx, c)
	if err != nil {
		return nil, fmt.Errorf("open service: %w", err)
	}
	defer svc.close()
	feed := &eventFeed{events: events}
	if err := p.sessionLayer(ctx, c, svc, feed); err != nil {
		return nil, fmt.Errorf("dkcore layer: %w", err)
	}
	before := p.t.attempted.Load()
	if err := p.serveLayer(ctx, c, svc, feed); err != nil {
		return nil, fmt.Errorf("serve layer: %w", err)
	}
	if err := svc.verifyFinal(); err != nil {
		p.t.failAll(p.t.attempted.Load()-before, "final state: %v", err)
	}

	printLayerTable(stdout, p.tr.spans)
	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, p.tr.spans); err != nil {
			return nil, err
		}
	}
	return newOutcome(in, p.t, p.metrics), nil
}
