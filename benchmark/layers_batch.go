package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	"dkcore"
	"dkcore/internal/core"
	"dkcore/internal/graph"
	"dkcore/internal/kcore"
	"dkcore/internal/parallel"
	"dkcore/internal/transport"
)

// layerPass is the state of one traced run: the inputs, the span
// recorder, and the per-layer metrics gathered so far.
type layerPass struct {
	cfg     runConfig
	in      *inputs
	tr      *tracer
	t       *tally
	metrics []Metric

	// batches and payloads are copies of what the core pipeline shipped,
	// kept for the codec measurements.
	batches  []core.Batch
	payloads [][]byte
}

func (p *layerPass) add(ms ...Metric) { p.metrics = append(p.metrics, ms...) }

// repsOf times fn n times, quiescing the collector before each.
func repsOf(n int, fn func() (time.Duration, error)) ([]float64, error) {
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		d, err := fn()
		if err != nil {
			return nil, err
		}
		samples = append(samples, d.Seconds())
	}
	return samples, nil
}

// edgesOf lists g's edges once, as a parser would hand them to a Builder.
func edgesOf(g *graph.Graph) [][2]int {
	edges := make([][2]int, 0, g.NumEdges())
	g.Edges(func(u, v int) bool {
		edges = append(edges, [2]int{u, v})
		return true
	})
	return edges
}

// graphLayer times the three ways a graph becomes resident: parsing the
// text edge list, building CSR from edges already parsed (ingest minus
// parsing: the sort and dedupe), and reading the binary form.
func (p *layerPass) graphLayer() error {
	ing := ingestLeg(p.in)
	text, err := repsOf(2, func() (time.Duration, error) {
		root := p.tr.begin(0, "benchmark", "rep:ingest")
		defer p.tr.end(root, nil)
		var r rep
		var err error
		p.tr.in(root, "graph", "ReadEdgeList", func() map[string]int64 {
			r, err = ing.run(context.Background())
			return map[string]int64{"edges": int64(p.in.g.NumEdges())}
		})
		p.t.attempted.Add(1)
		if err == nil {
			err = r.verify()
		}
		if err != nil {
			p.t.fail("traced ingest: %v", err)
		}
		return r.dur, nil
	})
	if err != nil {
		return err
	}
	edges := edgesOf(p.in.g)
	build, err := repsOf(2, func() (time.Duration, error) {
		return p.tr.in(0, "graph", "Builder.Build", func() map[string]int64 {
			b := graph.NewBuilder(p.in.g.NumNodes())
			for _, e := range edges {
				b.AddEdge(e[0], e[1])
			}
			return map[string]int64{"edges": int64(b.Build().NumEdges())}
		}), nil
	})
	if err != nil {
		return err
	}
	bin, err := repsOf(3, func() (time.Duration, error) {
		f, err := os.Open(p.in.files.binary)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		return p.tr.in(0, "graph", "ReadBinary", func() map[string]int64 {
			_, err = graph.ReadBinary(f)
			return nil
		}), err
	})
	if err != nil {
		return err
	}
	readText := summarize("graph.read_text_s", "s", text)
	p.add(readText,
		derived("graph.read_text_medges_per_s", "Medges/s", ratio(float64(p.in.g.NumEdges())/1e6, readText.Median)),
		summarize("graph.build_s", "s", build),
		summarize("graph.read_binary_s", "s", bin))
	return nil
}

// kcoreLayer times the sequential bin-sort peel: the absolute baseline
// every work ratio divides by. It returns the median.
func (p *layerPass) kcoreLayer() (float64, error) {
	peel, err := repsOf(3, func() (time.Duration, error) {
		var got []int
		d := p.tr.in(0, "kcore", "Decompose", func() map[string]int64 {
			got = kcore.Decompose(p.in.g).CorenessValues()
			return nil
		})
		p.t.attempted.Add(1)
		if err := checkCoreness(p.in, got); err != nil {
			p.t.fail("sequential peel: %v", err)
		}
		return d, nil
	})
	if err != nil {
		return 0, err
	}
	m := summarize("kcore.peel_s", "s", peel)
	p.add(m, derived("kcore.peel_medges_per_s", "Medges/s", ratio(float64(p.in.g.NumEdges())/1e6, m.Median)))
	return m.Median, nil
}

// loopbackPair is two framed connections joined over loopback TCP.
type loopbackPair struct{ a, b *transport.Conn }

func newLoopbackPair() (*loopbackPair, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	acceptErr := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			acceptErr <- err
			return
		}
		accepted <- c
	}()
	a, err := transport.Dial(ln.Addr().String())
	if err != nil {
		return nil, err
	}
	select {
	case c := <-accepted:
		return &loopbackPair{a: a, b: transport.NewConn(c)}, nil
	case err := <-acceptErr:
		a.Close()
		return nil, err
	}
}

func (lp *loopbackPair) close() {
	lp.a.Close()
	lp.b.Close()
}

// frameEstimates is the frame type the driven pipeline ships batches
// under; any type below transport.CompressedFlag would do.
const frameEstimates uint8 = 1

// pipelineTimes is where one driven rep spent its time.
type pipelineTimes struct {
	total, partition, stateInit, cascade, apply, gather time.Duration
	rounds                                              int
	estimates                                           int64
}

// drivePipeline decomposes the graph by driving the layers itself, in
// the order an engine does, with a span around each call: partition →
// state init → per round {Improve, CollectPointToPoint, AppendBatch,
// Conn.Send/Recv over a loopback pair, DecodeBatch, Apply} → gather.
// That attributes time to layers without touching program code. The
// loop is serial, so its times are work, not wall time of an engine.
// With tr nil it runs untraced; with keep set it copies what it ships.
func (p *layerPass) drivePipeline(tr *tracer, keep bool) (pipelineTimes, error) {
	var pt pipelineTimes
	g := p.in.g
	pair, err := newLoopbackPair()
	if err != nil {
		return pt, err
	}
	// The receiving end runs on its own goroutine so that a frame larger
	// than the socket buffer cannot block its own sender.
	type frame struct {
		payload []byte
		err     error
	}
	frames := make(chan frame)
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for {
			_, payload, err := pair.b.Recv()
			frames <- frame{payload, err}
			if err != nil {
				return
			}
		}
	}()
	defer func() {
		// Closing makes the receiver's Recv fail; take that last send.
		pair.close()
		<-frames
		<-recvDone
	}()

	root := tr.begin(0, "benchmark", "rep:pipeline")
	start := time.Now()
	var parts *core.Partitions
	pt.partition = tr.in(root, "core", "PartitionAll", func() map[string]int64 {
		parts, err = core.PartitionAll(g, core.BlockAssignment{N: g.NumNodes(), H: loadGenerators})
		return nil
	})
	if err != nil {
		return pt, err
	}
	states := make([]*core.HostState, loadGenerators)
	pt.stateInit = tr.in(root, "core", "NewPartitionState+InitEstimates", func() map[string]int64 {
		for x := range states {
			states[x] = parts.NewPartitionState(x)
			states[x].InitEstimates()
		}
		return nil
	})
	type shipment struct {
		dst   int
		batch core.Batch
		wire  []byte
	}
	var encBuf []byte
	for {
		pt.rounds++
		pt.cascade += tr.in(root, "core", "Improve", func() map[string]int64 {
			for _, s := range states {
				s.ImproveIfDirty()
			}
			return nil
		})
		var ships []shipment
		pt.cascade += tr.in(root, "core", "CollectPointToPoint", func() map[string]int64 {
			var n int64
			for _, s := range states {
				for dst, b := range s.CollectPointToPoint() {
					ships = append(ships, shipment{dst: dst, batch: b})
					n += int64(len(b))
				}
			}
			return map[string]int64{"estimates": n}
		})
		if len(ships) == 0 {
			break
		}
		tr.in(root, "transport", "AppendBatch", func() map[string]int64 {
			var n int64
			for i := range ships {
				encBuf = transport.AppendBatch(encBuf[:0], ships[i].batch)
				ships[i].wire = append([]byte(nil), encBuf...)
				n += int64(len(encBuf))
			}
			return map[string]int64{"bytes": n}
		})
		if keep {
			for _, sh := range ships {
				p.batches = append(p.batches, append(core.Batch(nil), sh.batch...))
				p.payloads = append(p.payloads, sh.wire)
			}
		}
		tr.in(root, "transport", "Conn.Send+Recv", func() map[string]int64 {
			for i := range ships {
				if err = pair.a.Send(frameEstimates, ships[i].wire); err != nil {
					return nil
				}
				f := <-frames
				if err = f.err; err != nil {
					return nil
				}
				ships[i].wire = f.payload
			}
			return map[string]int64{"frames": int64(len(ships))}
		})
		if err != nil {
			return pt, fmt.Errorf("pipeline wire: %w", err)
		}
		tr.in(root, "transport", "DecodeBatch", func() map[string]int64 {
			for i := range ships {
				if ships[i].batch, err = transport.DecodeBatch(ships[i].wire); err != nil {
					return nil
				}
			}
			return nil
		})
		if err != nil {
			return pt, fmt.Errorf("pipeline decode: %w", err)
		}
		d := tr.in(root, "core", "Apply", func() map[string]int64 {
			var n int64
			for _, sh := range ships {
				states[sh.dst].Apply(sh.batch)
				n += int64(len(sh.batch))
			}
			pt.estimates += n
			return map[string]int64{"estimates": n}
		})
		pt.cascade += d
		pt.apply += d
	}
	coreness := make([]int, g.NumNodes())
	pt.gather = tr.in(root, "core", "AppendOwnedEstimates", func() map[string]int64 {
		var ests []int
		for _, s := range states {
			ests = s.AppendOwnedEstimates(ests[:0])
			for i, u := range s.Owned() {
				coreness[u] = ests[i]
			}
		}
		return nil
	})
	pt.total = time.Since(start)
	tr.end(root, map[string]int64{"rounds": int64(pt.rounds), "estimates": pt.estimates})
	p.t.attempted.Add(1)
	if err := checkCoreness(p.in, coreness); err != nil {
		p.t.fail("driven pipeline: %v", err)
	}
	return pt, nil
}

// coreLayer drives the pipeline three times: a warm-up that also keeps
// copies of the batches for the codec measurements, one untraced rep and
// one traced rep, whose times it returns. trace.overhead is traced ÷
// untraced of the same driving code, so it is the cost of the spans and
// nothing else.
func (p *layerPass) coreLayer() (pipelineTimes, error) {
	if _, err := p.drivePipeline(nil, true); err != nil {
		return pipelineTimes{}, err
	}
	runtime.GC()
	untraced, err := p.drivePipeline(nil, false)
	if err != nil {
		return pipelineTimes{}, err
	}
	runtime.GC()
	traced, err := p.drivePipeline(p.tr, false)
	if err != nil {
		return pipelineTimes{}, err
	}
	if traced.rounds != untraced.rounds || traced.estimates != untraced.estimates {
		p.t.fail("driven pipeline drifted between reps: %d rounds %d estimates, then %d and %d",
			untraced.rounds, untraced.estimates, traced.rounds, traced.estimates)
	}
	p.add(single("core.partition_s", "s", traced.partition.Seconds()),
		single("core.state_init_s", "s", traced.stateInit.Seconds()),
		single("core.cascade_s", "s", traced.cascade.Seconds()),
		single("core.rounds", "count", float64(traced.rounds)),
		single("core.estimates_shipped", "count", float64(traced.estimates)),
		derived("core.applies_per_s", "1/s", ratio(float64(traced.estimates), traced.apply.Seconds())),
		single("core.gather_s", "s", traced.gather.Seconds()),
		derived("trace.overhead", "ratio", ratio(traced.total.Seconds(), untraced.total.Seconds())))
	return traced, nil
}

// parallelLayer times the shared-memory engine as a whole and returns
// its median wall time.
func (p *layerPass) parallelLayer(peel float64, driven pipelineTimes) (float64, error) {
	ctx := context.Background()
	var last *parallel.Result
	run := func(name string, opts ...parallel.Option) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			var err error
			d := p.tr.in(0, "parallel", name, func() map[string]int64 {
				last, err = parallel.Decompose(ctx, p.in.g, opts...)
				return nil
			})
			if err != nil {
				return 0, err
			}
			p.t.attempted.Add(1)
			if err := checkCoreness(p.in, last.Coreness); err != nil {
				p.t.fail("parallel %s: %v", name, err)
			}
			return d, nil
		}
	}
	w2, err := repsOf(2, run("Decompose(w=2)", parallel.WithWorkers(loadGenerators)))
	if err != nil {
		return 0, err
	}
	res := last
	w1, err := repsOf(2, run("Decompose(w=1)", parallel.WithWorkers(1)))
	if err != nil {
		return 0, err
	}
	modulo, err := repsOf(1, run("Decompose(modulo)", parallel.WithAssignment(core.ModuloAssignment{H: loadGenerators})))
	if err != nil {
		return 0, err
	}
	moduloRounds := last.Rounds
	eng, err := dkcore.NewEngine(dkcore.Parallel, dkcore.Workers(loadGenerators))
	if err != nil {
		return 0, err
	}
	facade, err := repsOf(2, func() (time.Duration, error) {
		var err error
		return p.tr.in(0, "dkcore", "Engine.Run(Parallel)", func() map[string]int64 {
			_, err = eng.Run(ctx, p.in.g)
			return nil
		}), err
	})
	if err != nil {
		return 0, err
	}
	total := summarize("parallel.total_s", "s", w2)
	one := summarize("parallel.w1_s", "s", w1)
	p.add(total, one,
		derived("parallel.scaling_eff", "ratio", ratio(one.Median, loadGenerators*total.Median)),
		single("parallel.rounds", "count", float64(res.Rounds)),
		single("parallel.estimates_sent", "count", float64(res.EstimatesSent)),
		single("parallel.batches", "count", float64(res.Batches)),
		derived("parallel.exchange_self_s", "s", total.Median-(driven.partition+driven.stateInit+driven.cascade/loadGenerators).Seconds()),
		derived("parallel.work_ratio_vs_seq", "ratio", ratio(total.Median, peel)),
		derived("parallel.modulo_round_us", "us", ratio(modulo[0]*1e6, float64(moduloRounds))),
		derived("dkcore.engine_overhead_s", "s", summarize("", "", facade).Median-total.Median))
	return total.Median, nil
}

// transportLayer measures the wire in isolation: the batch codec over
// the batches the core pipeline shipped, then frames over a loopback
// pair — a 64-byte ping-pong for the round trip, and one-way streams of
// 1 MiB batch payloads with flate off and on for throughput.
func (p *layerPass) transportLayer() error {
	if len(p.payloads) == 0 {
		return errors.New("the driven pipeline shipped no batch to measure the codec on")
	}
	var estimates, bytes int64
	for i, b := range p.batches {
		estimates += int64(len(b))
		bytes += int64(len(p.payloads[i]))
	}
	const codecPasses = 3
	var buf []byte
	enc := p.tr.in(0, "transport", "AppendBatch(all)", func() map[string]int64 {
		for pass := 0; pass < codecPasses; pass++ {
			for _, b := range p.batches {
				buf = transport.AppendBatch(buf[:0], b)
			}
		}
		return map[string]int64{"estimates": codecPasses * estimates}
	})
	var decErr error
	dec := p.tr.in(0, "transport", "DecodeBatch(all)", func() map[string]int64 {
		for pass := 0; pass < codecPasses; pass++ {
			for _, payload := range p.payloads {
				if _, err := transport.DecodeBatch(payload); err != nil {
					decErr = err
				}
			}
		}
		return map[string]int64{"estimates": codecPasses * estimates}
	})
	if decErr != nil {
		return decErr
	}
	p.add(derived("transport.batch_encode_ns_per_est", "ns", ratio(float64(enc.Nanoseconds()), float64(codecPasses*estimates))),
		derived("transport.batch_decode_ns_per_est", "ns", ratio(float64(dec.Nanoseconds()), float64(codecPasses*estimates))),
		derived("transport.batch_bytes_per_est", "B", ratio(float64(bytes), float64(estimates))))

	rtt, err := p.frameRoundTrips(scaledN(2000, p.cfg.scale, 200))
	if err != nil {
		return err
	}
	p.add(summarize("transport.frame_rtt_us", "us", rtt))

	// 1 MiB of batch payload per frame at scale 1.
	size := scaledN(1<<20, p.cfg.scale, 1<<14)
	payload := make([]byte, 0, size)
	for i := 0; len(payload) < size; i++ {
		payload = append(payload, p.payloads[i%len(p.payloads)]...)
	}
	payload = payload[:size]
	rawRate, _, err := p.frameStream(payload, 64, false)
	if err != nil {
		return err
	}
	flateRate, flateRatio, err := p.frameStream(payload, 12, true)
	if err != nil {
		return err
	}
	p.add(derived("transport.frame_mb_per_s", "MB/s", rawRate),
		derived("transport.flate_frame_mb_per_s", "MB/s", flateRate),
		derived("transport.flate_ratio", "ratio", flateRatio))
	return nil
}

// frameRoundTrips ping-pongs n 64-byte frames over a loopback pair and
// returns each round trip in microseconds.
func (p *layerPass) frameRoundTrips(n int) ([]float64, error) {
	pair, err := newLoopbackPair()
	if err != nil {
		return nil, err
	}
	defer pair.close()
	echoErr := make(chan error, 1)
	go func() {
		for {
			typ, payload, err := pair.b.Recv()
			if err == nil {
				err = pair.b.Send(typ, payload)
			}
			if err != nil {
				echoErr <- err
				return
			}
		}
	}()
	ping := make([]byte, 64)
	samples := make([]float64, 0, n)
	id := p.tr.begin(0, "transport", "ping-pong")
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := pair.a.Send(frameEstimates, ping); err != nil {
			return nil, err
		}
		if _, _, err := pair.a.Recv(); err != nil {
			return nil, err
		}
		samples = append(samples, float64(time.Since(start))/1e3)
	}
	p.tr.end(id, map[string]int64{"round_trips": int64(n)})
	pair.close()
	<-echoErr
	return samples, nil
}

// frameStream sends n copies of payload one way over a loopback pair and
// returns the payload rate in MB/s and wire bytes ÷ payload bytes.
func (p *layerPass) frameStream(payload []byte, n int, flate bool) (mbPerS, wireRatio float64, err error) {
	pair, err := newLoopbackPair()
	if err != nil {
		return 0, 0, err
	}
	defer pair.close()
	pair.a.SetCompression(flate)
	pair.b.SetCompression(flate)
	recvErr := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if _, _, err := pair.b.Recv(); err != nil {
				recvErr <- err
				return
			}
		}
		recvErr <- nil
	}()
	name := "stream(raw)"
	if flate {
		name = "stream(flate)"
	}
	d := p.tr.in(0, "transport", name, func() map[string]int64 {
		for i := 0; i < n && err == nil; i++ {
			err = pair.a.Send(frameEstimates, payload)
		}
		if err == nil {
			err = <-recvErr
		}
		return map[string]int64{"frames": int64(n), "bytes": int64(n * len(payload))}
	})
	if err != nil {
		return 0, 0, err
	}
	out := pair.a.Stats().Out
	return float64(n*len(payload)) / 1e6 / d.Seconds(), ratio(float64(out.WireBytes), float64(out.RawBytes)), nil
}

// clusterLayer runs the loopback deployment once raw and once with
// flate, and relates it to the other engines.
func (p *layerPass) clusterLayer(peel, parallelTotal float64) error {
	ctx := context.Background()
	type run struct {
		seconds         float64
		rounds          int
		estimates       int64
		frames          int64
		bytesRaw, bytes int64
	}
	once := func(compress bool) (run, error) {
		runtime.GC()
		name := "coordinator+hosts(raw)"
		if compress {
			name = "coordinator+hosts(flate)"
		}
		id := p.tr.begin(0, "cluster", name)
		d, res, hosts, err := clusterRun(ctx, p.in.g, compress)
		if err != nil {
			return run{}, err
		}
		r := run{seconds: d.Seconds(), rounds: res.Rounds, estimates: res.EstimatesSent, bytesRaw: res.BatchBytesRaw, bytes: res.BatchBytesWire}
		for _, h := range hosts {
			r.frames += h.BatchesSent
		}
		p.tr.end(id, map[string]int64{"rounds": int64(r.rounds), "estimates": r.estimates, "bytes_wire": r.bytes})
		p.t.attempted.Add(1)
		if err := checkCoreness(p.in, res.Coreness); err != nil {
			p.t.fail("%s: %v", name, err)
		}
		return r, nil
	}
	raw, err := once(false)
	if err != nil {
		return err
	}
	flate, err := once(true)
	if err != nil {
		return err
	}
	if raw.rounds != flate.rounds || raw.estimates != flate.estimates || raw.bytesRaw != flate.bytesRaw {
		p.t.fail("cluster counts drifted between reps: %+v then %+v", raw, flate)
	}
	p.add(single("cluster.total_s", "s", raw.seconds),
		single("cluster.flate_s", "s", flate.seconds),
		single("cluster.rounds", "count", float64(raw.rounds)),
		single("cluster.estimates_sent", "count", float64(raw.estimates)),
		single("cluster.frames", "count", float64(raw.frames)),
		single("cluster.bytes_raw", "B", float64(raw.bytesRaw)),
		single("cluster.bytes_wire", "B", float64(raw.bytes)),
		single("cluster.bytes_wire_flate", "B", float64(flate.bytes)),
		derived("cluster.round_us", "us", ratio(raw.seconds*1e6, float64(raw.rounds))),
		derived("cluster.flate_penalty", "ratio", ratio(flate.seconds, raw.seconds)),
		derived("cluster.work_ratio_vs_seq", "ratio", ratio(raw.seconds, peel)),
		derived("cluster.work_ratio_vs_parallel", "ratio", ratio(raw.seconds, parallelTotal)))
	return nil
}
