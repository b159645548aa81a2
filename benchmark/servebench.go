package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dkcore"
	"dkcore/internal/kcore"
	"dkcore/internal/serve"
)

// service is one Session behind one Server with binary and HTTP
// listeners on loopback: the calls kcore-serve makes, in one process.
type service struct {
	sess     *dkcore.Session
	srv      *serve.Server
	binAddr  string
	httpAddr string
}

func openService(ctx context.Context, in *inputs) (*service, error) {
	sess, err := dkcore.NewSession(ctx, in.g, dkcore.QueueSize(1<<16))
	if err != nil {
		return nil, err
	}
	srv := serve.New(sess)
	bin, err := srv.ListenBinary("127.0.0.1:0")
	if err != nil {
		sess.Close()
		return nil, err
	}
	web, err := srv.ListenHTTP("127.0.0.1:0")
	if err != nil {
		srv.Shutdown(ctx)
		sess.Close()
		return nil, err
	}
	return &service{sess: sess, srv: srv, binAddr: bin.String(), httpAddr: web.String()}, nil
}

// close stops the listeners, then the session's writer goroutine.
func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	s.sess.Close()
}

// verifyFinal recomputes the decomposition of the session's final edge
// set from scratch and compares it with what the session serves.
func (s *service) verifyFinal() error {
	if err := s.sess.Flush(); err != nil {
		return err
	}
	got := s.sess.CorenessValues()
	want := kcore.Decompose(s.sess.Snapshot()).CorenessValues()
	if len(got) != len(want) {
		return fmt.Errorf("session serves %d nodes, recomputation has %d", len(got), len(want))
	}
	for u := range got {
		if got[u] != want[u] {
			return fmt.Errorf("after churn node %d: session serves %d, recomputation gives %d", u, got[u], want[u])
		}
	}
	return nil
}

// eventFeed hands out a churn stream that never runs dry: forward to
// the end, then the same events undone in reverse order, and so on.
// Every prefix is a valid sequence against the base graph, so no event
// is rejected however long a leg runs. One goroutine draws at a time.
type eventFeed struct {
	events   []dkcore.EdgeEvent
	pos      int
	backward bool
}

func (f *eventFeed) next(n int) []dkcore.EdgeEvent {
	out := make([]dkcore.EdgeEvent, 0, n)
	for len(out) < n {
		switch {
		case !f.backward && f.pos == len(f.events):
			f.backward = true
		case f.backward && f.pos == 0:
			f.backward = false
		case !f.backward:
			out = append(out, f.events[f.pos])
			f.pos++
		default:
			f.pos--
			ev := f.events[f.pos]
			if ev.Op == dkcore.EdgeInsert {
				ev.Op = dkcore.EdgeDelete
			} else {
				ev.Op = dkcore.EdgeInsert
			}
			out = append(out, ev)
		}
	}
	return out
}

// startChurn enqueues events from feed at perSec on a goroutine of its
// own until the returned stop is called; stop returns once it has
// ended. It runs in-process beside a read leg: the readers are what the
// leg measures, the churn only keeps epochs turning over under them.
func startChurn(sess *dkcore.Session, feed *eventFeed, perSec float64, t *tally) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Duration(float64(time.Second) / perSec))
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				t.attempted.Add(1)
				if err := sess.Enqueue(feed.next(1)[0]); err != nil {
					t.fail("churn enqueue: %v", err)
				}
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// reader issues the two point reads of the service alternately.
type reader interface {
	coreness(u int) (value int, epoch uint64, err error)
	degeneracy() (value int, epoch uint64, err error)
	close()
}

// dialer opens one more connection to a service.
type dialer func() (reader, error)

type binaryReader struct{ c *serve.Client }

func (s *service) dialBinary() (reader, error) {
	c, err := serve.DialClient(s.binAddr)
	if err != nil {
		return nil, err
	}
	return binaryReader{c}, nil
}

func (r binaryReader) coreness(u int) (int, uint64, error) { return r.c.Coreness(u) }
func (r binaryReader) degeneracy() (int, uint64, error)    { return r.c.Degeneracy() }
func (r binaryReader) close()                              { r.c.Close() }

// httpReader holds one keep-alive connection of its own.
type httpReader struct {
	base   string
	client *http.Client
}

func (s *service) dialHTTP() (reader, error) {
	return httpReader{
		base:   "http://" + s.httpAddr,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}},
	}, nil
}

type httpReply struct {
	Epoch      uint64         `json:"epoch"`
	Coreness   map[string]int `json:"coreness"`
	Degeneracy int            `json:"degeneracy"`
}

func (r httpReader) get(path string) (httpReply, error) {
	var reply httpReply
	resp, err := r.client.Get(r.base + path)
	if err != nil {
		return reply, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return reply, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return reply, fmt.Errorf("GET %s: %w", path, err)
	}
	// Drain the trailing newline so the connection is reused.
	io.Copy(io.Discard, resp.Body)
	return reply, nil
}

func (r httpReader) coreness(u int) (int, uint64, error) {
	reply, err := r.get(fmt.Sprintf("/coreness?node=%d", u))
	if err != nil {
		return 0, 0, err
	}
	c, ok := reply.Coreness[fmt.Sprint(u)]
	if !ok {
		return 0, 0, fmt.Errorf("reply lacks node %d", u)
	}
	return c, reply.Epoch, nil
}

func (r httpReader) degeneracy() (int, uint64, error) {
	reply, err := r.get("/degeneracy")
	return reply.Degeneracy, reply.Epoch, err
}

func (r httpReader) close() { r.client.CloseIdleConnections() }

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// readCheck validates the replies one connection sees: no error, an
// epoch sequence that never goes backwards, and — while the graph is
// not changing — the oracle's values.
type readCheck struct {
	in        *inputs
	static    bool
	lastEpoch uint64
	i         int
	rng       *rand.Rand
}

// issue sends the connection's next read and reports why it failed, if
// it did.
func (c *readCheck) issue(r reader) error {
	c.i++
	var (
		value, want int
		epoch       uint64
		err         error
	)
	if c.i%2 == 0 {
		want = c.in.maxCore
		value, epoch, err = r.degeneracy()
	} else {
		u := c.rng.Intn(len(c.in.oracle))
		want = c.in.oracle[u]
		value, epoch, err = r.coreness(u)
	}
	switch {
	case err != nil:
		return err
	case epoch < c.lastEpoch:
		return fmt.Errorf("epoch went backwards on a connection: %d after %d", epoch, c.lastEpoch)
	case c.static && value != want:
		return fmt.Errorf("read %d, oracle %d", value, want)
	}
	c.lastEpoch = epoch
	return nil
}

// closedLoopReads drives conns connections, each sending its next read
// when the previous reply arrives, for subWindows × subWindow, and
// returns the completed-reads rate of each sub-window. Callers of a
// coreness service wait for replies, so capacity is a closed-loop number.
func closedLoopReads(in *inputs, dial dialer, static bool, seed int64, subWindows int, subWindow time.Duration, t *tally) ([]sample, error) {
	readers := make([]reader, loadGenerators)
	for i := range readers {
		r, err := dial()
		if err != nil {
			for _, open := range readers[:i] {
				open.close()
			}
			return nil, err
		}
		readers[i] = r
	}
	var (
		done atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	for i, r := range readers {
		wg.Add(1)
		go func(i int, r reader) {
			defer wg.Done()
			defer r.close()
			check := readCheck{in: in, static: static, rng: newRand(seed + int64(i))}
			for !stop.Load() {
				t.attempted.Add(1)
				if err := check.issue(r); err != nil {
					t.fail("closed-loop read: %v", err)
					// A dead connection would otherwise fail at full speed.
					time.Sleep(time.Millisecond)
				}
				done.Add(1)
			}
		}(i, r)
	}
	rates := make([]sample, 0, subWindows)
	start := time.Now()
	lastAt, lastDone := start, int64(0)
	for k := 1; k <= subWindows; k++ {
		meter := startStealMeter()
		time.Sleep(time.Until(start.Add(time.Duration(k) * subWindow)))
		now, n := time.Now(), done.Load()
		rates = append(rates, sample{float64(n-lastDone) / now.Sub(lastAt).Seconds(), meter.share()})
		lastAt, lastDone = now, n
	}
	stop.Store(true)
	wg.Wait()
	return rates, nil
}

// openLoopLimit is the latency limit of an open-loop read. A later reply
// is counted as missed, not as failed: a scheduler stall must not flip
// failed_share.
const openLoopLimit = 10 * time.Millisecond

// openLoopResult is what a paced read leg observed, in microseconds.
type openLoopResult struct {
	latencyUs []float64 // reply time minus due time
	lateUs    []float64 // send time minus due time: how late the generator ran
	missed    int64
}

// openLoopReads sends reads on a fixed schedule of perConn reads/s on
// each of conns binary connections until ctx ends, whatever the replies
// do. Each read is timed from when it was due, so a stall charges the
// reads queued behind it.
func openLoopReads(ctx context.Context, in *inputs, dial dialer, conns int, perConn float64, static bool, seed int64, t *tally) (openLoopResult, error) {
	readers := make([]reader, conns)
	for i := range readers {
		r, err := dial()
		if err != nil {
			for _, open := range readers[:i] {
				open.close()
			}
			return openLoopResult{}, err
		}
		readers[i] = r
	}
	results := make([]openLoopResult, conns)
	interval := time.Duration(float64(time.Second) / perConn)
	var wg sync.WaitGroup
	for i, r := range readers {
		wg.Add(1)
		go func(i int, r reader) {
			defer wg.Done()
			defer r.close()
			res := &results[i]
			check := readCheck{in: in, static: static, rng: newRand(seed + int64(i))}
			start := time.Now()
			for k := 0; ctx.Err() == nil; k++ {
				due := start.Add(time.Duration(k) * interval)
				// Sleep most of the gap, then yield through the rest: a
				// sleep alone overshoots by more than the reads take.
				if gap := time.Until(due); gap > 200*time.Microsecond {
					time.Sleep(gap - 100*time.Microsecond)
				}
				for time.Now().Before(due) {
					runtime.Gosched()
				}
				sent := time.Now()
				t.attempted.Add(1)
				if err := check.issue(r); err != nil {
					t.fail("open-loop read: %v", err)
					time.Sleep(time.Millisecond)
				}
				latency := time.Since(due)
				if latency > openLoopLimit {
					res.missed++
				}
				res.latencyUs = append(res.latencyUs, float64(latency)/1e3)
				res.lateUs = append(res.lateUs, float64(sent.Sub(due))/1e3)
			}
		}(i, r)
	}
	wg.Wait()
	var all openLoopResult
	for _, res := range results {
		all.latencyUs = append(all.latencyUs, res.latencyUs...)
		all.lateUs = append(all.lateUs, res.lateUs...)
		all.missed += res.missed
	}
	return all, nil
}

// pacedReaderPerSec is the open-loop read rate beside a mutation leg.
// A closed-loop reader there made the mutation rate swing 22-37
// events/s; paced, it stays within a few percent.
const pacedReaderPerSec = 500

// mutateResult is what a mutation leg observed.
type mutateResult struct {
	burstSeconds []sample
	events       int64 // acknowledged
	epochs       int64 // published during the leg
	elapsed      time.Duration
	reads        openLoopResult
}

// mutateBursts sends bursts of edge events on one binary connection,
// each burst when the previous one is acknowledged, for window, while a
// second connection reads at a fixed low rate. With d == depMutateWait a
// burst is one Mutate(wait=true) and costs one epoch per event; with
// depMutateCoalesced it is a Mutate(wait=false) closed by a one-event
// waited barrier, so the session batches it. A burst under way when
// the window ends is finished.
func mutateBursts(ctx context.Context, in *inputs, svc *service, feed *eventFeed, d deployment, size int, window time.Duration, seed int64, t *tally) (mutateResult, error) {
	var res mutateResult
	c, err := serve.DialClient(svc.binAddr)
	if err != nil {
		return res, err
	}
	defer c.Close()

	readCtx, stopReads := context.WithCancel(ctx)
	var (
		wg      sync.WaitGroup
		readErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		res.reads, readErr = openLoopReads(readCtx, in, svc.dialBinary, 1, pacedReaderPerSec, false, seed, t)
	}()

	epochsBefore := svc.sess.Stats().Batches
	var lastEpoch uint64
	send := func(events []dkcore.EdgeEvent, wait bool) error {
		t.attempted.Add(1)
		mr, err := c.Mutate(events, wait)
		switch {
		case err != nil:
			return err
		case mr.Applied != len(events):
			return fmt.Errorf("mutate applied %d of %d events", mr.Applied, len(events))
		case mr.Epoch < lastEpoch:
			return fmt.Errorf("epoch went backwards on a connection: %d after %d", mr.Epoch, lastEpoch)
		}
		lastEpoch = mr.Epoch
		return nil
	}
	start := time.Now()
	for time.Since(start) < window && ctx.Err() == nil {
		events := feed.next(size)
		meter := startStealMeter()
		burstStart := time.Now()
		if d == depMutateWait {
			err = send(events, true)
		} else if err = send(events[:size-1], false); err == nil {
			err = send(events[size-1:], true)
		}
		if err != nil {
			t.fail("%s: %v", d, err)
			break
		}
		res.burstSeconds = append(res.burstSeconds, sample{time.Since(burstStart).Seconds(), meter.share()})
		res.events += int64(size)
	}
	res.elapsed = time.Since(start)
	res.epochs = svc.sess.Stats().Batches - epochsBefore
	stopReads()
	wg.Wait()
	return res, readErr
}
