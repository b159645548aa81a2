// Package serve is the network front end of the coreness query service:
// an HTTP/JSON API and a compact binary protocol (framed over
// internal/transport) answering Coreness/KCoreMembers/Degeneracy/Stats
// queries from a dkcore.Session's lock-free epoch snapshots, plus a
// mutation ingest endpoint feeding the session's bounded writer queue.
//
// Every response carries the epoch sequence number it was answered
// from, so clients can correlate reads and track freshness; /healthz
// reports the epoch lag (accepted-but-unabsorbed mutations). Shutdown
// drains in-flight HTTP requests gracefully and force-closes binary
// connections that outlive the grace context.
package serve

import (
	"context"
	"net"
	"net/http"
	"sync"

	"dkcore"
	"dkcore/internal/transport"
)

// Server serves one Session over HTTP and/or the binary protocol. Create
// with New, attach listeners with ListenHTTP/ListenBinary (either may be
// omitted), stop with Shutdown. The Server does not own the Session:
// closing the session is the caller's job, after Shutdown.
type Server struct {
	sess        *dkcore.Session
	readyMaxLag int64
	// sessionStats overrides s.sess.Stats() in health handlers; tests
	// use it to pin an epoch lag that a live writer would erase before
	// the probe could observe it. nil means the real session.
	sessionStats func() dkcore.SessionStats

	mu       sync.Mutex
	httpSrv  *http.Server
	binLn    net.Listener
	conns    map[*transport.Conn]struct{}
	shutdown bool

	wg sync.WaitGroup // binary accept loop and per-connection handlers
}

// Option configures a Server at construction.
type Option func(*Server)

// WithReadyMaxLag bounds the epoch lag (accepted-but-unabsorbed
// mutations) at which /healthz/ready still reports ready: a server
// whose writer has fallen more than n events behind answers 503 so load
// balancers route mutations elsewhere until it catches up. 0 (the
// default) disables the bound — readiness then tracks only the
// shutdown state.
func WithReadyMaxLag(n int64) Option {
	return func(s *Server) { s.readyMaxLag = n }
}

// New returns a Server over sess with no listeners attached.
func New(sess *dkcore.Session, opts ...Option) *Server {
	s := &Server{sess: sess, conns: make(map[*transport.Conn]struct{})}
	for _, o := range opts {
		o(s)
	}
	return s
}

// ListenHTTP starts serving the HTTP API on addr (e.g. "127.0.0.1:0")
// in the background and returns the bound address.
func (s *Server) ListenHTTP(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: s.Handler()}
	s.mu.Lock()
	s.httpSrv = srv
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		srv.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	return ln.Addr(), nil
}

// ListenBinary starts serving the binary query protocol on addr in the
// background and returns the bound address.
func (s *Server) ListenBinary(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.binLn = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			conn := transport.NewConn(raw)
			s.mu.Lock()
			if s.shutdown {
				s.mu.Unlock()
				conn.Close()
				return
			}
			s.conns[conn] = struct{}{}
			s.wg.Add(1)
			s.mu.Unlock()
			go func() {
				defer s.wg.Done()
				defer func() {
					s.mu.Lock()
					delete(s.conns, conn)
					s.mu.Unlock()
					conn.Close()
				}()
				s.serveConn(conn)
			}()
		}
	}()
	return ln.Addr(), nil
}

// Shutdown stops accepting new work, drains in-flight HTTP requests
// until ctx expires, and closes binary connections that have not
// finished by then. It returns ctx.Err() if the grace period ran out.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.shutdown = true
	httpSrv, binLn := s.httpSrv, s.binLn
	s.mu.Unlock()

	if binLn != nil {
		binLn.Close()
	}
	var err error
	if httpSrv != nil {
		err = httpSrv.Shutdown(ctx)
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Binary clients idle in Recv never finish on their own:
		// force-close their connections and wait for the handlers.
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		if err == nil {
			err = ctx.Err()
		}
	}
	return err
}

// Stats is the service-level counter snapshot shared by the /stats HTTP
// endpoint and the binary stats frame.
type Stats struct {
	Epoch      uint64 `json:"epoch"`
	Nodes      int    `json:"nodes"`
	Edges      int    `json:"edges"`
	Degeneracy int    `json:"degeneracy"`
	QueueDepth int    `json:"queue_depth"`
	Enqueued   int64  `json:"enqueued"`
	Applied    int64  `json:"applied"`
	Batches    int64  `json:"batches"`
	EpochLag   int64  `json:"epoch_lag"`
}

// sessStats resolves the session-stats source for health handlers.
func (s *Server) sessStats() dkcore.SessionStats {
	if s.sessionStats != nil {
		return s.sessionStats()
	}
	return s.sess.Stats()
}

func (s *Server) stats() Stats {
	st := s.sess.Stats()
	return Stats{
		Epoch:      st.Epoch,
		Nodes:      st.NumNodes,
		Edges:      st.NumEdges,
		Degeneracy: st.Degeneracy,
		QueueDepth: st.QueueDepth,
		Enqueued:   st.Enqueued,
		Applied:    st.Applied,
		Batches:    st.Batches,
		EpochLag:   st.EpochLag(),
	}
}

// MutateResult reports a mutation batch's outcome: Applied events were
// accepted, Changed of them altered the graph (synchronous mode only;
// -1 when the batch was enqueued without waiting), and Epoch is the
// published epoch after absorption — in synchronous mode the one epoch
// that carries the whole batch, or a later one (the pre-batch epoch in
// enqueue mode).
type MutateResult struct {
	Epoch   uint64 `json:"epoch"`
	Applied int    `json:"applied"`
	Changed int    `json:"changed"`
}

// applyMutations runs a mutation batch against the session. In wait
// mode the batch is one frame of the session's writer — absorbed whole,
// published as one epoch, with the exact sequential changed count;
// otherwise events are enqueued (blocking-free ingest) and a full queue
// aborts with ErrQueueFull after reporting how many were accepted.
func (s *Server) applyMutations(events []dkcore.EdgeEvent, wait bool) (MutateResult, error) {
	res := MutateResult{Changed: -1}
	if wait {
		res.Changed = s.sess.ApplyEvents(events)
		res.Applied = len(events)
	} else {
		for _, ev := range events {
			if err := s.sess.Enqueue(ev); err != nil {
				res.Epoch = s.sess.CurrentEpoch().Seq()
				return res, err
			}
			res.Applied++
		}
	}
	res.Epoch = s.sess.CurrentEpoch().Seq()
	return res, nil
}
