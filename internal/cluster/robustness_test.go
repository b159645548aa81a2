package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"dkcore/internal/chaos"
	"dkcore/internal/gen"
	"dkcore/internal/kcore"
	"dkcore/internal/transport"
)

// TestHostRetriesUntilCoordinatorUp starts the workers before anything
// is listening on the coordinator address — the classic deployment race
// that used to fail on the first refused dial. With a RetryWait budget
// the hosts must back off, keep dialing, attach once the coordinator
// appears, and produce the exact sequential answer.
func TestHostRetriesUntilCoordinatorUp(t *testing.T) {
	g := gen.BarabasiAlbert(150, 3, 11)
	want := kcore.Decompose(g).CorenessValues()

	// Reserve a loopback port, then free it: until the coordinator
	// claims it below, every host dial gets connection-refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	hostErr := make(chan error, 2)
	// Each host dials through a wrapper that counts refused dials and
	// signals on the second one.
	refusedTwice := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		var refused atomic.Int32
		d := &net.Dialer{Timeout: testDialWait}
		dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := d.DialContext(ctx, network, addr)
			if errors.Is(err, syscall.ECONNREFUSED) && refused.Add(1) == 2 {
				refusedTwice <- struct{}{}
			}
			return conn, err
		}
		go func() {
			_, err := RunHost(ctx, HostConfig{
				CoordinatorAddr: addr,
				RetryWait:       20 * time.Second,
				Dialer:          dial,
			})
			hostErr <- err
		}()
	}

	// Start the coordinator only once every host has been refused at
	// least twice, so several dial attempts fail first on every run.
	for i := 0; i < 2; i++ {
		select {
		case <-refusedTwice:
		case err := <-hostErr:
			t.Fatalf("host exited before the coordinator was up: %v", err)
		case <-time.After(testDialWait):
			t.Fatal("hosts were not refused twice each before the deadline")
		}
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Graph:      g,
		NumHosts:   2,
		ListenAddr: addr,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.RunContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if herr := waitErr(t, hostErr, testDialWait, "host exit"); herr != nil {
			t.Fatalf("host: %v", herr)
		}
	}
	for u := range want {
		if res.Coreness[u] != want[u] {
			t.Fatalf("node %d: got %d want %d", u, res.Coreness[u], want[u])
		}
	}
}

// TestHostRetryGivesUpAfterWindow: with no coordinator ever appearing,
// the retry loop must stop at the RetryWait deadline with a structured
// error, not spin forever.
func TestHostRetryGivesUpAfterWindow(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	start := time.Now()
	_, err = RunHost(context.Background(), HostConfig{
		CoordinatorAddr: addr,
		RetryWait:       300 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("host attached to a coordinator that never existed")
	}
	if !strings.Contains(err.Error(), "no coordinator session within") {
		t.Fatalf("unstructured give-up error: %v", err)
	}
	if elapsed := time.Since(start); elapsed > testDialWait {
		t.Fatalf("retry loop overshot its window: %v", elapsed)
	}
}

// TestTransientErrorClassification pins the retry predicate: connection
// faults (including injected chaos severs and frames failing their
// checksum) are retryable; protocol and
// decode failures are final — retrying a hostile frame cannot help.
func TestTransientErrorClassification(t *testing.T) {
	for _, err := range []error{
		io.EOF,
		fmt.Errorf("recv: %w", io.ErrUnexpectedEOF),
		net.ErrClosed,
		chaos.ErrTripped,
		fmt.Errorf("transport: recv: %w", transport.ErrCorrupt),
		&net.OpError{Op: "dial", Err: errors.New("connection refused")},
	} {
		if !isTransient(err) {
			t.Errorf("isTransient(%v) = false, want true", err)
		}
	}
	for _, err := range []error{
		errors.New("cluster: decode config: bad host count"),
		&protocolError{host: 1, cause: errors.New("frame 9, want tick")},
		context.Canceled,
	} {
		if isTransient(err) {
			t.Errorf("isTransient(%v) = true, want false", err)
		}
	}
}

// restartVictim serves the protocol like a normal host until a
// mid-run config arrives, then trips its chaos-wrapped connection — an
// injected I/O failure inside a restart, which used to be fatal to the
// run by design.
func restartVictim(addr string) error {
	in := chaos.NewInjector(1, 8)
	raw, err := dialTimeout(addr)
	if err != nil {
		return err
	}
	cc := in.WrapConn(raw, "restart-victim", chaos.ConnPlan{})
	conn := transport.NewConn(cc)
	defer conn.Close()
	h := &hostRun{conn: conn, res: &HostResult{}}
	h.log = slog.New(discardHandler{})
	if err := h.handshake(); err != nil {
		return err
	}
	if err := h.configure(); err != nil {
		return err
	}
	if err := h.restore(); err != nil {
		return err
	}
	if err := conn.Send(frameReady, nil); err != nil {
		return err
	}
	for {
		typ, payload, err := conn.Recv()
		if err != nil {
			return err
		}
		switch typ {
		case frameTick:
			if err := h.tick(payload); err != nil {
				return err
			}
		case frameConfig:
			cc.Trip()
			return nil
		case frameStop:
			return fmt.Errorf("restart victim outlived the run")
		default:
			return fmt.Errorf("unexpected frame %d", typ)
		}
	}
}

// TestRestartIOErrorIsRetried: a connection failure during a restart
// only marks the host dead, and with a RejoinWait budget the next round
// boundary restarts again with a replacement. The victim enrolls first,
// so it is host 0 and survives the leave of host 2 that triggers the
// first restart; it dies on that restart's config, reconnects as its
// own replacement, and the run must still end exact.
func TestRestartIOErrorIsRetried(t *testing.T) {
	g := gen.WorstCase(25)
	want := kcore.Decompose(g).CorenessValues()
	gate := &connectedGate{need: 1, open: make(chan struct{})}
	coord, err := NewCoordinator(CoordinatorConfig{
		Graph:      g,
		NumHosts:   3,
		RejoinWait: 30 * time.Second,
		Log:        slog.New(gate),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Leave(2); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	hostDone := make(chan error, 3)
	go func() {
		if err := restartVictim(coord.Addr()); err != nil {
			hostDone <- err
			return
		}
		_, err := RunHost(ctx, HostConfig{CoordinatorAddr: coord.Addr()})
		hostDone <- err
	}()
	coordDone := make(chan error, 1)
	var res *Result
	go func() {
		var err error
		res, err = coord.RunContext(ctx)
		coordDone <- err
	}()
	select {
	case <-gate.open:
	case <-time.After(testDialWait):
		t.Fatal("the victim did not enroll")
	}
	for i := 0; i < 2; i++ {
		go func() {
			_, err := RunHost(ctx, HostConfig{CoordinatorAddr: coord.Addr()})
			hostDone <- err
		}()
	}
	if err := waitErr(t, coordDone, 2*testDialWait, "coordinator"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := waitErr(t, hostDone, testDialWait, "host exit"); err != nil {
			t.Fatalf("host: %v", err)
		}
	}
	if res.Recoveries < 1 || res.Leaves != 1 {
		t.Fatalf("recoveries = %d, leaves = %d, want at least 1 and 1", res.Recoveries, res.Leaves)
	}
	if !slices.Equal(res.Coreness, want) {
		t.Fatal("coreness differs from the sequential oracle")
	}
}

// TestCoordinatorRejectsBadResult: a result frame carries no node IDs,
// so the coordinator pairs values with the host's owned set. A host
// that ships one value too few, or a value no coreness can reach, must
// fail the run with a protocol error naming it, not panic or return a
// vector with holes.
func TestCoordinatorRejectsBadResult(t *testing.T) {
	g := gen.Chain(40)
	for name, forge := range map[string]func([]int) []byte{
		"short": func(coreness []int) []byte { return transport.EncodeIntSlice(coreness[1:]) },
		"value past n": func(coreness []int) []byte {
			coreness[0] = g.NumNodes()
			return transport.EncodeIntSlice(coreness)
		},
	} {
		t.Run(name, func(t *testing.T) {
			coord, err := NewCoordinator(CoordinatorConfig{Graph: g, NumHosts: 2})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			hostDone := make(chan error, 2)
			go func() { hostDone <- forgingHost(coord.Addr(), forge) }()
			go func() {
				_, err := RunHost(ctx, HostConfig{CoordinatorAddr: coord.Addr()})
				hostDone <- err
			}()
			_, err = coord.RunContext(ctx)
			var perr *protocolError
			if !errors.As(err, &perr) || !strings.Contains(err.Error(), "decode result") {
				t.Fatalf("run ended with %v, want a protocol error from the result decoder", err)
			}
			for i := 0; i < 2; i++ {
				waitErr(t, hostDone, testDialWait, "host exit after abort")
			}
		})
	}
}

// forgingHost serves the protocol like a normal host and answers stop
// with forge applied to its owned coreness values.
func forgingHost(addr string, forge func([]int) []byte) error {
	raw, err := dialTimeout(addr)
	if err != nil {
		return err
	}
	conn := transport.NewConn(raw)
	defer conn.Close()
	h := &hostRun{conn: conn, res: &HostResult{}, log: slog.New(discardHandler{})}
	if err := h.handshake(); err != nil {
		return err
	}
	if err := h.configure(); err != nil {
		return err
	}
	if err := h.restore(); err != nil {
		return err
	}
	if err := conn.Send(frameReady, nil); err != nil {
		return err
	}
	for {
		typ, payload, err := conn.Recv()
		if err != nil {
			return err
		}
		switch typ {
		case frameTick:
			if err := h.tick(payload); err != nil {
				return err
			}
		case frameStop:
			return conn.Send(frameResult, forge(h.state.AppendOwnedEstimates(nil)))
		default:
			return fmt.Errorf("unexpected frame %d", typ)
		}
	}
}
