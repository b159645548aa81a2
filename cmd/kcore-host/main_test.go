package main

import (
	"context"
	"sync"
	"testing"
	"time"

	"dkcore"
)

func TestRunFlagErrors(t *testing.T) {
	if err := run([]string{"-nope"}); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-dial-wait", "forever"}); err == nil {
		t.Fatal("malformed duration accepted")
	}
}

func TestRunUnreachableCoordinator(t *testing.T) {
	// Port 1 on loopback refuses immediately on any sane test machine;
	// -dial-wait 0 makes that first failure final instead of retrying
	// through the default 10 s budget.
	if err := run([]string{"-coord", "127.0.0.1:1", "-dial-wait", "0"}); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

// TestRunLoopbackRoundTrip joins two host workers (via the binary's
// run()) to an in-process coordinator on an ephemeral port and checks
// the assembled decomposition.
func TestRunLoopbackRoundTrip(t *testing.T) {
	g := dkcore.FromEdges(6, [][2]int{
		{0, 1}, {1, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 4}, {4, 5},
	})
	truth := dkcore.Decompose(g).CorenessValues()
	coord, err := dkcore.NewCoordinator(dkcore.ClusterConfig{Graph: g, NumHosts: 2})
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		res *dkcore.ClusterResult
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := coord.RunContext(context.Background())
		done <- result{res, err}
	}()

	var wg sync.WaitGroup
	hostErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hostErrs <- run([]string{"-coord", coord.Addr()})
		}()
	}
	wg.Wait()
	close(hostErrs)
	for err := range hostErrs {
		if err != nil {
			t.Fatal(err)
		}
	}

	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		for u, w := range truth {
			if r.res.Coreness[u] != w {
				t.Fatalf("node %d: coreness %d, want %d", u, r.res.Coreness[u], w)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator did not finish")
	}
}
