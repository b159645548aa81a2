package chaos_test

// The chaos equivalence suite: a pool of graphs is decomposed under
// seeded fault schedules on every robustness-bearing leg of the system
// (out-of-core spill, cluster protocol, query service), and each run
// must end in one of exactly two states — coreness equal to the
// sequential oracle, or a clean structured error. Never a hang, never a
// torn on-disk state that poisons a later run, never a silently wrong
// answer. Failures print the seed and the injector's fault log so any
// schedule can be replayed exactly.
//
// Knobs (both optional):
//
//	DKCORE_CHAOS_GRAPHS  pool size per leg (default 10; 4 under -short;
//	                     `make chaos` runs the full 50)
//	DKCORE_CHAOS_SEED    base schedule seed (default 1); graph i in a
//	                     leg runs under seed base+i

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"dkcore"
	"dkcore/internal/chaos"
	"dkcore/internal/cluster"
	"dkcore/internal/gen"
	"dkcore/internal/graph"
	"dkcore/internal/kcore"
	"dkcore/internal/oocore"
	"dkcore/internal/serve"
)

func chaosGraphCount(t *testing.T) int {
	if v := os.Getenv("DKCORE_CHAOS_GRAPHS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad DKCORE_CHAOS_GRAPHS %q", v)
		}
		return n
	}
	if testing.Short() {
		return 4
	}
	return 10
}

func chaosBaseSeed(t *testing.T) int64 {
	v := os.Getenv("DKCORE_CHAOS_SEED")
	if v == "" {
		return 1
	}
	s, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("bad DKCORE_CHAOS_SEED %q", v)
	}
	return s
}

// chaosPool mixes the graph families the protocol treats differently:
// hubs (power-law), uniform density, lattices, trees-with-one-cycle
// worst cases, and chains that finish in two rounds.
func chaosPool(n int) []*graph.Graph {
	pool := make([]*graph.Graph, 0, n)
	for i := 0; i < n; i++ {
		switch i % 5 {
		case 0:
			pool = append(pool, gen.BarabasiAlbert(80+3*i, 3, int64(i+1)))
		case 1:
			pool = append(pool, gen.GNM(70+2*i, 4*(70+2*i), int64(i+1)))
		case 2:
			pool = append(pool, gen.Grid(5+i%6, 8+i%5))
		case 3:
			pool = append(pool, gen.WorstCase(12+i%10))
		default:
			pool = append(pool, gen.Chain(30+i))
		}
	}
	return pool
}

// TestChaosEquivalenceOOCore runs the out-of-core engine against a
// filesystem that tears block-file renames, fails writes, and cuts
// writes short. Block files are the only spilled state and cannot be
// rebuilt, so every run must end in the exact answer or a structured
// error: a torn block is caught by its checksum, an I/O error surfaces
// as a chaos error.
func TestChaosEquivalenceOOCore(t *testing.T) {
	base := chaosBaseSeed(t)
	for i, g := range chaosPool(chaosGraphCount(t)) {
		seed := base + int64(i)
		in := chaos.NewInjector(seed, 5)
		fs := in.WrapFS(chaos.OS{}, "oocore", chaos.FSPlan{
			TornRenameProb:  0.25,
			TornRenameMatch: ".blk",
			ErrProb:         0.01,
			ShortProb:       0.01,
		})
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		res, err := oocore.Decompose(ctx, g,
			oocore.WithBlockSize(32), oocore.WithMemoryBudget(8<<10), oocore.WithFS(fs))
		cancel()
		if err != nil {
			if err.Error() == "" {
				t.Fatalf("graph %d seed %d: unstructured empty error\nfault log:\n%s", i, seed, in.LogString())
			}
			continue // clean structured failure is an accepted outcome
		}
		want := kcore.Decompose(g).CorenessValues()
		if !slices.Equal(res.Coreness, want) {
			t.Fatalf("graph %d seed %d: wrong coreness under faults\nfault log:\n%s", i, seed, in.LogString())
		}
	}
}

// TestChaosEquivalenceCluster runs coordinator+hosts with every host
// connection dialed through the chaos wrapper: frames are dropped,
// duplicated, delayed, severed, and bit-flipped per the seeded
// schedule. Frame deadlines turn swallowed frames into host deaths, the
// rejoin budget absorbs reconnecting hosts, and the run must end — in
// the oracle answer or a structured abort — before the watchdog fires.
func TestChaosEquivalenceCluster(t *testing.T) {
	base := chaosBaseSeed(t)
	for i, g := range chaosPool(chaosGraphCount(t)) {
		seed := base + int64(i)
		in := chaos.NewInjector(seed, 6)
		dialer := in.Dialer(chaos.ConnPlan{
			Drop: 0.04, Dup: 0.04, Delay: 0.08, Flip: 0.01, Truncate: 0.01,
			ReadSever: 0.02, ReadDelay: 0.08, ReadFlip: 0.01,
			WriteBudget: 2, ReadBudget: 2,
		})
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
			Graph:           g,
			NumHosts:        3,
			CheckpointEvery: 1 + i%3,
			RejoinWait:      2 * time.Second,
			FrameTimeout:    2 * time.Second,
		})
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for h := 0; h < 3; h++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Host errors are not failures here: a host killed by its
				// schedule exhausts its retry window and exits; the
				// coordinator-side outcome is what the contract binds.
				_, _ = cluster.RunHost(ctx, cluster.HostConfig{
					CoordinatorAddr: coord.Addr(),
					Dialer:          dialer,
					RetryWait:       4 * time.Second,
					FrameTimeout:    5 * time.Second, // above round time + RejoinWait
				})
			}()
		}
		res, err := coord.RunContext(ctx)
		hostsDone := make(chan struct{})
		go func() { wg.Wait(); close(hostsDone) }()
		select {
		case <-hostsDone:
		case <-time.After(70 * time.Second):
			t.Fatalf("graph %d seed %d: hosts wedged after coordinator returned\nfault log:\n%s",
				i, seed, in.LogString())
		}
		cancel()
		if err != nil {
			if err.Error() == "" {
				t.Fatalf("graph %d seed %d: unstructured empty error\nfault log:\n%s", i, seed, in.LogString())
			}
			continue
		}
		want := kcore.Decompose(g).CorenessValues()
		for u := range want {
			if res.Coreness[u] != want[u] {
				t.Fatalf("graph %d seed %d: node %d coreness %d, want %d\nfault log:\n%s",
					i, seed, u, res.Coreness[u], want[u], in.LogString())
			}
		}
	}
}

// TestChaosEquivalenceServe runs the query service with all client
// traffic dialed through the chaos wrapper: mutations and queries race
// injected connection faults. Individual requests may fail — the
// contract is that the server survives, and that a clean client
// afterwards reads coreness exactly matching a sequential decomposition
// of the server's own final edge set (whatever subset of mutations
// actually landed).
func TestChaosEquivalenceServe(t *testing.T) {
	base := chaosBaseSeed(t)
	for i, g := range chaosPool(chaosGraphCount(t)) {
		seed := base + int64(i)
		in := chaos.NewInjector(seed, 6)
		func() {
			sess, err := dkcore.NewSession(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			srv := serve.New(sess)
			addr, err := srv.ListenHTTP("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if err := srv.Shutdown(ctx); err != nil {
					t.Fatalf("graph %d seed %d: shutdown did not drain: %v\nfault log:\n%s",
						i, seed, err, in.LogString())
				}
			}()
			baseURL := "http://" + addr.String()

			chaotic := &http.Client{
				Timeout: 5 * time.Second,
				Transport: &http.Transport{
					DialContext: in.Dialer(chaos.ConnPlan{
						Drop: 0.05, Delay: 0.1, Flip: 0.02,
						ReadSever: 0.05, ReadDelay: 0.1,
						WriteBudget: 2, ReadBudget: 2,
					}),
					DisableKeepAlives: true, // fresh conn per request → fresh fault draws
				},
			}
			n := g.NumNodes()
			for m := 0; m < 12; m++ {
				u, v := (7*m+int(seed))%n, (11*m+3)%n
				if u == v {
					v = (v + 1) % n
				}
				op := "insert"
				if m%3 == 2 {
					op = "delete"
				}
				body := fmt.Sprintf(`{"events":[{"op":%q,"u":%d,"v":%d}]}`, op, u, v)
				resp, err := chaotic.Post(baseURL+"/mutate?wait=1", "application/json", bytes.NewBufferString(body))
				if err != nil {
					continue // a faulted request is an accepted outcome
				}
				resp.Body.Close()
			}

			// Quiesce: a mutation whose client timed out may still be
			// mid-absorption server-side; wait for the epoch lag to drain
			// so the oracle snapshot and the served answers line up.
			for deadline := time.Now().Add(5 * time.Second); sess.Stats().EpochLag() > 0; {
				if time.Now().After(deadline) {
					t.Fatalf("graph %d seed %d: epoch lag never drained\nfault log:\n%s",
						i, seed, in.LogString())
				}
				time.Sleep(5 * time.Millisecond)
			}

			// Verification over a clean client: the server's answers must
			// match a from-scratch decomposition of its own final graph.
			want := kcore.Decompose(sess.Snapshot()).CorenessValues()
			clean := &http.Client{Timeout: 10 * time.Second}
			resp, err := clean.Get(baseURL + "/healthz/live")
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("graph %d seed %d: server not live after chaos: %v\nfault log:\n%s",
					i, seed, err, in.LogString())
			}
			resp.Body.Close()
			got := sess.CorenessValues()
			if !slices.Equal(got, want) {
				t.Fatalf("graph %d seed %d: served coreness diverged from oracle\nfault log:\n%s",
					i, seed, in.LogString())
			}
		}()
	}
}
