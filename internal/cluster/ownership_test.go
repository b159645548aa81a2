package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"dkcore/internal/core"
	"dkcore/internal/gen"
	"dkcore/internal/graph"
	"dkcore/internal/kcore"
)

// TestClusterRangeOwnershipRounds is the locality regression gate: a
// long path and a small deep-web graph (dense nucleus plus long
// filaments of consecutive IDs) must finish in a handful of coordinator
// rounds, because contiguous ranges keep each filament on one host where
// it cascades inside one Improve. Under a modulo base every filament hop
// crosses hosts, and the path alone takes about its length in rounds.
func TestClusterRangeOwnershipRounds(t *testing.T) {
	const maxRounds = 8
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", gen.Chain(3000)},
		{"deepweb", gen.DeepWeb(gen.DeepWebConfig{
			CoreNodes: 60, CoreDegree: 20, MidNodes: 1000, MidAttach: 2,
			Filaments: 12, FilamentLen: 200,
		}, 3)},
	}
	for _, tc := range graphs {
		want := kcore.Decompose(tc.g).CorenessValues()
		for _, hosts := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/hosts%d", tc.name, hosts), func(t *testing.T) {
				res, hostResults, err := RunLocal(context.Background(),
					CoordinatorConfig{Graph: tc.g, NumHosts: hosts}, HostConfig{})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(res.Coreness, want) {
					t.Fatal("coreness differs from the sequential oracle")
				}
				if res.Rounds > maxRounds {
					t.Fatalf("%d rounds, want <= %d (estimates sent %d)", res.Rounds, maxRounds, res.EstimatesSent)
				}
				// Each host owns exactly its base range, and reports its
				// coreness positionally against it.
				base := core.BlockAssignment{N: tc.g.NumNodes(), H: hosts}
				for _, hr := range hostResults {
					var wantOwned []int
					for u := range want {
						if base.Host(u) == hr.HostID {
							wantOwned = append(wantOwned, u)
						}
					}
					if !slices.Equal(hr.Owned, wantOwned) {
						t.Fatalf("host %d owns %d nodes, want its range of %d", hr.HostID, len(hr.Owned), len(wantOwned))
					}
					for i, u := range hr.Owned {
						if hr.Coreness[i] != want[u] {
							t.Fatalf("host %d: node %d coreness %d, want %d", hr.HostID, u, hr.Coreness[i], want[u])
						}
					}
				}
			})
		}
	}
}

// leaveOnJoin opens the enrollment gate like connectedGate and, once
// the coordinator logs a completed join, asks it to retire a host.
type leaveOnJoin struct {
	*connectedGate
	leave func()
}

func (l leaveOnJoin) Handle(ctx context.Context, rec slog.Record) error {
	if rec.Message == "worker joined" {
		l.leave()
	}
	return l.connectedGate.Handle(ctx, rec)
}

func (l leaveOnJoin) WithAttrs([]slog.Attr) slog.Handler { return l }
func (l leaveOnJoin) WithGroup(string) slog.Handler      { return l }

// TestOwnershipAgreesAfterMembershipChanges checks that every restart
// leaves the hosts owning exactly the coordinator's ranges. A fourth
// worker joins a three-host run at the first round boundary, and a host
// leaves at a later one:
//   - the joiner itself, so the hosts return to the original ranges;
//   - original host 1, so the hosts above it move down one ID and the
//     joiner ends as host 2.
//
// Either way three hosts remain, and each must own exactly its range of
// core.BlockAssignment{N, 3} and report its coreness against it.
func TestOwnershipAgreesAfterMembershipChanges(t *testing.T) {
	g := gen.GNM(400, 1600, 21)
	want := kcore.Decompose(g).CorenessValues()
	final := core.BlockAssignment{N: g.NumNodes(), H: 3}
	for _, leaver := range []int{3, 1} {
		t.Run(fmt.Sprintf("leave%d", leaver), func(t *testing.T) {
			res, hosts := runJoinThenLeave(t, g, leaver)
			seen := make(map[int]bool)
			for _, hr := range hosts {
				if hr.Rounds < res.Rounds {
					if hr.HostID != leaver {
						t.Fatalf("host %d stopped after round %d of %d, but host %d was the one to leave", hr.HostID, hr.Rounds, res.Rounds, leaver)
					}
					continue
				}
				if seen[hr.HostID] {
					t.Fatalf("two final hosts share ID %d", hr.HostID)
				}
				seen[hr.HostID] = true
				var wantOwned []int
				for u := range want {
					if final.Host(u) == hr.HostID {
						wantOwned = append(wantOwned, u)
					}
				}
				if !slices.Equal(hr.Owned, wantOwned) {
					t.Fatalf("host %d owns %d nodes, want its range of %d", hr.HostID, len(hr.Owned), len(wantOwned))
				}
				for i, u := range hr.Owned {
					if hr.Coreness[i] != want[u] {
						t.Fatalf("host %d: node %d coreness %d, want %d", hr.HostID, u, hr.Coreness[i], want[u])
					}
				}
			}
			if len(seen) != 3 {
				t.Fatalf("%d hosts served to the end, want 3", len(seen))
			}
		})
	}
}

// runJoinThenLeave runs g on three hosts plus a fourth worker that
// joins at the first round boundary; once the join is done the
// coordinator is asked to retire host leaver. It checks the run's
// result against the oracle and returns it with the four workers'
// results.
func runJoinThenLeave(t *testing.T, g *graph.Graph, leaver int) (*Result, []*HostResult) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var coord *Coordinator
	gate := &connectedGate{need: 4, open: make(chan struct{})}
	handler := leaveOnJoin{connectedGate: gate, leave: func() { _ = coord.Leave(leaver) }}
	coord, err := NewCoordinator(CoordinatorConfig{Graph: g, NumHosts: 3, AllowJoin: true, Log: slog.New(handler)})
	if err != nil {
		t.Fatal(err)
	}
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		raw, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return &heldConn{Conn: raw, ctx: ctx, open: gate.open}, nil
	}
	hosts := make([]*HostResult, 4)
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for i := range hosts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hosts[i], errs[i] = RunHost(ctx, HostConfig{CoordinatorAddr: coord.Addr(), Dialer: dial})
		}(i)
	}
	res, err := coord.RunContext(ctx)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, herr := range errs {
		if herr != nil {
			t.Fatalf("worker %d: %v", i, herr)
		}
	}
	if res.Joins != 1 || res.Leaves != 1 {
		t.Fatalf("joins = %d, leaves = %d, want 1 and 1", res.Joins, res.Leaves)
	}
	if !slices.Equal(res.Coreness, kcore.Decompose(g).CorenessValues()) {
		t.Fatal("coreness differs from the sequential oracle")
	}
	return res, hosts
}
