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
	"dkcore/internal/transport"
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

// ownerTable evaluates a host's ownership function on every node.
func ownerTable(h *hostRun) []int {
	tab := make([]int, h.numNodes)
	for u := range tab {
		tab[u] = h.owner(u)
	}
	return tab
}

// tableHost serves the protocol like RunHost, recording its ownership
// function right after configure (the coordinator's table as it stood
// when this host enrolled) and after every reshape it survives.
type tableHost struct {
	h          *hostRun
	configured []int
	reshaped   [][]int
}

func (th *tableHost) serve(ctx context.Context, addr string, dial func(context.Context, string, string) (net.Conn, error)) error {
	raw, err := dial(ctx, "tcp", addr)
	if err != nil {
		return err
	}
	conn := transport.NewConn(raw)
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	h := &hostRun{conn: conn, log: slog.New(discardHandler{}), res: &HostResult{}}
	th.h = h
	if err := h.handshake(); err != nil {
		return err
	}
	if err := h.configure(); err != nil {
		return err
	}
	th.configured = ownerTable(h)
	if err := h.restore(); err != nil {
		return err
	}
	if err := conn.Send(frameReady, nil); err != nil {
		return err
	}
	for !h.stopped {
		typ, payload, err := conn.Recv()
		if err != nil {
			return err
		}
		switch typ {
		case frameTick:
			err = h.tick(payload)
		case frameReshape:
			if err = h.reshape(payload); err == nil && !h.stopped {
				th.reshaped = append(th.reshaped, ownerTable(h))
			}
		case frameStop:
			err = h.sendResult()
		default:
			err = fmt.Errorf("unexpected frame %d", typ)
		}
		if err != nil {
			return err
		}
	}
	return nil
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

// TestOwnershipAgreesAfterMembershipChanges checks that every host's
// owner function equals the coordinator's node→host table after a join
// and after a leave. A fourth worker joins a three-host run at the
// first round boundary, and a host leaves at the next one:
//   - the joiner itself, so some of its nodes go back to their base
//     range owners, where a host must drop an override instead of
//     adding one;
//   - original host 1, so a survivor is handed neighbors of nodes that
//     moved at the join, which it must already route correctly.
//
// After the join, each original host's table equals the joiner's,
// which was built from the config the coordinator derived from its own
// table. After the leave, each survivor's table names, for every node,
// the host whose final owned set holds it, and its override table holds
// exactly the nodes off their base range.
func TestOwnershipAgreesAfterMembershipChanges(t *testing.T) {
	g := gen.GNM(400, 1600, 21)
	base := core.BlockAssignment{N: g.NumNodes(), H: 3}
	for _, leaver := range []int{3, 1} {
		t.Run(fmt.Sprintf("leave%d", leaver), func(t *testing.T) {
			hosts := runJoinThenLeave(t, g, leaver)
			byID := make(map[int]*tableHost, len(hosts))
			for _, th := range hosts {
				byID[th.h.id] = th
			}
			joiner := byID[3]
			finalOwner := make([]int, g.NumNodes())
			for _, th := range hosts {
				if th.h.id == leaver {
					continue
				}
				for _, u := range th.h.owned {
					finalOwner[u] = th.h.id
				}
			}
			if leaver == 3 {
				returned := 0
				for u, h := range finalOwner {
					if joiner.configured[u] == 3 && h == base.Host(u) {
						returned++
					}
				}
				if returned == 0 {
					t.Fatal("the leave returned no node to its base range owner")
				}
			}
			for id := 0; id < 3; id++ {
				if !slices.Equal(byID[id].reshaped[0], joiner.configured) {
					t.Fatalf("host %d: owner table after the join differs from the coordinator's", id)
				}
			}
			for _, th := range hosts {
				if th.h.id == leaver {
					continue
				}
				if last := th.reshaped[len(th.reshaped)-1]; !slices.Equal(last, finalOwner) {
					t.Fatalf("host %d: owner table after the leave differs from the coordinator's", th.h.id)
				}
				off := 0
				for u, h := range finalOwner {
					if h != base.Host(u) {
						off++
						if got, ok := th.h.overrides[u]; !ok || got != h {
							t.Fatalf("host %d: override for node %d is (%d, %v), want %d", th.h.id, u, got, ok, h)
						}
					}
				}
				if len(th.h.overrides) != off {
					t.Fatalf("host %d keeps %d overrides, want %d", th.h.id, len(th.h.overrides), off)
				}
			}
		})
	}
}

// runJoinThenLeave runs g on three hosts plus a fourth worker that
// joins at the first round boundary; the coordinator retires host
// leaver at the next one. It checks the run's result against the
// oracle and returns the four workers.
func runJoinThenLeave(t *testing.T, g *graph.Graph, leaver int) []*tableHost {
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
	hosts := make([]*tableHost, 4)
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for i := range hosts {
		hosts[i] = &tableHost{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = hosts[i].serve(ctx, coord.Addr(), dial)
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
	return hosts
}
