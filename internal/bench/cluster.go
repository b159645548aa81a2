package bench

// The cluster benchmark: a cross-engine × cross-dataset matrix putting
// the loopback TCP cluster runtime next to the in-process partitioned
// engine on the same graphs, with and without wire compression. The
// interesting columns are deterministic — round counts, estimate pairs
// shipped, delta-batch bytes before and after flate — so each cell is a
// single run; wall time is reported for context, not comparison.

import (
	"context"
	"fmt"
	"io"
	"time"

	"dkcore/internal/cluster"
	"dkcore/internal/gen"
	"dkcore/internal/graph"
	"dkcore/internal/kcore"
	"dkcore/internal/parallel"
	"dkcore/internal/stats"
)

// ClusterHosts is the worker fan-out every cluster cell runs at.
const ClusterHosts = 4

// ClusterRow is one engine × dataset cell of the matrix.
type ClusterRow struct {
	// Engine is "parallel" (in-process partitioned baseline),
	// "cluster" (loopback TCP, raw frames), or "cluster-flate"
	// (loopback TCP with negotiated flate compression).
	Engine  string `json:"engine"`
	Dataset string `json:"dataset"`
	Nodes   int    `json:"nodes"`
	Edges   int    `json:"edges"`
	Hosts   int    `json:"hosts"`
	Rounds  int    `json:"rounds"`
	// Estimates is the number of (node, estimate) pairs shipped across
	// partition borders — the message volume of §5.
	Estimates int64 `json:"estimates_sent"`
	// BytesRaw / BytesWire measure the delta-batch-bearing frames
	// (tick and done payloads) before and after compression; equal when
	// compression is off. Zero for the in-process engine.
	BytesRaw  int64   `json:"batch_bytes_raw"`
	BytesWire int64   `json:"batch_bytes_wire"`
	Seconds   float64 `json:"seconds"`
}

// clusterWorkloads picks the matrix's graph axis: a skew-heavy, a web-like
// and a mesh-like analogue from the registry (or cfg.Datasets when set),
// plus the powerlaw-10k churn workload the compression gate is calibrated
// on. Registry analogues run below full Table-1 scale — the matrix is
// about per-byte and per-round ratios, not absolute wall time.
func clusterWorkloads(cfg Config) ([]struct {
	name string
	g    *graph.Graph
}, error) {
	type workload = struct {
		name string
		g    *graph.Graph
	}
	keys := cfg.Datasets
	if len(keys) == 0 {
		keys = []string{"astroph", "berkstan", "roadnet"}
	}
	sub := cfg
	sub.Datasets = keys
	ds, err := sub.datasets()
	if err != nil {
		return nil, err
	}
	var wls []workload
	for _, d := range ds {
		wls = append(wls, workload{d.Key, d.Build(cfg.Scale*0.2, cfg.Seed)})
	}
	n := int(10000 * cfg.Scale)
	if n < 64 {
		n = 64
	}
	wls = append(wls, workload{
		fmt.Sprintf("powerlaw-%d", n),
		gen.PowerLaw(gen.PowerLawConfig{N: n, Exponent: 2.2, MinDeg: 2}, cfg.Seed),
	})
	return wls, nil
}

// runClusterOnce drives one full loopback run: coordinator plus
// ClusterHosts workers on goroutines, all sharing a deadline.
func runClusterOnce(g *graph.Graph, compress bool) (*cluster.Result, time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	start := time.Now()
	res, _, err := cluster.RunLocal(ctx, cluster.CoordinatorConfig{
		Graph:       g,
		NumHosts:    ClusterHosts,
		Compression: compress,
	}, cluster.HostConfig{})
	return res, time.Since(start), err
}

// ClusterMatrix measures every engine on every workload and verifies each
// cell's coreness against the sequential oracle before recording it.
func ClusterMatrix(cfg Config) ([]ClusterRow, error) {
	cfg = cfg.WithDefaults()
	wls, err := clusterWorkloads(cfg)
	if err != nil {
		return nil, err
	}
	var rows []ClusterRow
	for _, wl := range wls {
		want := kcore.Decompose(wl.g).CorenessValues()
		base := ClusterRow{
			Dataset: wl.name, Nodes: wl.g.NumNodes(), Edges: wl.g.NumEdges(), Hosts: ClusterHosts,
		}

		start := time.Now()
		pres, err := parallel.Decompose(context.Background(), wl.g, parallel.WithWorkers(ClusterHosts))
		if err != nil {
			return nil, fmt.Errorf("bench: parallel on %s: %w", wl.name, err)
		}
		row := base
		row.Engine = "parallel"
		row.Rounds = pres.Rounds
		row.Estimates = pres.EstimatesSent
		row.Seconds = time.Since(start).Seconds()
		rows = append(rows, row)

		for _, eng := range []struct {
			name     string
			compress bool
		}{{"cluster", false}, {"cluster-flate", true}} {
			res, elapsed, err := runClusterOnce(wl.g, eng.compress)
			if err != nil {
				return nil, fmt.Errorf("bench: %s on %s: %w", eng.name, wl.name, err)
			}
			for u, c := range res.Coreness {
				if c != want[u] {
					return nil, fmt.Errorf("bench: %s on %s: node %d coreness %d, want %d",
						eng.name, wl.name, u, c, want[u])
				}
			}
			row := base
			row.Engine = eng.name
			row.Rounds = res.Rounds
			row.Estimates = res.EstimatesSent
			row.BytesRaw = res.BatchBytesRaw
			row.BytesWire = res.BatchBytesWire
			row.Seconds = elapsed.Seconds()
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// WriteCluster renders the matrix; the ratio column is wire/raw bytes for
// cluster rows (the compression dividend) and "-" elsewhere.
func WriteCluster(w io.Writer, rows []ClusterRow) error {
	tab := stats.NewTable("dataset", "engine", "hosts", "rounds", "estimates", "raw B", "wire B", "wire/raw", "seconds")
	for _, r := range rows {
		ratio := "-"
		if r.BytesRaw > 0 {
			ratio = fmt.Sprintf("%.2f", float64(r.BytesWire)/float64(r.BytesRaw))
		}
		tab.AddRow(
			r.Dataset,
			r.Engine,
			fmt.Sprintf("%d", r.Hosts),
			fmt.Sprintf("%d", r.Rounds),
			fmt.Sprintf("%d", r.Estimates),
			fmt.Sprintf("%d", r.BytesRaw),
			fmt.Sprintf("%d", r.BytesWire),
			ratio,
			fmt.Sprintf("%.3f", r.Seconds),
		)
	}
	return tab.Render(w)
}
