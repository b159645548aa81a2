// Package bench implements the experiment harness that regenerates every
// table and figure of the paper's evaluation (§5): Table 1 (per-dataset
// protocol performance), Table 2 (per-core convergence delays on the
// web-BerkStan analogue), Figure 4 (error evolution), Figure 5
// (one-to-many overhead vs number of hosts), plus the §4 worst-case
// validation, the §3.1.2 send-optimization ablation and the assignment
// policy ablation. Every figure of merit here is a count the paper
// reports (rounds, messages, estimates) — none is a timing; performance
// of this implementation is measured by ./benchmark alone.
//
// The harness is shared between cmd/kcore-bench (human-readable reports)
// and the repository's bench_test.go (BenchmarkTable2).
package bench

import (
	"context"
	"fmt"
	"io"
	"sort"

	"dkcore/internal/core"
	"dkcore/internal/dataset"
	"dkcore/internal/graph"
	"dkcore/internal/kcore"
	"dkcore/internal/stats"
)

// Config controls experiment scale.
type Config struct {
	// Scale multiplies dataset sizes (1.0 = default laptop scale).
	Scale float64
	// Reps is the number of repetitions per measurement (the paper uses
	// 50 for Table 1, 20 for Figure 5).
	Reps int
	// Seed is the base seed; repetition i uses Seed+i for the operation
	// order and Seed for graph generation.
	Seed int64
	// Datasets restricts the run to the given keys; empty means all.
	Datasets []string
}

// WithDefaults fills zero fields with the standard quick-run settings.
func (c Config) WithDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if c.Reps == 0 {
		c.Reps = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

func (c Config) datasets() ([]dataset.Dataset, error) {
	all := dataset.All()
	if len(c.Datasets) == 0 {
		return all, nil
	}
	var out []dataset.Dataset
	for _, key := range c.Datasets {
		d, err := dataset.ByKey(key)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out, nil
}

// Table1Row is the measured counterpart of one Table-1 line.
type Table1Row struct {
	Dataset  dataset.Dataset
	Nodes    int
	Edges    int
	Diameter int
	MaxDeg   int
	MaxCore  int
	AvgCore  float64
	TAvg     float64
	TMin     int
	TMax     int
	MAvg     float64
	MMax     float64
}

// Table1 runs the one-to-one protocol on every dataset analogue and
// returns one measured row per dataset, reproducing the paper's Table 1.
// Messages are counted without the §3.1.2 optimization, matching the
// table's m columns (the optimization is reported separately, as in the
// paper).
func Table1(cfg Config) ([]Table1Row, error) {
	cfg = cfg.WithDefaults()
	ds, err := cfg.datasets()
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, 0, len(ds))
	for _, d := range ds {
		g := d.Build(cfg.Scale, cfg.Seed)
		dec := kcore.Decompose(g)
		row := Table1Row{
			Dataset:  d,
			Nodes:    g.NumNodes(),
			Edges:    g.NumEdges(),
			Diameter: graph.EstimateDiameter(g, 6),
			MaxDeg:   g.MaxDegree(),
			MaxCore:  dec.MaxCoreness(),
			AvgCore:  dec.AvgCoreness(),
		}
		var tStats, mAvgStats, mMaxStats stats.Online
		for rep := 0; rep < cfg.Reps; rep++ {
			res, err := core.RunOneToOne(context.Background(), g, core.WithSeed(cfg.Seed+int64(rep)))
			if err != nil {
				return nil, fmt.Errorf("bench: table1 %s rep %d: %w", d.Key, rep, err)
			}
			tStats.Add(float64(res.ExecutionTime))
			var maxPer int64
			for _, m := range res.MessagesPerProc {
				if m > maxPer {
					maxPer = m
				}
			}
			mAvgStats.Add(float64(res.TotalMessages) / float64(g.NumNodes()))
			mMaxStats.Add(float64(maxPer))
		}
		row.TAvg = tStats.Mean()
		row.TMin = int(tStats.Min())
		row.TMax = int(tStats.Max())
		row.MAvg = mAvgStats.Mean()
		row.MMax = mMaxStats.Mean()
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteTable1 renders measured rows next to the paper's reported values.
func WriteTable1(w io.Writer, rows []Table1Row) error {
	tab := stats.NewTable("#", "name", "|V|", "|E|", "diam", "dmax", "kmax", "kavg",
		"tavg", "tmin", "tmax", "mavg", "mmax")
	for _, r := range rows {
		tab.AddRow(
			fmt.Sprintf("%d", r.Dataset.Index),
			r.Dataset.Name,
			stats.FormatCount(int64(r.Nodes)),
			stats.FormatCount(int64(r.Edges)),
			fmt.Sprintf("%d", r.Diameter),
			fmt.Sprintf("%d", r.MaxDeg),
			fmt.Sprintf("%d", r.MaxCore),
			fmt.Sprintf("%.2f", r.AvgCore),
			fmt.Sprintf("%.2f", r.TAvg),
			fmt.Sprintf("%d", r.TMin),
			fmt.Sprintf("%d", r.TMax),
			fmt.Sprintf("%.2f", r.MAvg),
			fmt.Sprintf("%.2f", r.MMax),
		)
		p := r.Dataset.Paper
		tab.AddRow(
			"", "  (paper)",
			stats.FormatCount(int64(p.Nodes)),
			stats.FormatCount(int64(p.Edges)),
			fmt.Sprintf("%d", p.Diameter),
			fmt.Sprintf("%d", p.MaxDeg),
			fmt.Sprintf("%d", p.MaxCore),
			fmt.Sprintf("%.2f", p.AvgCore),
			fmt.Sprintf("%.2f", p.TAvg),
			fmt.Sprintf("%d", p.TMin),
			fmt.Sprintf("%d", p.TMax),
			fmt.Sprintf("%.2f", p.MAvg),
			fmt.Sprintf("%.2f", p.MMax),
		)
	}
	return tab.Render(w)
}
