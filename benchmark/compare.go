package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// side is one file's view of a (metric, workload) pair: the median of
// each run, or — when the file holds a single run — that run's own
// quartiles as the spread.
type side struct {
	runs           []float64
	median, q1, q3 float64
}

func sideOf(recs []Record, workload, metric string) (side, bool) {
	var (
		s    side
		last Metric
	)
	for _, rec := range recs {
		if rec.Workload != workload || rec.Trace {
			continue
		}
		for _, m := range rec.Metrics {
			if m.Name == metric && m.N > 0 {
				s.runs = append(s.runs, m.Median)
				last = m
			}
		}
	}
	switch len(s.runs) {
	case 0:
		return s, false
	case 1:
		s.median, s.q1, s.q3 = last.Median, last.Q1, last.Q3
	default:
		sorted := sortedCopy(s.runs)
		s.median, s.q1, s.q3 = quantile(sorted, 0.5), quantile(sorted, 0.25), quantile(sorted, 0.75)
	}
	return s, true
}

func (s side) spread() float64 { return ratio(s.q3-s.q1, s.median) }

// verdict judges b against a for one metric. worse is the change as a
// share of a's median, positive when b is worse. A spread wider than the
// bound cannot resolve a change of the bound's size: the pair is
// unresolved unless every run of b beats every run of a.
func verdict(a, b side, lowerBetter bool, bound float64) (worse float64, word string) {
	worse = ratio(b.median-a.median, a.median)
	beats := func(x, y float64) bool { return x < y }
	if !lowerBetter {
		worse = -worse
		beats = func(x, y float64) bool { return x > y }
	}
	spread := max(a.spread(), b.spread())
	if spread > bound {
		for _, y := range b.runs {
			for _, x := range a.runs {
				if !beats(y, x) {
					return worse, "unresolved"
				}
			}
		}
		return worse, "better"
	}
	switch {
	case worse > bound:
		return worse, "worse"
	case worse < 0 && -worse > spread:
		return worse, "better"
	}
	return worse, "within-bound"
}

func failedShare(recs []Record, workload string) (attempted, failed int64) {
	for _, rec := range recs {
		if rec.Workload == workload && !rec.Trace {
			attempted += rec.Attempted
			failed += rec.Failed
		}
	}
	return attempted, failed
}

// compareFiles prints, for each (end-to-end metric, workload) pair both
// files hold, the two medians with quartiles, the ratio b ÷ a, and the
// verdict under the bound BENCHMARK.json fixes.
func compareFiles(w io.Writer, specPath, pathA, pathB string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a = %s   b = %s   ratio = b ÷ a\n", pathA, pathB)
	fmt.Fprintf(w, "%-10s %-16s %-6s %4s %12s %12s %12s %4s %12s %12s %12s %8s %6s  %s\n",
		"workload", "metric", "unit", "n_a", "median_a", "q1_a", "q3_a", "n_b", "median_b", "q1_b", "q3_b", "b÷a", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			sa, okA := sideOf(a, wl.Name, m.Name)
			sb, okB := sideOf(b, wl.Name, m.Name)
			if !okA || !okB {
				continue
			}
			_, word := verdict(sa, sb, m.Better == "lower", m.Bound)
			fmt.Fprintf(w, "%-10s %-16s %-6s %4d %12.6g %12.6g %12.6g %4d %12.6g %12.6g %12.6g %8.4f %6.2f  %s\n",
				wl.Name, m.Name, m.Unit, len(sa.runs), sa.median, sa.q1, sa.q3, len(sb.runs), sb.median, sb.q1, sb.q3,
				ratio(sb.median, sa.median), m.Bound, word)
		}
		attA, failA := failedShare(a, wl.Name)
		attB, failB := failedShare(b, wl.Name)
		if attA+attB > 0 {
			word := "no increase"
			if ratio(float64(failB), float64(attB)) > ratio(float64(failA), float64(attA)) {
				word = "worse"
			}
			fmt.Fprintf(w, "%-10s %-16s %-6s a: %d of %d failed   b: %d of %d failed  %s\n", wl.Name, "failed_share", "ratio", failA, attA, failB, attB, word)
		}
	}
	return nil
}
