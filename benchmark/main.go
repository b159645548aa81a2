// Command benchmark is the repository's performance benchmark: it runs
// one named workload from a seed, checks every output against the
// sequential oracle, and prints every metric by name with unit, sample
// count, median and quartiles. README.md in this directory documents the
// workloads, the metrics and how they relate; BENCHMARK.json at the
// repository root fixes the names and bounds.
//
// It measures the program from outside, by timing calls into public
// functions; it changes nothing it measures.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = fs.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = fs.Float64("seconds", 26, "length of the measured window")
		trace    = fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
		traceOut = fs.String("trace-out", "", "with -trace 1, write the spans to this file as JSON")
		scale    = fs.Float64("scale", 1, "shrink every input size (smoke tests only; bounds hold at 1)")
		out      = fs.String("out", "", "append the result record to this file as one JSON line")
		workDir  = fs.String("work-dir", ".bench_work", "directory for generated inputs and spill files")
		compare  = fs.Bool("compare", false, "compare two -out files: benchmark -compare a.jsonl b.jsonl")
		spec     = fs.String("spec", "BENCHMARK.json", "with -compare, the file the bounds are read from")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two record files")
			return 2
		}
		if err := compareFiles(stdout, *spec, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*workload)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q; have %s\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || *scale <= 0 || *scale > 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive and -scale in (0, 1]")
		return 2
	}
	cfg := runConfig{workload: w, seed: *seed, scale: *scale, seconds: *seconds, workDir: *workDir, traceOut: *traceOut}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var (
		res *outcome
		err error
	)
	if *trace != 0 {
		res, err = runTraced(ctx, cfg, stdout)
	} else {
		res, err = runUntraced(ctx, cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	rec := newRecord(cfg, *trace != 0, res)
	printRecord(stdout, rec, res.notes)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	// The driver reads the last line of standard output.
	line, err := finalLine(rec)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if rec.Failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// printRecord is the human-readable report: the stamp, then one row per
// metric.
func printRecord(w io.Writer, rec Record, notes []string) {
	mode := "end-to-end"
	if rec.Trace {
		mode = "traced per-layer"
	}
	fmt.Fprintf(w, "workload %s (%s)  seed %d  scale %g  window %gs\n", rec.Workload, mode, rec.Seed, rec.Scale, rec.Seconds)
	fmt.Fprintf(w, "input %d nodes %d edges digest %016x  commit %s  %s  GOMAXPROCS %d of %d CPUs  load generators %d  spill fs %s\n",
		rec.Nodes, rec.Edges, rec.InputChecksum, rec.Commit, rec.GoVersion, rec.GOMAXPROCS, rec.NumCPU, rec.LoadGenerators, rec.SpillFS)
	fmt.Fprintf(w, "%-36s %-8s %5s %14s %14s %14s\n", "metric", "unit", "n", "median", "q1", "q3")
	for _, m := range rec.Metrics {
		note := ""
		if m.Derived {
			note = "  (derived)"
		}
		if m.Contended > 0 {
			note += fmt.Sprintf("  (%d more set aside: CPU stolen)", m.Contended)
		}
		fmt.Fprintf(w, "%-36s %-8s %5d %14.6g %14.6g %14.6g%s\n", m.Name, m.Unit, m.N, m.Median, m.Q1, m.Q3, note)
	}
	fmt.Fprintf(w, "operations attempted %d failed %d failed_share %.6g\n", rec.Attempted, rec.Failed, float64(rec.Failed)/float64(max(rec.Attempted, 1)))
	for _, n := range notes {
		fmt.Fprintln(w, "  failed:", n)
	}
}

// finalLine renders the one-object summary the driver parses.
func finalLine(rec Record) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(rec.Metrics))
	for _, m := range rec.Metrics {
		metrics[m.Name] = value{m.Median, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Failed == 0 && rec.Attempted > 0, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		// Only a NaN or Inf metric gets here: a leg that took no sample.
		return "", fmt.Errorf("result has an unprintable metric: %w", err)
	}
	return string(line), nil
}
