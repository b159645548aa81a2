// Command kcore-bench regenerates the paper's evaluation: every table and
// figure of §5 plus the §4 worst-case validation and the §3.1.2
// send-optimization ablation, printed as paper-style tables with the
// published numbers alongside for comparison.
//
// Usage:
//
//	kcore-bench -exp all                 # everything, default scale
//	kcore-bench -exp table1 -reps 50     # Table 1 with the paper's 50 reps
//	kcore-bench -exp fig5 -datasets astroph,berkstan
//	kcore-bench -exp worstcase -json     # machine-readable results
//
// With -json the tool emits one JSON record per line on stdout instead
// of the text tables: {experiment, title, seconds, data} objects whose
// data payload is the experiment's row structs. Records stream as
// experiments complete, and a failing experiment still emits a
// well-formed record (with an "error" field and no data) before the tool
// exits non-zero, so consumers never see torn or partial JSON.
//
// These are reproductions of the paper's figures of merit (rounds,
// messages), not performance measurements of this implementation: a
// performance claim goes through `go run ./benchmark` (see README,
// "Measuring").
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dkcore/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kcore-bench:", err)
		os.Exit(1)
	}
}

// experiment is one row of the dispatch table: a runner producing
// JSON-marshalable row data and a text writer for the human format.
type experiment struct {
	name  string
	title string
	// configless experiments run fixed workloads and ignore the
	// reps/scale configuration, so the header must not advertise it.
	configless bool
	run        func(cfg bench.Config, step int) (any, error)
	write      func(w io.Writer, data any) error
}

// experiments is the table every mode dispatch (text, JSON, "all")
// iterates; order is presentation order.
var experiments = []experiment{
	{
		name:  "table1",
		title: "Table 1: one-to-one protocol performance",
		run:   func(cfg bench.Config, _ int) (any, error) { return bench.Table1(cfg) },
		write: func(w io.Writer, data any) error {
			return bench.WriteTable1(w, data.([]bench.Table1Row))
		},
	},
	{
		name:  "table2",
		title: "Table 2: per-core convergence on web-BerkStan analogue",
		run:   func(cfg bench.Config, step int) (any, error) { return bench.Table2(cfg, step) },
		write: func(w io.Writer, data any) error {
			return bench.WriteTable2(w, data.(*bench.Table2Result))
		},
	},
	{
		name:  "fig4",
		title: "Figure 4: error evolution over rounds",
		run:   func(cfg bench.Config, _ int) (any, error) { return bench.Figure4(cfg) },
		write: func(w io.Writer, data any) error {
			return bench.WriteFigure4(w, data.([]bench.Fig4Series))
		},
	},
	{
		name:  "fig5",
		title: "Figure 5: one-to-many overhead vs hosts",
		run:   func(cfg bench.Config, _ int) (any, error) { return bench.Figure5(cfg, nil) },
		write: func(w io.Writer, data any) error {
			return bench.WriteFigure5(w, data.([]bench.Fig5Series))
		},
	},
	{
		name:       "worstcase",
		title:      "§4.2 validation: worst-case family and chains",
		configless: true,
		run:        func(bench.Config, int) (any, error) { return bench.WorstCase(nil) },
		write: func(w io.Writer, data any) error {
			return bench.WriteWorstCase(w, data.([]bench.WorstCaseRow))
		},
	},
	{
		name:  "ablation",
		title: "§3.1.2 ablation: send optimization",
		run:   func(cfg bench.Config, _ int) (any, error) { return bench.SendOptimizationAblation(cfg) },
		write: func(w io.Writer, data any) error {
			return bench.WriteAblation(w, data.([]bench.AblationRow))
		},
	},
	{
		name:  "assignment",
		title: "extension: assignment policy ablation",
		run:   func(cfg bench.Config, _ int) (any, error) { return bench.AssignmentAblation(cfg) },
		write: func(w io.Writer, data any) error {
			return bench.WriteAssignment(w, data.([]bench.AssignmentRow))
		},
	},
}

func lookupExperiment(name string) (experiment, bool) {
	for _, e := range experiments {
		if e.name == name {
			return e, true
		}
	}
	return experiment{}, false
}

func experimentNames() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

// jsonRecord is one experiment's machine-readable result — one line of
// the -json stream. Exactly one of Data and Error is set.
type jsonRecord struct {
	Experiment string  `json:"experiment"`
	Title      string  `json:"title"`
	Seconds    float64 `json:"seconds"`
	Data       any     `json:"data,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// emitRecord writes one complete JSON record line. The record is
// marshaled to a buffer first so a marshal failure can never leave a
// torn object on the stream.
func emitRecord(w io.Writer, rec jsonRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("marshal %s record: %w", rec.Experiment, err)
	}
	_, err = w.Write(append(line, '\n'))
	return err
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("kcore-bench", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "experiment: "+strings.Join(experimentNames(), ", ")+", all")
		scale    = fs.Float64("scale", 1.0, "dataset scale factor")
		reps     = fs.Int("reps", 10, "repetitions per measurement (paper: 50 for Table 1, 20 for Figure 5)")
		seed     = fs.Int64("seed", 1, "base seed")
		datasets = fs.String("datasets", "", "comma-separated dataset keys (default: all)")
		step     = fs.Int("step", 25, "round sampling step for table2")
		asJSON   = fs.Bool("json", false, "emit machine-readable JSON instead of text tables")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := bench.Config{Scale: *scale, Reps: *reps, Seed: *seed}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}

	names := strings.Split(*exp, ",")
	if *exp == "all" {
		names = experimentNames()
	}
	selected := make([]experiment, 0, len(names))
	for _, name := range names {
		e, ok := lookupExperiment(name)
		if !ok {
			return fmt.Errorf("unknown experiment %q (have %s)", name, strings.Join(experimentNames(), ", "))
		}
		selected = append(selected, e)
	}

	for _, e := range selected {
		if !*asJSON {
			// Header first: long experiments would otherwise leave stdout
			// silent for minutes with no sign of progress.
			if e.configless {
				fmt.Fprintf(w, "\n=== %s ===\n\n", e.title)
			} else {
				fmt.Fprintf(w, "\n=== %s (reps=%d, scale=%.2f) ===\n\n",
					e.title, cfg.WithDefaults().Reps, cfg.WithDefaults().Scale)
			}
		}
		start := time.Now()
		data, err := e.run(cfg, *step)
		elapsed := time.Since(start)
		if err != nil {
			if *asJSON {
				// The failure itself is a record: every line on the stream
				// stays parseable even when the tool exits non-zero.
				if emitErr := emitRecord(w, jsonRecord{
					Experiment: e.name,
					Title:      e.title,
					Seconds:    elapsed.Seconds(),
					Error:      err.Error(),
				}); emitErr != nil {
					return emitErr
				}
			}
			return err
		}
		if *asJSON {
			if err := emitRecord(w, jsonRecord{
				Experiment: e.name,
				Title:      e.title,
				Seconds:    elapsed.Seconds(),
				Data:       data,
			}); err != nil {
				return err
			}
			continue
		}
		if err := e.write(w, data); err != nil {
			return err
		}
		fmt.Fprintf(w, "\n[%s done in %v]\n", e.name, elapsed.Round(time.Millisecond))
	}
	return nil
}
