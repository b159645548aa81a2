package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRunTinyExperiments(t *testing.T) {
	// Exercise each experiment at minuscule scale to keep the test fast.
	tests := []struct {
		exp  string
		want string // substring that must appear in the report
	}{
		{"table1", "(paper)"},
		{"table2", "execution time"},
		{"fig4", "avg err"},
		{"worstcase", "want N-1"},
		{"ablation", "reduction"},
		{"assignment", "modulo (paper)"},
	}
	for _, tt := range tests {
		t.Run(tt.exp, func(t *testing.T) {
			var out bytes.Buffer
			args := []string{"-exp", tt.exp, "-scale", "0.04", "-reps", "2",
				"-datasets", "gnutella,berkstan"}
			if tt.exp == "assignment" {
				args = []string{"-exp", tt.exp, "-scale", "0.04", "-reps", "2", "-datasets", "gnutella"}
			}
			if err := run(args, &out); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), tt.want) {
				t.Fatalf("%s output missing %q:\n%s", tt.exp, tt.want, out.String())
			}
		})
	}
}

func TestRunFig5Tiny(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-exp", "fig5", "-scale", "0.04", "-reps", "1", "-datasets", "gnutella"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "broadcast medium") ||
		!strings.Contains(out.String(), "point-to-point") {
		t.Fatalf("fig5 output missing panels:\n%s", out.String())
	}
}

// TestRunRejectsUnknownExperiment also pins the retired extension
// experiments as gone: their successors are benchmark/'s per-layer
// metrics, and -exp must say so rather than run a second harness.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	for _, exp := range []string{"nope", "parallel", "serve", "cluster", "oocore", "hotpath"} {
		var out bytes.Buffer
		err := run([]string{"-exp", exp}, &out)
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Fatalf("-exp %s: err = %v, want unknown experiment", exp, err)
		}
	}
}

// TestAllIsThePaperExperiments pins what -exp all expands to: the seven
// reproductions of the paper's evaluation, in presentation order.
func TestAllIsThePaperExperiments(t *testing.T) {
	want := "table1,table2,fig4,fig5,worstcase,ablation,assignment"
	if got := strings.Join(experimentNames(), ","); got != want {
		t.Fatalf("experiments = %s, want %s", got, want)
	}
}

// benchRecord mirrors kcore-bench's per-line -json record for tests.
type benchRecord struct {
	Experiment string          `json:"experiment"`
	Title      string          `json:"title"`
	Seconds    float64         `json:"seconds"`
	Data       json.RawMessage `json:"data"`
	Error      string          `json:"error"`
}

// parseJSONLines asserts every emitted line is a complete, well-formed
// JSON record and returns them.
func parseJSONLines(t *testing.T, out string) []benchRecord {
	t.Helper()
	var records []benchRecord
	for i, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		var rec benchRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not a JSON record: %v\n%s", i+1, err, line)
		}
		records = append(records, rec)
	}
	return records
}

func TestRunJSONOutput(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-exp", "worstcase,ablation", "-scale", "0.04", "-reps", "1",
		"-datasets", "gnutella", "-json"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	records := parseJSONLines(t, out.String())
	if len(records) != 2 {
		t.Fatalf("got %d records, want 2", len(records))
	}
	for i, want := range []string{"worstcase", "ablation"} {
		if records[i].Experiment != want {
			t.Fatalf("record %d experiment = %q, want %q", i, records[i].Experiment, want)
		}
		if len(records[i].Data) == 0 || string(records[i].Data) == "null" {
			t.Fatalf("record %d has empty data payload", i)
		}
		if records[i].Error != "" {
			t.Fatalf("record %d carries error %q", i, records[i].Error)
		}
	}
	// JSON mode must not interleave text tables into the stream.
	if strings.Contains(out.String(), "===") {
		t.Fatalf("JSON output contains text table header:\n%s", out.String())
	}
}

// TestRunJSONFailingExperiment pins the error-path contract of -json: a
// failing experiment must still produce a stream where every emitted
// line is a well-formed record — the completed experiments with data,
// the failed one with an error field — and run must report the failure.
func TestRunJSONFailingExperiment(t *testing.T) {
	var out bytes.Buffer
	// worstcase is configless and succeeds; table1 then fails on the
	// unknown dataset key.
	args := []string{"-exp", "worstcase,table1", "-reps", "1", "-datasets", "no-such-dataset", "-json"}
	err := run(args, &out)
	if err == nil {
		t.Fatalf("run with bogus dataset succeeded:\n%s", out.String())
	}
	records := parseJSONLines(t, out.String())
	if len(records) != 2 {
		t.Fatalf("got %d records, want 2:\n%s", len(records), out.String())
	}
	if records[0].Experiment != "worstcase" || records[0].Error != "" || len(records[0].Data) == 0 {
		t.Fatalf("completed record malformed: %+v", records[0])
	}
	last := records[1]
	if last.Experiment != "table1" {
		t.Fatalf("failure record experiment = %q, want table1", last.Experiment)
	}
	if last.Error == "" || !strings.Contains(err.Error(), last.Error) {
		t.Fatalf("failure record error %q does not match run error %q", last.Error, err)
	}
	if len(last.Data) != 0 && string(last.Data) != "null" {
		t.Fatalf("failure record carries data: %s", last.Data)
	}
}
