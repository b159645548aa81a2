package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"dkcore/internal/gen"
	"dkcore/internal/stream"
)

// smokeArgs runs a workload small and short: the shapes of the output
// are under test here, not the numbers.
func smokeArgs(workload, seed, trace, dir string) []string {
	return []string{"--workload", workload, "--seed", seed, "--seconds", "0.25", "--trace", trace,
		"-scale", "0.02", "-work-dir", filepath.Join(dir, "work"), "-out", filepath.Join(dir, "out-"+trace+"-"+seed+".jsonl"),
		"-trace-out", filepath.Join(dir, workload+"-spans.json")}
}

type finalResult struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func runSmoke(t *testing.T, args []string) finalResult {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("benchmark %v exited %d\nstderr: %s\nstdout: %s", args, code, stderr.String(), stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res finalResult
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("run not clean: correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
	}
	return res
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkAgainstSpec asserts that a run emitted exactly the metrics
// BENCHMARK.json names for its mode, each with the unit named there.
func checkAgainstSpec(t *testing.T, workload string, res finalResult, want []specMetric) {
	t.Helper()
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s named in BENCHMARK.json but not emitted", workload, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: %s emitted in %q, BENCHMARK.json says %q", workload, m.Name, got.Unit, m.Unit)
		}
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q outside the contract's alphabet", m.Name)
		}
	}
	if len(res.Metrics) != len(want) {
		named := map[string]bool{}
		for _, m := range want {
			named[m.Name] = true
		}
		for name := range res.Metrics {
			if !named[name] {
				t.Errorf("%s: %s emitted but not named in BENCHMARK.json", workload, name)
			}
		}
	}
}

// TestWorkloads runs the four workloads and the traced pass small and
// short, and checks the shape of everything they print and write.
func TestWorkloads(t *testing.T) {
	specPath := filepath.Join("..", "BENCHMARK.json")
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	dir := t.TempDir()
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the benchmark %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		one := runSmoke(t, smokeArgs(w.name, "1", "0", dir))
		checkAgainstSpec(t, w.name, one, spec.EndToEnd)
		for name, m := range one.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %g; the contract wants it never 0", w.name, name, m.Value)
			}
		}
		// A second seed changes the inputs, not the names.
		two := runSmoke(t, smokeArgs(w.name, "2", "0", dir))
		checkAgainstSpec(t, w.name, two, spec.EndToEnd)

		traced := runSmoke(t, smokeArgs(w.name, "1", "1", dir))
		checkAgainstSpec(t, w.name, traced, spec.PerLayer)
		checkSpans(t, filepath.Join(dir, w.name+"-spans.json"), w.name)
	}

	first, err := readRecords(filepath.Join(dir, "out-0-1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	second, err := readRecords(filepath.Join(dir, "out-0-2.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(workloads) || len(second) != len(workloads) {
		t.Fatalf("-out appended %d and %d records, want %d each", len(first), len(second), len(workloads))
	}
	for i := range first {
		if first[i].InputChecksum == second[i].InputChecksum {
			t.Errorf("%s: seeds 1 and 2 give the same input digest %x", first[i].Workload, first[i].InputChecksum)
		}
		if first[i].GoVersion == "" || first[i].Commit == "" || first[i].NumCPU == 0 || first[i].Nodes == 0 || first[i].SpillFS == "" {
			t.Errorf("record lacks part of its stamp: %+v", first[i])
		}
	}

	// The comparison reads what -out appended; a file judged against
	// itself is nowhere worse.
	var stdout bytes.Buffer
	out := filepath.Join(dir, "out-0-1.jsonl")
	if err := compareFiles(&stdout, specPath, out, out); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			if !regexp.MustCompile(w.name + `\s+` + m.Name + `\s`).MatchString(stdout.String()) {
				t.Errorf("comparison has no row for %s on %s:\n%s", m.Name, w.name, stdout.String())
			}
		}
	}
	if strings.Contains(stdout.String(), "worse") {
		t.Errorf("a file compared with itself reads worse:\n%s", stdout.String())
	}
}

// checkSpans asserts the span file parses, every parent is present, and
// within each rep the children's self times fit inside the root span.
func checkSpans(t *testing.T, path, workload string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []Span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	byID := map[int]Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	self := selfTimes(spans)
	childSelf := map[int]int64{}
	for i, s := range spans {
		if s.Workload != workload || s.Layer == "" || s.Name == "" || s.EndNs < s.StartNs {
			t.Errorf("malformed span %+v", s)
		}
		if s.Parent == 0 {
			continue
		}
		if _, ok := byID[s.Parent]; !ok {
			t.Errorf("span %d names parent %d, which is not in the file", s.ID, s.Parent)
		}
		childSelf[s.Parent] += self[i]
	}
	for id, sum := range childSelf {
		if root := byID[id]; sum > root.EndNs-root.StartNs {
			t.Errorf("children of span %d (%s) have %d ns of self time, the span lasted %d ns", id, root.Name, sum, root.EndNs-root.StartNs)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := func(m float64) side {
		return side{runs: []float64{m * 0.99, m, m * 1.01}, median: m, q1: m * 0.995, q3: m * 1.005}
	}
	noisy := func(m float64) side {
		return side{runs: []float64{m * 0.8, m, m * 1.2}, median: m, q1: m * 0.9, q3: m * 1.1}
	}
	for _, tc := range []struct {
		name        string
		a, b        side
		lowerBetter bool
		want        string
	}{
		{"same", steady(1), steady(1), true, "within-bound"},
		{"slower time", steady(1), steady(1.2), true, "worse"},
		{"faster time", steady(1), steady(0.8), true, "better"},
		{"lower rate", steady(100), steady(80), false, "worse"},
		{"higher rate", steady(100), steady(120), false, "better"},
		{"small drift", steady(1), steady(1.05), true, "within-bound"},
		{"noise hides it", noisy(1), noisy(1.05), true, "unresolved"},
		{"noise but every run wins", noisy(1), noisy(0.5), true, "better"},
	} {
		if _, got := verdict(tc.a, tc.b, tc.lowerBetter, 0.10); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestEventFeedNeverRejects replays the feed past two turnarounds: going
// back over its own events undone must stay valid against the base graph.
func TestEventFeedNeverRejects(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 500, Exponent: 2.2, MinDeg: 3}, 7)
	feed := &eventFeed{events: gen.ChurnEvents(g, 300, 0.5, 7)}
	mt := stream.NewMaintainer(g)
	for i, ev := range feed.next(750) {
		if !mt.Apply(ev) {
			t.Fatalf("event %d (%v %d-%d) rejected", i, ev.Op, ev.U, ev.V)
		}
	}
}
