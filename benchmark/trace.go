package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark's own
// code around the call. The spans of one rep hang under one root span,
// so they share its identifier as ancestor; Parent is 0 for a root.
type Span struct {
	ID       int              `json:"id"`
	Parent   int              `json:"parent"`
	Workload string           `json:"workload"`
	Layer    string           `json:"layer"`
	Name     string           `json:"name"`
	StartNs  int64            `json:"start_ns"`
	EndNs    int64            `json:"end_ns"`
	Counts   map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the workload ends. A nil *tracer
// records nothing, which is how the same driving code runs untraced.
// Spans are opened and closed by the goroutine that drives the run.
type tracer struct {
	workload string
	origin   time.Time
	spans    []Span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// begin opens a span under parent (0 for a root) and returns its ID.
func (tr *tracer) begin(parent int, layer, name string) int {
	if tr == nil {
		return 0
	}
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, Span{ID: id, Parent: parent, Workload: tr.workload, Layer: layer, Name: name})
	tr.spans[id-1].StartNs = int64(time.Since(tr.origin))
	return id
}

// end closes span id, attaching the counts observed at its boundary.
func (tr *tracer) end(id int, counts map[string]int64) {
	if tr == nil {
		return
	}
	tr.spans[id-1].EndNs = int64(time.Since(tr.origin))
	tr.spans[id-1].Counts = counts
}

// in runs fn inside a span and returns how long fn took.
func (tr *tracer) in(parent int, layer, name string, fn func() map[string]int64) time.Duration {
	id := tr.begin(parent, layer, name)
	start := time.Now()
	counts := fn()
	dur := time.Since(start)
	tr.end(id, counts)
	return dur
}

// selfTimes returns each span's self time: its duration minus the part
// of that interval its children cover.
func selfTimes(spans []Span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(spans[k].StartNs, edge), min(spans[k].EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.EndNs - s.StartNs - covered
	}
	return self
}

// printLayerTable prints self time and span count per layer.
func printLayerTable(w io.Writer, spans []Span) {
	type row struct {
		layer string
		self  int64
		spans int
	}
	byLayer := map[string]*row{}
	var total int64
	self := selfTimes(spans)
	for i, s := range spans {
		r := byLayer[s.Layer]
		if r == nil {
			r = &row{layer: s.Layer}
			byLayer[s.Layer] = r
		}
		r.self += self[i]
		r.spans++
		total += self[i]
	}
	rows := make([]*row, 0, len(byLayer))
	for _, r := range byLayer {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].self > rows[b].self })
	fmt.Fprintf(w, "%-12s %12s %8s %8s\n", "layer", "self_s", "share", "spans")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %12.6f %7.1f%% %8d\n", r.layer, float64(r.self)/1e9, 100*ratio(float64(r.self), float64(total)), r.spans)
	}
}

func writeSpans(path string, spans []Span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
