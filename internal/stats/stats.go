// Package stats is internal/bench's rendering toolkit — its only
// importer: online summaries across experiment repetitions and
// fixed-width text tables in the style of the paper's Table 1 and
// Table 2. It stays a package so the paper reproductions do not carry
// column-alignment code.
package stats

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Online accumulates a running summary (Welford's algorithm) without
// storing samples. The zero value is ready to use.
type Online struct {
	n          int
	mean, m2   float64
	minV, maxV float64
}

// Add incorporates one sample.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.minV, o.maxV = x, x
	} else {
		if x < o.minV {
			o.minV = x
		}
		if x > o.maxV {
			o.maxV = x
		}
	}
	delta := x - o.mean
	o.mean += delta / float64(o.n)
	o.m2 += delta * (x - o.mean)
}

// N returns the number of samples.
func (o *Online) N() int { return o.n }

// Mean returns the sample mean, or 0 with no samples.
func (o *Online) Mean() float64 { return o.mean }

// Min returns the smallest sample, or 0 with no samples.
func (o *Online) Min() float64 {
	if o.n == 0 {
		return 0
	}
	return o.minV
}

// Max returns the largest sample, or 0 with no samples.
func (o *Online) Max() float64 {
	if o.n == 0 {
		return 0
	}
	return o.maxV
}

// Std returns the sample standard deviation, or 0 with fewer than two
// samples.
func (o *Online) Std() float64 {
	if o.n < 2 {
		return 0
	}
	return math.Sqrt(o.m2 / float64(o.n-1))
}

// Table renders column-aligned text tables.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends a row; missing cells render empty, extra cells widen the
// table.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// AddRowf appends a row of formatted cells: each argument is rendered
// with %v.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.rows = append(t.rows, row)
}

// Render writes the table with right-aligned numeric-friendly columns.
func (t *Table) Render(w io.Writer) error {
	cols := len(t.headers)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.headers)
	for _, r := range t.rows {
		measure(r)
	}

	var sb strings.Builder
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			sb.WriteString(cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.headers)
	total := 0
	for _, w := range widths {
		total += w
	}
	sb.WriteString(strings.Repeat("-", total+2*(cols-1)))
	sb.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	_, err := io.WriteString(w, sb.String())
	if err != nil {
		return fmt.Errorf("stats: render table: %w", err)
	}
	return nil
}

// FormatCount renders large counts with thousands separators, matching
// the paper's table style (e.g. 18 772).
func FormatCount(n int64) string {
	s := fmt.Sprintf("%d", n)
	if len(s) <= 3 {
		return s
	}
	var sb strings.Builder
	lead := len(s) % 3
	if lead > 0 {
		sb.WriteString(s[:lead])
	}
	for i := lead; i < len(s); i += 3 {
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(s[i : i+3])
	}
	return sb.String()
}
