package stats

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestOnlineBasics(t *testing.T) {
	var o Online
	if o.N() != 0 || o.Mean() != 0 || o.Min() != 0 || o.Max() != 0 || o.Std() != 0 {
		t.Fatalf("zero Online not all-zero")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		o.Add(x)
	}
	if o.N() != 8 {
		t.Fatalf("N = %d", o.N())
	}
	if math.Abs(o.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", o.Mean())
	}
	if o.Min() != 2 || o.Max() != 9 {
		t.Fatalf("min/max = %v/%v", o.Min(), o.Max())
	}
	// Sample std of this classic set is sqrt(32/7).
	if math.Abs(o.Std()-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Fatalf("std = %v", o.Std())
	}
}

func TestTableRender(t *testing.T) {
	tab := NewTable("name", "n", "t")
	tab.AddRow("alpha", "10", "1.5")
	tab.AddRowf("beta", 2000, 3.25)
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[3], "3.25") {
		t.Fatalf("unexpected render:\n%s", out)
	}
	// All rows align to the same width.
	if len(lines[2]) != len(lines[3]) {
		t.Fatalf("rows unaligned:\n%s", out)
	}
}

func TestFormatCount(t *testing.T) {
	tests := []struct {
		in   int64
		want string
	}{
		{0, "0"}, {999, "999"}, {1000, "1 000"}, {18772, "18 772"},
		{2443408, "2 443 408"}, {100, "100"},
	}
	for _, tt := range tests {
		if got := FormatCount(tt.in); got != tt.want {
			t.Fatalf("FormatCount(%d) = %q, want %q", tt.in, got, tt.want)
		}
	}
}
