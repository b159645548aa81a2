package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fig2File writes the paper's §3.1.1 example graph to a temp file using
// its original 1-based labels.
func fig2File(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.txt")
	content := "# paper fig 2\n1 2\n2 3\n2 4\n3 4\n3 5\n4 5\n5 6\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunModes(t *testing.T) {
	path := fig2File(t)
	want := map[string]string{
		"1": "1", "2": "2", "3": "2", "4": "2", "5": "2", "6": "1",
	}
	for _, mode := range []string{"seq", "sequential", "one2one", "one2many", "live", "live-epidemic", "parallel", "cluster"} {
		t.Run(mode, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(context.Background(), []string{"-in", path, "-mode", mode}, &out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if len(lines) != 6 {
				t.Fatalf("got %d lines:\n%s", len(lines), out.String())
			}
			for _, line := range lines {
				fields := strings.Fields(line)
				if len(fields) != 2 {
					t.Fatalf("bad line %q", line)
				}
				if want[fields[0]] != fields[1] {
					t.Fatalf("node %s: coreness %s, want %s", fields[0], fields[1], want[fields[0]])
				}
			}
		})
	}
}

func TestRunHistogram(t *testing.T) {
	path := fig2File(t)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", path, "-histogram"}, &out); err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSpace(out.String())
	// Shells: two nodes of coreness 1, four of coreness 2.
	if got != "1 2\n2 4" {
		t.Fatalf("histogram = %q", got)
	}
}

func TestRunErrors(t *testing.T) {
	path := fig2File(t)
	malformed := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(malformed, []byte("1 2\nfoo bar\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	negative := filepath.Join(t.TempDir(), "neg.txt")
	if err := os.WriteFile(negative, []byte("1 2\n3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		args []string
	}{
		{"unknown mode", []string{"-in", path, "-mode", "nope"}},
		{"unknown flag", []string{"-nope"}},
		{"missing file", []string{"-in", filepath.Join(t.TempDir(), "absent.txt")}},
		{"input is a directory", []string{"-in", t.TempDir()}},
		{"malformed edge line", []string{"-in", malformed}},
		{"truncated edge line", []string{"-in", negative}},
		{"bad hosts", []string{"-in", path, "-mode", "one2many", "-hosts", "0"}},
		{"bad workers", []string{"-in", path, "-mode", "parallel", "-workers", "-3"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(context.Background(), tt.args, &out); err == nil {
				t.Fatalf("no error")
			}
		})
	}
}

// TestRunParallelStats exercises the -stats sidecar output of the
// parallel mode against the fig-2 graph.
func TestRunParallelStats(t *testing.T) {
	path := fig2File(t)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", path, "-mode", "parallel", "-workers", "2", "-stats"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := len(strings.Split(strings.TrimSpace(out.String()), "\n")); got != 6 {
		t.Fatalf("got %d output lines, want 6", got)
	}
}

// TestRunCancelledContext verifies the CLI surfaces context cancellation
// instead of computing a result.
func TestRunCancelledContext(t *testing.T) {
	path := fig2File(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	if err := run(ctx, []string{"-in", path, "-mode", "one2one"}, &out); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
