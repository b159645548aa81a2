package main

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dkcore"
)

func fig2File(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.txt")
	content := "# paper fig 2\n1 2\n2 3\n2 4\n3 4\n3 5\n4 5\n5 6\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// freePort reserves an ephemeral loopback port and releases it for the
// coordinator to bind.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestRunFlagAndFileErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{"bad flag", []string{"-nope"}},
		{"missing file", []string{"-in", filepath.Join(t.TempDir(), "absent.txt")}},
		{"bad listen addr", []string{"-in", fig2File(t), "-listen", "256.256.256.256:0", "-hosts", "1"}},
		{"zero hosts", []string{"-in", fig2File(t), "-hosts", "0", "-listen", "127.0.0.1:0"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tt.args, &out); err == nil {
				t.Fatal("no error")
			}
		})
	}
}

// joinHost runs one in-process host worker against addr. The coordinator
// binds shortly after run() starts, so the host retries its dial until it
// is accepting; the tests assert on the coordinator's outcome.
func joinHost(addr string) {
	dkcore.RunClusterHost(context.Background(), dkcore.HostConfig{
		CoordinatorAddr: addr,
		RetryWait:       5 * time.Second,
	})
}

// TestRunLoopbackRoundTrip drives the coordinator binary's run() against
// two in-process hosts over a loopback TCP port and checks the printed
// coreness.
func TestRunLoopbackRoundTrip(t *testing.T) {
	path := fig2File(t)
	addr := freePort(t)

	done := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		done <- run([]string{"-in", path, "-hosts", "2", "-listen", addr}, &out)
	}()

	for i := 0; i < 2; i++ {
		go joinHost(addr)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator did not finish")
	}

	want := map[string]string{"1": "1", "2": "2", "3": "2", "4": "2", "5": "2", "6": "1"}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(want) {
		t.Fatalf("got %d output lines:\n%s", len(lines), out.String())
	}
	for _, line := range lines {
		fields := strings.Fields(line)
		if len(fields) != 2 || want[fields[0]] != fields[1] {
			t.Fatalf("bad line %q (want node->coreness per %v)", line, want)
		}
	}
}

// TestRunHistogramOutput checks the -histogram shell summary end to end.
func TestRunHistogramOutput(t *testing.T) {
	path := fig2File(t)
	addr := freePort(t)
	done := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		done <- run([]string{"-in", path, "-hosts", "1", "-listen", addr, "-histogram"}, &out)
	}()
	go joinHost(addr)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator did not finish")
	}
	if got := strings.TrimSpace(out.String()); got != "1 2\n2 4" {
		t.Fatalf("histogram = %q, want \"1 2\\n2 4\"", got)
	}
}
