package dataset

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dkcore/internal/chaos"
)

// registerTestURL points a throwaway registry key at a test server and
// shrinks the retry schedule so flakiness resolves in milliseconds.
func registerTestURL(t *testing.T, key, url string) {
	t.Helper()
	oldURL, hadURL := snapURLs[key]
	snapURLs[key] = url
	oldBackoff := fetchBackoff
	fetchBackoff = time.Millisecond
	t.Cleanup(func() {
		if hadURL {
			snapURLs[key] = oldURL
		} else {
			delete(snapURLs, key)
		}
		fetchBackoff = oldBackoff
	})
	t.Setenv(fetchEnv, "1")
}

// TestFetchSNAPRetriesTransientFailures: a server that sheds the first
// two requests with 503 must not fail the fetch — the retry loop backs
// off and the third attempt lands the file intact.
func TestFetchSNAPRetriesTransientFailures(t *testing.T) {
	const body = "# flaky but eventually served\n0 1\n1 2\n"
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(body))
	}))
	defer srv.Close()
	registerTestURL(t, "flaky-test", srv.URL)

	dir := t.TempDir()
	path, err := FetchSNAP(context.Background(), "flaky-test", dir)
	if err != nil {
		t.Fatalf("fetch did not survive two 503s: %v", err)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3", got)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != body {
		t.Fatalf("cached body mismatch: %q", data)
	}
	// No .part temp residue may survive a retried download.
	parts, _ := filepath.Glob(filepath.Join(dir, "*.part-*"))
	if len(parts) != 0 {
		t.Fatalf("temp residue left behind: %v", parts)
	}
}

// TestFetchSNAPDoesNotRetryPermanentFailures: a 404 is a verdict, not a
// transient condition — exactly one request, immediate error.
func TestFetchSNAPDoesNotRetryPermanentFailures(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.NotFound(w, r)
	}))
	defer srv.Close()
	registerTestURL(t, "gone-test", srv.URL)

	_, err := FetchSNAP(context.Background(), "gone-test", t.TempDir())
	if err == nil {
		t.Fatal("404 fetch succeeded")
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d requests for a 404, want 1", got)
	}
	if !strings.Contains(err.Error(), "404") {
		t.Fatalf("error does not carry the HTTP status: %v", err)
	}
}

// TestFetchSNAPGivesUpAfterAttempts: a server that never recovers must
// produce a structured give-up error after exactly fetchAttempts tries.
func TestFetchSNAPGivesUpAfterAttempts(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "still overloaded", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	registerTestURL(t, "dead-test", srv.URL)

	_, err := FetchSNAP(context.Background(), "dead-test", t.TempDir())
	if err == nil {
		t.Fatal("fetch from a permanently failing server succeeded")
	}
	if got := hits.Load(); got != int32(fetchAttempts) {
		t.Fatalf("server saw %d requests, want %d", got, fetchAttempts)
	}
	if !strings.Contains(err.Error(), "attempts") {
		t.Fatalf("give-up error does not report the attempt budget: %v", err)
	}
}

// TestFetchSNAPHonorsContextDuringBackoff: cancelling the context while
// the retry loop is sleeping must abort promptly with the cancellation,
// not run out the full backoff schedule. A fake clock that is never
// advanced pins the cancel inside the backoff sleep itself: the fetch
// can only return through ctx.
func TestFetchSNAPHonorsContextDuringBackoff(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	registerTestURL(t, "cancel-test", srv.URL)
	clock := chaos.NewFakeClock(time.Unix(0, 0))
	oldClock := fetchClock
	fetchClock = clock
	t.Cleanup(func() { fetchClock = oldClock })

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := FetchSNAP(ctx, "cancel-test", t.TempDir())
		done <- err
	}()
	for clock.Sleepers() == 0 {
		select {
		case err := <-done:
			t.Fatalf("fetch returned before its backoff sleep: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled fetch succeeded")
		}
		if !strings.Contains(err.Error(), context.Canceled.Error()) {
			t.Fatalf("error does not surface the cancellation: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not interrupt the backoff sleep")
	}
}
