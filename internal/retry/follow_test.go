package retry

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFollowerPositionEpochAndRotation drives the loop against a dead
// upstream and a scripted live one: a failed poll rotates and drops
// the position, a rejected record drops it too, and only a poll that
// knows the upstream's epoch carries the replica's position.
func TestFollowerPositionEpochAndRotation(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer dead.Close()

	var mu sync.Mutex
	var queries []string
	script := []string{"bad", "ok"}
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		queries = append(queries, r.URL.RawQuery)
		n := len(queries)
		mu.Unlock()
		w.Header().Set(EpochHeader, "7")
		if n <= len(script) {
			w.Write([]byte(script[n-1]))
			return
		}
		select { // park like a quiet upstream
		case <-time.After(20 * time.Millisecond):
		case <-r.Context().Done():
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer live.Close()

	var errs atomic.Int64
	var current atomic.Value
	var applied atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	f := Follower[string]{
		Path: "/watch",
		Position: func() url.Values {
			return url.Values{"from": {"1"}}
		},
		Decode: func(b []byte) (string, error) { return string(b), nil },
		Apply: func(rec string) error {
			if rec != "ok" {
				return errors.New("rejected")
			}
			applied.Add(1)
			return nil
		},
		Upstreams: []string{dead.URL, live.URL},
		Poll:      time.Second,
		Retry:     time.Millisecond,
		Errors:    &errs,
		Current:   &current,
		Name:      "test",
		Logf:      t.Logf,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(queries)
		mu.Unlock()
		if n >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("live upstream saw %d polls, want 3", n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	<-done
	mu.Lock()
	defer mu.Unlock()

	want := []string{
		"timeout_ms=1000",                // rotated off the dead upstream: no epoch, no position
		"timeout_ms=1000",                // the record was rejected: still unpositioned
		"timeout_ms=1000&epoch=7&from=1", // positioned against epoch 7
	}
	for i, q := range want {
		if queries[i] != q {
			t.Errorf("poll %d: query %q, want %q", i+1, queries[i], q)
		}
	}
	if errs.Load() != 2 || applied.Load() != 1 {
		t.Errorf("errors %d, applied %d; want 2 (dead upstream, rejected record) and 1", errs.Load(), applied.Load())
	}
	if got, _ := current.Load().(string); got != live.URL {
		t.Errorf("current upstream %q, want %q", got, live.URL)
	}
}
