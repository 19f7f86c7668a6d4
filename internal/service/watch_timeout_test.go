package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestViewWatchHugeTimeoutParks is the regression pin for the
// timeout_ms overflow: a value that fits int64 as milliseconds but
// overflows the nanosecond time.Duration used to overflow negative
// before the max clamp, so the deadline timer fired immediately and an
// up-to-date watcher got an instant 204 instead of parking. The fix
// clamps to watchMaxTimeout before converting; on either feed the
// watcher must stay parked and be woken by the next publication.
func TestViewWatchHugeTimeoutParks(t *testing.T) {
	for _, feed := range []string{"view", "replog"} {
		t.Run(feed, func(t *testing.T) {
			s := New(Config{})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			doJSON(t, ts, "POST", "/v1/peers", joinBody(0, 0), http.StatusCreated)

			const huge = "&timeout_ms=922337203685477580"
			var path string
			if feed == "view" {
				cur, _ := watchRecord(t, ts, "")
				path = fmt.Sprintf("/v1/view/watch?seq=%d&pop=%d", cur.Seq, cur.PopVersion) + huge
			} else {
				path = fmt.Sprintf("/v1/replog/watch?epoch=%d&from=%d", s.epoch, s.replLog.LastIndex()) + huge
			}

			done := make(chan int, 1)
			go func() {
				status, _, _ := rawDo(t, ts, "GET", path, "")
				done <- status
			}()

			// With the overflow bug this returned 204 within microseconds.
			select {
			case status := <-done:
				t.Fatalf("huge-timeout watcher answered immediately with %d; deadline overflowed", status)
			case <-time.After(150 * time.Millisecond):
			}

			doJSON(t, ts, "POST", "/v1/peers", joinBody(1, 1), http.StatusCreated)
			select {
			case status := <-done:
				if status != http.StatusOK {
					t.Fatalf("woken watcher: status %d, want 200", status)
				}
			case <-time.After(3 * time.Second):
				t.Fatal("watcher not woken by publication")
			}
		})
	}
}

// TestNewEpochNonZeroAndDistinct pins the epoch source: draws come
// from OS entropy, never zero, and practically never collide — in
// particular two instances created back to back (the case the old
// unseeded global-math/rand source risked making correlated) must not
// share an epoch.
func TestNewEpochNonZeroAndDistinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 64; i++ {
		e := newEpoch()
		if e == 0 {
			t.Fatal("newEpoch returned the reserved zero epoch")
		}
		if seen[e] {
			t.Fatalf("duplicate epoch %#x within 64 draws", e)
		}
		seen[e] = true
	}
	a, b := New(Config{}), New(Config{})
	if a.epoch == 0 || b.epoch == 0 || a.epoch == b.epoch {
		t.Fatalf("server epochs %#x and %#x: want distinct and nonzero", a.epoch, b.epoch)
	}
}
