package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/replog"
)

// waitUntil polls cond every 2ms until it holds, failing the test at
// the deadline.
func waitUntil(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// caughtUp reports whether the follower has applied everything the
// leader has logged.
func caughtUp(leader, follower *Server) bool {
	return follower.replSynced.Load() &&
		follower.replLog.LastIndex() == leader.replLog.LastIndex()
}

func marshalSnapshot(t *testing.T, s *Server) []byte {
	t.Helper()
	b, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// liveCounters reads the counters every node advances alike for the
// same log entries: joins, leaves, reforms, rounds, moves, compactions
// and compacted queries.
func liveCounters(s *Server) [7]int64 {
	return [7]int64{s.joins.Load(), s.leaves.Load(), s.reforms.Load(), s.rounds.Load(),
		s.moves.Load(), s.compactions.Load(), s.compacted.Load()}
}

// applyEntry replays e on f the way the follow loop does.
func applyEntry(f *Server, e replog.Entry) error {
	defer f.lockMutation()()
	return f.applyEntryLocked(e)
}

// TestFollowerReplicatesByteIdentical is the replication tier's core
// contract: a follower that joined mid-history (snapshot catch-up over
// a state with vacated slots) and then rode the entry feed holds
// byte-identical overlay state — snapshot, free-slot stack, published
// view, and query answers — after joins, leaves, a maintenance period
// and a compaction on the leader, and its counters moved over that
// live history exactly as the leader's did.
func TestFollowerReplicatesByteIdentical(t *testing.T) {
	s1 := New(Config{StepBudget: 1})
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()
	defer s1.BeginShutdown()

	// Pre-history the catch-up document must carry: peers across three
	// categories, two leaves punching holes in the slot space.
	for i := 0; i < 9; i++ {
		doJSON(t, ts1, "POST", "/v1/peers", joinBody(i%3, i), http.StatusCreated)
	}
	doJSON(t, ts1, "DELETE", "/v1/peers/2", nil, http.StatusOK)
	doJSON(t, ts1, "DELETE", "/v1/peers/5", nil, http.StatusOK)

	s2 := New(Config{Join: []string{ts1.URL}, StepBudget: 1})
	s2.Start()
	defer s2.Shutdown()
	waitUntil(t, "follower catch-up", 10*time.Second, func() bool { return caughtUp(s1, s2) })
	base1, base2 := liveCounters(s1), liveCounters(s2)

	// Live history: joins that must reuse the leader's vacancy order,
	// more churn, a maintenance period, a compaction.
	for i := 0; i < 6; i++ {
		doJSON(t, ts1, "POST", "/v1/peers", joinBody(i%3, i+9), http.StatusCreated)
	}
	doJSON(t, ts1, "DELETE", "/v1/peers/7", nil, http.StatusOK)
	doJSON(t, ts1, "POST", "/v1/reform", nil, http.StatusOK)
	doJSON(t, ts1, "POST", "/v1/compact", nil, http.StatusOK)
	waitUntil(t, "follower replay", 10*time.Second, func() bool { return caughtUp(s1, s2) })

	if a, b := marshalSnapshot(t, s1), marshalSnapshot(t, s2); !bytes.Equal(a, b) {
		t.Fatalf("snapshots diverge:\nleader   %s\nfollower %s", a, b)
	}
	if a, b := s1.eng.FreeSlots(), s2.eng.FreeSlots(); !reflect.DeepEqual(a, b) {
		t.Fatalf("free-slot stacks diverge: leader %v, follower %v", a, b)
	}
	d1, d2 := liveCounters(s1), liveCounters(s2)
	for i := range d1 {
		d1[i] -= base1[i]
		d2[i] -= base2[i]
	}
	if d1 != d2 {
		t.Fatalf("counter deltas over the live history diverge: leader %v, follower %v", d1, d2)
	}

	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	recA, _ := watchRecord(t, ts1, "")
	recB, _ := watchRecord(t, ts2, "")
	if !reflect.DeepEqual(recA.View, recB.View) {
		t.Fatal("published routing views diverge")
	}
	if !reflect.DeepEqual(recA.Terms, recB.Terms) {
		t.Fatal("published term tables diverge")
	}
	for cat := 0; cat < 3; cat++ {
		for d := 0; d < 5; d++ {
			body := fmt.Sprintf(`{"terms":["c%d-t%d"]}`, cat, d)
			_, a, _ := rawDo(t, ts1, "POST", "/v1/query", body)
			_, b, _ := rawDo(t, ts2, "POST", "/v1/query", body)
			if !bytes.Equal(a, b) {
				t.Fatalf("query %s diverges: %s vs %s", body, a, b)
			}
		}
	}
}

// TestAbortedPeriodCountsNothing pins the counting rule every node
// shares: reforms, rounds and moves advance only at a period_end that
// is not aborted. A follower replays period_start and an aborted
// period_end, then is promoted with another period open; neither the
// replay nor the close Promote logs may count.
func TestAbortedPeriodCountsNothing(t *testing.T) {
	f := New(Config{Join: []string{"http://invalid.invalid"}})
	defer f.Shutdown()
	leader := replog.NewLog()
	for _, e := range []replog.Entry{
		leader.Next(1, replog.KindPeriodStart, nil),
		leader.Next(1, replog.KindPeriodEnd, replog.EncodeOp(replog.PeriodEndOp{Aborted: true})),
		leader.Next(1, replog.KindPeriodStart, nil),
	} {
		if err := applyEntry(f, e); err != nil {
			t.Fatalf("replay entry %d: %v", e.Index, err)
		}
	}
	if _, err := f.Promote("abort"); err != nil {
		t.Fatal(err)
	}
	if f.replOpenPeriod.Load() {
		t.Fatal("Promote left the replicated period open")
	}
	if got := liveCounters(f); got != [7]int64{} {
		t.Fatalf("counters %v after two aborted periods, want all zero", got)
	}
}

// TestReplayRejectsMalformedEntries replays entries a follower cannot
// apply over a one-peer state. Each must come back as a divergence
// error, never a panic: entries arrive from the network.
func TestReplayRejectsMalformedEntries(t *testing.T) {
	for _, c := range []struct {
		name string
		kind replog.Kind
		op   any
	}{
		{"join with an empty query", replog.KindJoin, replog.JoinOp{Queries: []replog.QueryCount{{Count: 1}}}},
		{"join with a zero count", replog.KindJoin, replog.JoinOp{Queries: []replog.QueryCount{{Terms: []string{"a"}}}}},
		{"leave of a slot out of range", replog.KindLeave, replog.LeaveOp{Slot: 1}},
		{"grant of a slot out of range", replog.KindGrants, replog.GrantsOp{Moves: []replog.Grant{{Slot: -1}}}},
		{"grant to a cluster past the slots", replog.KindGrants, replog.GrantsOp{Moves: []replog.Grant{{Slot: 0, To: 1}}}},
		{"grant to a negative cluster", replog.KindGrants, replog.GrantsOp{Moves: []replog.Grant{{Slot: 0, To: -2}}}},
		{"unknown kind", replog.Kind(99), nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := New(Config{Join: []string{"http://invalid.invalid"}})
			leader := replog.NewLog()
			var data []byte
			if c.op != nil {
				data = replog.EncodeOp(c.op)
			}
			for i, e := range []replog.Entry{
				leader.Next(1, replog.KindJoin, replog.EncodeOp(replog.JoinOp{Items: [][]string{{"a"}}})),
				leader.Next(1, c.kind, data),
			} {
				if err := applyEntry(f, e); (err == nil) != (i == 0) {
					t.Fatalf("entry %d (%s): error %v", e.Index, e.Kind, err)
				}
			}
		})
	}
}

// TestFollowerResyncsAfterLeaderRestart is the follower twin of the
// router's restart property: when the leader behind the follower's URL
// restarts from its own snapshot (fresh epoch, log numbering its own),
// the follower installs a second catch-up, holds the new leader's
// state byte for byte, keeps replaying its entries, and does not spin
// in an error loop.
func TestFollowerResyncsAfterLeaderRestart(t *testing.T) {
	s1 := New(Config{})
	var cur atomic.Value // http.Handler
	cur.Store(s1.Handler())
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer front.Close()
	for i := 0; i < 6; i++ {
		doJSON(t, front, "POST", "/v1/peers", joinBody(i%3, i), http.StatusCreated)
	}
	doJSON(t, front, "DELETE", "/v1/peers/1", nil, http.StatusOK)

	f := New(Config{Join: []string{front.URL}})
	f.Start()
	defer f.Shutdown()
	waitUntil(t, "follower catch-up", 10*time.Second, func() bool { return caughtUp(s1, f) })
	if n := f.catchupsInstalled.Load(); n != 1 {
		t.Fatalf("catch-ups installed %d, want 1", n)
	}

	s2, err := NewFromSnapshot(Config{}, s1.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.BeginShutdown()
	cur.Store(s2.Handler())
	s1.BeginShutdown() // wakes the follower's parked long-poll with a 204

	waitUntil(t, "second catch-up", 10*time.Second, func() bool {
		return f.catchupsInstalled.Load() == 2 && caughtUp(s2, f)
	})
	doJSON(t, front, "POST", "/v1/peers", joinBody(1, 9), http.StatusCreated)
	waitUntil(t, "post-restart replay", 10*time.Second, func() bool { return caughtUp(s2, f) })
	if a, b := marshalSnapshot(t, s2), marshalSnapshot(t, f); !bytes.Equal(a, b) {
		t.Fatalf("snapshots diverge after the restart:\nleader   %s\nfollower %s", a, b)
	}

	// No error loop: the follower settles into quiet long-polls.
	errs := f.replErrors.Load()
	time.Sleep(300 * time.Millisecond)
	if n := f.replErrors.Load(); n != errs || f.catchupsInstalled.Load() != 2 {
		t.Fatalf("after the restart: sync errors %d -> %d, catch-ups %d; want no new errors and 2 catch-ups",
			errs, n, f.catchupsInstalled.Load())
	}
}

// TestFollowerControlPlane pins the follower's HTTP contract: data
// plane 503 not_ready before the first catch-up, control plane 503
// not_leader with no known leader, 307 to the leader once known (and
// a redirect-following client lands the mutation on the leader), and
// 409 not_leader from POST /v1/promote on a node already leading.
func TestFollowerControlPlane(t *testing.T) {
	s1 := New(Config{})
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()
	defer s1.BeginShutdown()
	doJSON(t, ts1, "POST", "/v1/peers", joinBody(0, 0), http.StatusCreated)

	// An unstarted follower: no leader known, nothing synced.
	cold := New(Config{Join: []string{ts1.URL}})
	tsCold := httptest.NewServer(cold.Handler())
	defer tsCold.Close()
	status, body, _ := rawDo(t, tsCold, "POST", "/v1/query", `{"terms":["c0-t0"]}`)
	if status != http.StatusServiceUnavailable || !strings.Contains(string(body), "not_ready") {
		t.Fatalf("cold follower query: %d %s, want 503 not_ready", status, body)
	}
	status, body, _ = rawDo(t, tsCold, "POST", "/v1/peers", `{"items":[["x"]],"queries":[]}`)
	if status != http.StatusServiceUnavailable || !strings.Contains(string(body), "not_leader") {
		t.Fatalf("cold follower join: %d %s, want 503 not_leader", status, body)
	}

	s2 := New(Config{Join: []string{ts1.URL}})
	s2.Start()
	defer s2.Shutdown()
	waitUntil(t, "follower synced", 10*time.Second, func() bool { return caughtUp(s1, s2) })
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	// The raw redirect: 307 with a Location pointing at the leader.
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	join, _ := json.Marshal(joinBody(1, 1))
	req, _ := http.NewRequest("POST", ts2.URL+"/v1/peers", bytes.NewReader(join))
	resp, err := noFollow.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("follower join: status %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != ts1.URL+"/v1/peers" {
		t.Fatalf("redirect location %q, want %q", loc, ts1.URL+"/v1/peers")
	}

	// A default client follows it and the mutation replicates back.
	doJSON(t, ts2, "POST", "/v1/peers", joinBody(2, 2), http.StatusCreated)
	waitUntil(t, "redirected join replicated", 10*time.Second, func() bool {
		return caughtUp(s1, s2)
	})
	if a, b := marshalSnapshot(t, s1), marshalSnapshot(t, s2); !bytes.Equal(a, b) {
		t.Fatal("snapshots diverge after redirected join")
	}

	// Promoting the leader is a conflict.
	doJSON(t, ts1, "POST", "/v1/promote", nil, http.StatusConflict)
}

// TestWatchShutdownRegression pins the long-poll shutdown fix: a
// watcher parked on either feed gets its 204 within a second of
// BeginShutdown instead of sleeping out its full timeout.
func TestWatchShutdownRegression(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	doJSON(t, ts, "POST", "/v1/peers", joinBody(0, 0), http.StatusCreated)
	rec, _ := watchRecord(t, ts, "")

	paths := []string{
		"/v1/view/watch?timeout_ms=30000&seq=" + strconv.FormatUint(rec.Seq, 10) +
			"&pop=" + strconv.FormatUint(rec.PopVersion, 10),
		"/v1/replog/watch?timeout_ms=30000&epoch=" + strconv.FormatUint(s.epoch, 10) +
			"&from=" + strconv.FormatUint(s.replLog.LastIndex(), 10),
	}
	type result struct {
		path   string
		status int
		err    error
	}
	got := make(chan result, len(paths))
	for _, p := range paths {
		go func(p string) {
			resp, err := ts.Client().Get(ts.URL + p)
			if err != nil {
				got <- result{p, 0, err}
				return
			}
			resp.Body.Close()
			got <- result{p, resp.StatusCode, nil}
		}(p)
	}
	time.Sleep(100 * time.Millisecond) // let both watchers park
	start := time.Now()
	s.BeginShutdown()
	for range paths {
		select {
		case r := <-got:
			if r.err != nil || r.status != http.StatusNoContent {
				t.Fatalf("%s: status %d, err %v, want 204", r.path, r.status, r.err)
			}
		case <-time.After(time.Second):
			t.Fatal("parked watcher not released within 1s of BeginShutdown")
		}
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("watcher release took %v, want <1s", el)
	}
}

// TestFailoverConvergenceProperty pins the promotion contract: cut the
// leader's replicated log at any prefix — before, inside, or after a
// maintenance period — hand the prefix to two fresh followers, promote
// one in each mode, and after one full maintenance period both hold
// byte-identical snapshots and bit-identical costs. "resume" and
// "abort" differ only in when that period runs.
func TestFailoverConvergenceProperty(t *testing.T) {
	s1 := New(Config{StepBudget: 1})
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()
	defer s1.BeginShutdown()
	for i := 0; i < 12; i++ {
		doJSON(t, ts1, "POST", "/v1/peers", joinBody(i%3, i), http.StatusCreated)
	}
	doJSON(t, ts1, "DELETE", "/v1/peers/4", nil, http.StatusOK)
	doJSON(t, ts1, "POST", "/v1/reform", nil, http.StatusOK)
	doJSON(t, ts1, "POST", "/v1/peers", joinBody(1, 20), http.StatusCreated)

	entries, ok := s1.replLog.Since(0, 0)
	if !ok || len(entries) == 0 {
		t.Fatalf("leader log capture failed (ok %v, %d entries)", ok, len(entries))
	}
	// Locate the maintenance period so the cut sample straddles it.
	pstart, pend := -1, -1
	for i, e := range entries {
		switch e.Kind {
		case replog.KindPeriodStart:
			pstart = i
		case replog.KindPeriodEnd:
			pend = i
		}
	}
	if pstart < 0 || pend <= pstart {
		t.Fatalf("no maintenance period in log (start %d, end %d)", pstart, pend)
	}
	cuts := map[int]bool{
		pstart:                       true, // period opened, no grants yet
		pstart + 1 + (pend-pstart)/2: true, // mid-grants
		pend:                         true, // period closed
		len(entries):                 true, // everything
	}
	if pstart > 0 {
		cuts[pstart-1] = true // pre-period
	}

	newFollower := func(prefix int) *Server {
		f := New(Config{Join: []string{"http://invalid.invalid"}, StepBudget: 1})
		for _, e := range entries[:prefix] {
			if err := applyEntry(f, e); err != nil {
				t.Fatalf("replay entry %d: %v", e.Index, err)
			}
		}
		return f
	}

	for cut := range cuts {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			resume, abort := newFollower(cut), newFollower(cut)
			base := resume.reforms.Load()
			if _, err := resume.Promote("resume"); err != nil {
				t.Fatal(err)
			}
			waitUntil(t, "resumed period", 10*time.Second, func() bool {
				return resume.reforms.Load() > base && !resume.replOpenPeriod.Load()
			})
			if _, err := abort.Promote("abort"); err != nil {
				t.Fatal(err)
			}
			abort.Reform() // the tick the abort mode waits for

			if a, b := marshalSnapshot(t, resume), marshalSnapshot(t, abort); !bytes.Equal(a, b) {
				t.Fatalf("modes diverge at cut %d:\nresume %s\nabort  %s", cut, a, b)
			}
			va, vb := resume.loadView(), abort.loadView()
			if va.g.SCost != vb.g.SCost || va.g.WCost != vb.g.WCost {
				t.Fatalf("costs diverge at cut %d: resume (%v,%v) abort (%v,%v)",
					cut, va.g.SCost, va.g.WCost, vb.g.SCost, vb.g.WCost)
			}
			resume.Shutdown()
			abort.Shutdown()
		})
	}
}

// TestResumedPeriodLogsConvergence promotes followers holding twelve
// unclustered peers in resume mode and reads the period's log line: a
// period capped by MaxRounds 1 stops with moves still requested and
// says converged=false; uncapped, the same period says converged=true.
func TestResumedPeriodLogsConvergence(t *testing.T) {
	s1 := New(Config{})
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()
	defer s1.BeginShutdown()
	for i := 0; i < 12; i++ {
		doJSON(t, ts1, "POST", "/v1/peers", joinBody(i%3, i), http.StatusCreated)
	}
	entries, ok := s1.replLog.Since(0, 0)
	if !ok {
		t.Fatal("leader log capture failed")
	}
	for _, tc := range []struct {
		maxRounds int
		want      []string
	}{
		{1, []string{"resumed maintenance: 1 rounds", "converged=false", "final SCost"}},
		{0, []string{"converged=true", "final SCost"}},
	} {
		var mu sync.Mutex
		var resumed string
		f := New(Config{Join: []string{"http://invalid.invalid"}, MaxRounds: tc.maxRounds,
			Logf: func(format string, args ...any) {
				if line := fmt.Sprintf(format, args...); strings.Contains(line, "resumed maintenance") {
					mu.Lock()
					resumed = line
					mu.Unlock()
				}
			}})
		for _, e := range entries {
			if err := applyEntry(f, e); err != nil {
				t.Fatalf("replay entry %d: %v", e.Index, err)
			}
		}
		if _, err := f.Promote("resume"); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "the resumed period's log line", 10*time.Second, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return resumed != ""
		})
		f.Shutdown()
		for _, want := range tc.want {
			if !strings.Contains(resumed, want) {
				t.Fatalf("MaxRounds %d: logged %q, want %q in it", tc.maxRounds, resumed, want)
			}
		}
	}
}
