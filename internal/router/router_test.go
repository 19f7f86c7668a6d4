package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/service"
)

// do drives a handler directly and returns status and body bytes.
func do(h http.Handler, method, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes()
}

func joinBodyJSON(cat, doc int) []byte {
	term := func(i int) string { return fmt.Sprintf("c%d-t%d", cat, (doc+i)%5) }
	b, _ := json.Marshal(map[string]any{
		"items": [][]string{{term(0), term(1)}, {term(1), term(2)}},
		"queries": []map[string]any{
			{"terms": []string{term(0)}, "count": 3},
			{"terms": []string{term(2)}, "count": 2},
		},
	})
	return b
}

// randQuery builds a query body over the joinBodyJSON vocabulary,
// occasionally with an unknown term.
func randQuery(rng *rand.Rand) []byte {
	n := 1 + rng.Intn(3)
	terms := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(8) == 0 {
			terms = append(terms, "no-such-term")
		} else {
			terms = append(terms, fmt.Sprintf("c%d-t%d", rng.Intn(3), rng.Intn(5)))
		}
	}
	b, _ := json.Marshal(map[string]any{"terms": terms})
	return b
}

// serviceSeq reads the daemon's current view sequence from its stats.
func serviceSeq(t *testing.T, h http.Handler) uint64 {
	t.Helper()
	return readStats[api.DaemonStats](t, h).ViewSeq
}

// newPair boots a daemon plus one synchronized router over real HTTP.
func newPair(t *testing.T) (*service.Server, http.Handler, *Router) {
	t.Helper()
	s := service.New(service.Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	rt := New(Config{
		Upstream:    ts.URL,
		PollTimeout: 200 * time.Millisecond,
		RetryAfter:  5 * time.Millisecond,
	})
	rt.Start()
	t.Cleanup(rt.Shutdown)
	return s, s.Handler(), rt
}

// TestRouterNotReady pins the unsynchronized contract: 503, a
// Retry-After header, and the not_ready error code.
func TestRouterNotReady(t *testing.T) {
	rt := New(Config{Upstream: "http://127.0.0.1:1"}) // never started
	h := rt.Handler()
	for _, path := range []string{"/v1/query", "/v1/query/batch"} {
		req := httptest.NewRequest("POST", path, bytes.NewReader([]byte(`{"terms":["x"]}`)))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d, want 503", path, w.Code)
		}
		if w.Header().Get("Retry-After") == "" {
			t.Fatalf("%s: missing Retry-After", path)
		}
		var env struct {
			Error struct{ Code string } `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error.Code != "not_ready" {
			t.Fatalf("%s: body %s", path, w.Body.Bytes())
		}
	}
}

// TestRouterByteIdenticalProperty is the tier's correctness property:
// across a randomized schedule of joins, leaves, maintenance periods
// and compactions, a router that has caught up to the daemon's
// published sequence answers every query and batch byte-identically
// to the authoritative engine — and gets there on delta records alone
// after its first contact, joins and leaves included, ending in the
// state a router that resynchronizes from scratch reaches.
func TestRouterByteIdenticalProperty(t *testing.T) {
	_, sh, rt := newPair(t)
	rh := rt.Handler()
	rng := rand.New(rand.NewSource(42))

	var live []int
	join := func() {
		code, body := do(sh, "POST", "/v1/peers", joinBodyJSON(rng.Intn(3), rng.Intn(9)))
		if code != http.StatusCreated {
			t.Fatalf("join: %d %s", code, body)
		}
		var jr struct{ ID int }
		if err := json.Unmarshal(body, &jr); err != nil {
			t.Fatal(err)
		}
		live = append(live, jr.ID)
	}
	for i := 0; i < 8; i++ {
		join()
	}

	compare := func(step int) {
		seq := serviceSeq(t, sh)
		if !rt.WaitSynced(seq, 5*time.Second) {
			t.Fatalf("step %d: router stuck at seq %d, daemon at %d (sync errors: %d)",
				step, rt.Seq(), seq, rt.SyncErrors())
		}
		for q := 0; q < 6; q++ {
			body := randQuery(rng)
			sc, sb := do(sh, "POST", "/v1/query", body)
			rc, rb := do(rh, "POST", "/v1/query", body)
			if sc != rc || !bytes.Equal(sb, rb) {
				t.Fatalf("step %d: query %s diverged:\n  daemon %d %s\n  router %d %s", step, body, sc, sb, rc, rb)
			}
		}
		batch := []byte(fmt.Sprintf(`{"queries":[%s,%s,%s]}`, randQuery(rng), randQuery(rng), randQuery(rng)))
		sc, sb := do(sh, "POST", "/v1/query/batch", batch)
		rc, rb := do(rh, "POST", "/v1/query/batch", batch)
		if sc != rc || !bytes.Equal(sb, rb) {
			t.Fatalf("step %d: batch diverged:\n  daemon %d %s\n  router %d %s", step, sc, sb, rc, rb)
		}
	}
	compare(-1)

	for step := 0; step < 60; step++ {
		switch r := rng.Intn(10); {
		case r < 3:
			join()
		case r < 5 && len(live) > 4:
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			if code, body := do(sh, "DELETE", fmt.Sprintf("/v1/peers/%d", id), nil); code != http.StatusOK {
				t.Fatalf("leave %d: %d %s", id, code, body)
			}
		case r < 8:
			do(sh, "POST", "/v1/reform", nil)
		default:
			do(sh, "POST", "/v1/compact", nil)
		}
		compare(step)
	}

	if rt.FullSyncs() != 1 || rt.DeltaSyncs() == 0 || rt.SyncErrors() != 0 {
		t.Fatalf("router took %d full and %d delta syncs with %d errors; want first contact only, then deltas",
			rt.FullSyncs(), rt.DeltaSyncs(), rt.SyncErrors())
	}

	// A second router, synchronized now by one full record, is the
	// reference for what all those deltas should have added up to.
	fresh := New(Config{Upstream: rt.cfg.Upstream, PollTimeout: 200 * time.Millisecond, RetryAfter: 5 * time.Millisecond})
	fresh.Start()
	t.Cleanup(fresh.Shutdown)
	if !fresh.WaitSynced(serviceSeq(t, sh), 5*time.Second) {
		t.Fatal("fresh router never synced")
	}
	position := func(r *Router) string {
		v := r.view.Load()
		return fmt.Sprintf("seq %d pop %d live %d slots %d clusters %d terms %d", v.seq, v.routing.PopVersion(),
			v.routing.Live(), v.routing.Slots(), v.routing.NumClusters(), v.terms.Len())
	}
	if a, b := position(rt), position(fresh); a != b {
		t.Fatalf("delta-fed router at %s, fully resynced router at %s", a, b)
	}
	fh := fresh.Handler()
	for q := 0; q < 40; q++ {
		body := randQuery(rng)
		rc, rb := do(rh, "POST", "/v1/query", body)
		fc, fb := do(fh, "POST", "/v1/query", body)
		if rc != fc || !bytes.Equal(rb, fb) {
			t.Fatalf("query %s: delta-fed router %d %s, fully resynced router %d %s", body, rc, rb, fc, fb)
		}
	}
}

// TestRouterDeltaOnPureRelocation pins, at the router level, that a
// relocation-only maintenance period advances the replica via delta
// records without a full resync.
func TestRouterDeltaOnPureRelocation(t *testing.T) {
	_, sh, rt := newPair(t)
	for i := 0; i < 12; i++ {
		if code, body := do(sh, "POST", "/v1/peers", joinBodyJSON(i%3, i/3)); code != http.StatusCreated {
			t.Fatalf("join: %d %s", code, body)
		}
	}
	if !rt.WaitSynced(serviceSeq(t, sh), 5*time.Second) {
		t.Fatal("router never synced")
	}
	fullBefore, deltaBefore := rt.FullSyncs(), rt.DeltaSyncs()

	code, body := do(sh, "POST", "/v1/reform", nil)
	if code != http.StatusOK {
		t.Fatalf("reform: %d %s", code, body)
	}
	var rr struct{ Moves int }
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Moves == 0 {
		t.Fatal("reform granted no moves; fixture no longer exercises relocation")
	}
	if !rt.WaitSynced(serviceSeq(t, sh), 5*time.Second) {
		t.Fatal("router did not catch up after reform")
	}
	if rt.FullSyncs() != fullBefore {
		t.Fatalf("pure-relocation reform forced %d full resync(s)", rt.FullSyncs()-fullBefore)
	}
	if rt.DeltaSyncs() == deltaBefore {
		t.Fatal("pure-relocation reform applied no delta records")
	}
}

// TestRouterSoak hammers the pair under -race: churn, maintenance and
// router queries all concurrent, then a final convergence check. The
// race detector owns the interleavings; the final comparison owns the
// data.
func TestRouterSoak(t *testing.T) {
	_, sh, rt := newPair(t)
	rh := rt.Handler()
	for i := 0; i < 10; i++ {
		do(sh, "POST", "/v1/peers", joinBodyJSON(i%3, i/3))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var routerErrors atomic.Int64
	wg.Add(3)
	go func() { // churn
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		var ids []int
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch rng.Intn(6) {
			case 0:
				_, body := do(sh, "POST", "/v1/peers", joinBodyJSON(rng.Intn(3), i%9))
				var jr struct{ ID int }
				if json.Unmarshal(body, &jr) == nil {
					ids = append(ids, jr.ID)
				}
			case 1:
				if len(ids) > 0 {
					k := rng.Intn(len(ids))
					do(sh, "DELETE", fmt.Sprintf("/v1/peers/%d", ids[k]), nil)
					ids = append(ids[:k], ids[k+1:]...)
				}
			case 2:
				do(sh, "POST", "/v1/reform", nil)
			default:
				do(sh, "POST", "/v1/compact", nil)
			}
		}
	}()
	for g := 0; g < 2; g++ { // router query load
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, _ := do(rh, "POST", "/v1/query", randQuery(rng))
				if code != http.StatusOK && code != http.StatusServiceUnavailable {
					routerErrors.Add(1)
				}
				do(rh, "GET", "/v1/stats", nil)
			}
		}(int64(g))
	}
	time.Sleep(600 * time.Millisecond)
	close(stop)
	wg.Wait()
	if n := routerErrors.Load(); n > 0 {
		t.Fatalf("%d unexpected router statuses under load", n)
	}

	// Quiesced: the router must converge and agree byte-for-byte.
	seq := serviceSeq(t, sh)
	if !rt.WaitSynced(seq, 5*time.Second) {
		t.Fatalf("router stuck at %d, daemon at %d", rt.Seq(), seq)
	}
	rng := rand.New(rand.NewSource(99))
	for q := 0; q < 20; q++ {
		body := randQuery(rng)
		sc, sb := do(sh, "POST", "/v1/query", body)
		rc, rb := do(rh, "POST", "/v1/query", body)
		if sc != rc || !bytes.Equal(sb, rb) {
			t.Fatalf("post-soak divergence on %s:\n  daemon %d %s\n  router %d %s", body, sc, sb, rc, rb)
		}
	}
}
