package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/replog"
	"repro/internal/stats"
)

// do drives the handler directly (no network) and returns status +
// body — the cheap path the concurrency tests hammer.
func do(h http.Handler, method, path string, body any) (int, []byte) {
	var b []byte
	if body != nil {
		var err error
		if b, err = json.Marshal(body); err != nil {
			panic(err)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(b)))
	return rec.Code, rec.Body.Bytes()
}

// checkCoherent asserts a query answer is internally consistent: the
// per-cluster results sum to the total, every hit names a non-empty
// cluster, and recall fractions sum to 1 when anything matched. A
// torn (half-published) view would violate these.
func checkCoherent(t *testing.T, body []byte) {
	t.Helper()
	var resp queryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad query response %s: %v", body, err)
	}
	sum, recall := 0, 0.0
	for _, h := range resp.Clusters {
		if h.Results <= 0 || h.Size <= 0 {
			t.Fatalf("incoherent hit %+v in %s", h, body)
		}
		sum += h.Results
		recall += h.Recall
	}
	if sum != resp.Total {
		t.Fatalf("hits sum to %d, total %d: %s", sum, resp.Total, body)
	}
	if resp.Total > 0 && math.Abs(recall-1) > 1e-9 {
		t.Fatalf("recall sums to %g: %s", recall, body)
	}
}

// TestConcurrentServingUnderChurn is the race test: query, batch and
// stats readers hammer the daemon while joins, leaves, maintenance
// periods and compactions cycle on the mutation path. Run under
// -race in CI; the readers additionally assert every answer is
// coherent (from exactly one published view).
func TestConcurrentServingUnderChurn(t *testing.T) {
	s := New(Config{CompactMinQueries: 1, CompactDeadRatio: -1})
	h := s.Handler()
	for i := 0; i < 12; i++ {
		if code, body := do(h, "POST", "/v1/peers", joinBody(i%3, i/3)); code != http.StatusCreated {
			t.Fatalf("seed join: %d %s", code, body)
		}
	}

	const readers = 6
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(1000 + r))
			term := func() string { return fmt.Sprintf("c%d-t%d", rng.Intn(3), rng.Intn(5)) }
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 3 {
				case 0:
					code, body := do(h, "POST", "/v1/query", queryRequest{Terms: []string{term()}})
					if code != http.StatusOK {
						t.Errorf("query: %d %s", code, body)
						return
					}
					checkCoherent(t, body)
				case 1:
					batch := batchRequest{Queries: []queryRequest{
						{Terms: []string{term()}},
						{Terms: []string{term(), term()}},
						{Terms: []string{"never-seen"}},
					}}
					code, body := do(h, "POST", "/v1/query/batch", batch)
					if code != http.StatusOK {
						t.Errorf("batch: %d %s", code, body)
						return
					}
					var resp batchResponse
					if err := json.Unmarshal(body, &resp); err != nil || len(resp.Results) != 3 {
						t.Errorf("bad batch response %s: %v", body, err)
						return
					}
					for _, qr := range resp.Results {
						b, _ := json.Marshal(qr)
						checkCoherent(t, b)
					}
				case 2:
					if code, body := do(h, "GET", "/v1/stats", nil); code != http.StatusOK {
						t.Errorf("stats: %d %s", code, body)
						return
					}
				}
			}
		}(r)
	}

	// The mutation path: churn + maintenance + compaction cycles.
	deadline := time.Now().Add(500 * time.Millisecond)
	for i := 0; time.Now().Before(deadline); i++ {
		code, body := do(h, "POST", "/v1/peers", joinRequest{
			Items:   [][]string{{fmt.Sprintf("c%d-t%d", i%3, i%5), fmt.Sprintf("novel-%d", i)}},
			Queries: []replog.QueryCount{{Terms: []string{fmt.Sprintf("novel-%d", i)}, Count: 1}},
		})
		if code != http.StatusCreated {
			t.Fatalf("churn join: %d %s", code, body)
		}
		var jr joinResponse
		if err := json.Unmarshal(body, &jr); err != nil {
			t.Fatal(err)
		}
		switch i % 4 {
		case 0:
			s.Reform()
		case 1:
			s.Compact()
		}
		if code, body := do(h, "DELETE", fmt.Sprintf("/v1/peers/%d", jr.ID), nil); code != http.StatusOK {
			t.Fatalf("churn leave: %d %s", code, body)
		}
	}
	close(stop)
	wg.Wait()
}

// engineAnswerJSON computes a query's answer the pre-view way: under
// the server mutex, straight off the live engine — the oracle the
// published view must match byte for byte (including the trailing
// newline writeJSON emits).
func engineAnswerJSON(t *testing.T, s *Server, terms []string) []byte {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]attr.ID, 0, len(terms))
	known := true
	for _, tm := range terms {
		id, ok := s.vocab.Lookup(tm)
		if !ok {
			known = false
			break
		}
		ids = append(ids, id)
	}
	resp := queryResponse{Clusters: []clusterHit{}}
	if known {
		q := attr.NewSet(ids...)
		cfg := s.eng.Config()
		perCluster := make(map[cluster.CID]int)
		s.eng.ForEachSupplier(q, func(pid, res int) {
			perCluster[cfg.ClusterOf(pid)] += res
			resp.Total += res
		})
		for _, c := range cfg.NonEmpty() {
			if n, ok := perCluster[c]; ok {
				resp.Clusters = append(resp.Clusters, clusterHit{
					Cluster: int(c),
					Size:    cfg.Size(c),
					Results: n,
					Recall:  float64(n) / float64(resp.Total),
				})
			}
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestViewAnswersMatchEngineProperty is the property test: after every
// step of a randomized churn+reform+compact sequence, queries answered
// through the published view are byte-identical to the answer computed
// by locking the engine directly, and a batch answer matches its
// single-query answers element-wise.
func TestViewAnswersMatchEngineProperty(t *testing.T) {
	s := New(Config{CompactMinQueries: 1, CompactDeadRatio: -1})
	h := s.Handler()
	rng := stats.NewRNG(2026)
	term := func(i int) string { return fmt.Sprintf("w%d", i) }
	var live []int

	probeTerms := func() []string {
		n := 1 + rng.Intn(2)
		out := make([]string, 0, n)
		for k := 0; k < n; k++ {
			if rng.Intn(8) == 0 {
				out = append(out, fmt.Sprintf("unknown-%d", rng.Intn(5)))
			} else {
				out = append(out, term(rng.Intn(14)))
			}
		}
		return out
	}

	for step := 0; step < 150; step++ {
		switch op := rng.Intn(10); {
		case op < 5 || len(live) == 0: // join
			a, b, c := term(rng.Intn(14)), term(rng.Intn(14)), term(rng.Intn(14))
			code, body := do(h, "POST", "/v1/peers", joinRequest{
				Items:   [][]string{{a, b}, {c}},
				Queries: []replog.QueryCount{{Terms: []string{a}, Count: 1 + rng.Intn(3)}, {Terms: []string{b, c}, Count: 1}},
			})
			if code != http.StatusCreated {
				t.Fatalf("step %d: join %d %s", step, code, body)
			}
			var jr joinResponse
			if err := json.Unmarshal(body, &jr); err != nil {
				t.Fatal(err)
			}
			live = append(live, jr.ID)
		case op < 8: // leave
			i := rng.Intn(len(live))
			if code, body := do(h, "DELETE", fmt.Sprintf("/v1/peers/%d", live[i]), nil); code != http.StatusOK {
				t.Fatalf("step %d: leave %d %s", step, code, body)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		case op == 8:
			s.Reform()
		default:
			s.Compact()
		}

		for probe := 0; probe < 4; probe++ {
			terms := probeTerms()
			want := engineAnswerJSON(t, s, terms)
			code, got := do(h, "POST", "/v1/query", queryRequest{Terms: terms})
			if code != http.StatusOK {
				t.Fatalf("step %d: query %d %s", step, code, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: view answer diverged for %v:\nview:   %sengine: %s", step, terms, got, want)
			}
		}

		// Batch == element-wise singles (all from one view).
		qs := []queryRequest{{Terms: probeTerms()}, {Terms: probeTerms()}, {Terms: probeTerms()}}
		code, body := do(h, "POST", "/v1/query/batch", batchRequest{Queries: qs})
		if code != http.StatusOK {
			t.Fatalf("step %d: batch %d %s", step, code, body)
		}
		var br batchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			t.Fatal(err)
		}
		if len(br.Results) != len(qs) {
			t.Fatalf("step %d: batch returned %d results, want %d", step, len(br.Results), len(qs))
		}
		for i, q := range qs {
			single, _ := json.Marshal(br.Results[i])
			want := engineAnswerJSON(t, s, q.Terms)
			if !bytes.Equal(append(single, '\n'), want) {
				t.Fatalf("step %d: batch element %d diverged:\nbatch:  %s\nengine: %s", step, i, single, want)
			}
		}
	}
}

// TestReadPathNeedsNoLock pins the tentpole mechanically: with the
// server mutex held (a maintenance period in flight), /query,
// /query/batch and /stats still answer, and the stats counters are
// exact for the requests served meanwhile.
func TestReadPathNeedsNoLock(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	for i := 0; i < 6; i++ {
		do(h, "POST", "/v1/peers", joinBody(i%2, i))
	}
	_, base := do(h, "GET", "/v1/stats", nil)
	var baseStats, st api.DaemonStats
	if err := json.Unmarshal(base, &baseStats); err != nil {
		t.Fatal(err)
	}

	s.mu.Lock() // simulate a long maintenance period
	done := make(chan struct{})
	var statsBody []byte
	go func() {
		defer close(done)
		for i := 0; i < 5; i++ {
			code, body := do(h, "POST", "/v1/query", queryRequest{Terms: []string{"c0-t0"}})
			if code != http.StatusOK {
				t.Errorf("query under lock: %d %s", code, body)
				return
			}
			checkCoherent(t, body)
		}
		if code, body := do(h, "POST", "/v1/query/batch", batchRequest{
			Queries: []queryRequest{{Terms: []string{"c0-t1"}}, {Terms: []string{"c1-t2"}}},
		}); code != http.StatusOK {
			t.Errorf("batch under lock: %d %s", code, body)
			return
		}
		_, statsBody = do(h, "GET", "/v1/stats", nil)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("read path blocked on the server mutex")
	}
	s.mu.Unlock()

	if err := json.Unmarshal(statsBody, &st); err != nil {
		t.Fatal(err)
	}
	// Stats taken under the held lock count every query served so far:
	// 5 singles + 2 batched.
	if got, want := st.QueriesServed, baseStats.QueriesServed+7; got != want {
		t.Fatalf("queries_served mid-maintenance = %d, want %d", got, want)
	}
	if q, b := st.Endpoints["query"].Requests, st.Endpoints["query_batch"].Requests; q < 5 || b < 1 {
		t.Fatalf("endpoint requests mid-maintenance: query %d, batch %d, want >= 5 and >= 1", q, b)
	}
}

// TestStrictDecoding pins the strict decoder beyond TestV1ErrorEnvelope's
// table: trailing whitespace passes, while a second JSON document or an
// unknown field fails on every JSON endpoint.
func TestStrictDecoding(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	do(h, "POST", "/v1/peers", joinBody(0, 0))
	for _, c := range []struct {
		path, body string
		want       int
	}{
		{"/v1/query", `{"terms":["c0-t0"]}   `, http.StatusOK},
		{"/v1/query", `{"terms":["c0-t0"]}{"terms":["c0-t1"]}`, http.StatusBadRequest},
		{"/v1/query/batch", `{"queries":[{"terms":["c0-t0"]}]}` + "\n", http.StatusOK},
		{"/v1/query/batch", `{"unknown":true}`, http.StatusBadRequest},
		{"/v1/peers", `{"bogus":1}`, http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", c.path, strings.NewReader(c.body)))
		if rec.Code != c.want || !json.Valid(rec.Body.Bytes()) {
			t.Errorf("POST %s %q: code %d want %d (%s)", c.path, c.body, rec.Code, c.want, rec.Body.Bytes())
		}
	}
}
