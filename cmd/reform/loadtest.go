package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/router"
	"repro/internal/service"
	"repro/internal/stats"
)

// runLoadtestCommand implements `reform loadtest`: a built-in load
// generator for the serving daemon's lock-free read path. Concurrent
// workers replay a fixed-seed query workload (single queries or
// batches) against a target daemon — or against an in-process one
// seeded for the occasion — and report throughput and p50/p95/p99
// latency. With -maintain and -churn the mutation path runs
// concurrently — joins and leaves land during maintenance periods —
// and their p50/p95/p99 latencies are reported separately,
// demonstrating that neither reads nor mutations stall behind
// maintenance periods (the stepped scheduler bounds a mutation's wait
// to one step; tune it with -step-budget). Any failed request,
// query or mutation, exits nonzero.
//
// With -router N the query load is served by N in-process stateless
// router replicas following the daemon's /v1/view/watch feed instead
// of by the daemon itself; -router-addr points at externally running
// `reform route` replicas (comma-separated). -verify quiesces after
// the load, waits for every replica to catch up to the daemon's
// published sequence, and byte-compares router answers against the
// authoritative engine's, exiting nonzero on any divergence.
func runLoadtestCommand(args []string) {
	fs := flag.NewFlagSet("loadtest", flag.ExitOnError)
	addr := fs.String("addr", "", "target daemon base URL (empty: start an in-process daemon)")
	peers := fs.Int("peers", 48, "population seeded into the in-process daemon")
	categories := fs.Int("categories", 6, "term categories of the seeded population and replayed queries")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent load workers")
	requests := fs.Int("requests", 5000, "total requests to issue (ignored when -duration is set)")
	duration := fs.Duration("duration", 0, "run for a fixed wall-clock time instead of a request count")
	batch := fs.Int("batch", 0, "queries per request: 0 or 1 posts /query, larger posts /query/batch")
	seed := fs.Uint64("seed", 1, "workload replay seed; equal seeds replay equal query sequences")
	zipfS := fs.Float64("zipf", 0, "draw replayed queries from a fixed pool with Zipf(s) rank skew (0: fresh uniform queries; s>=1 concentrates most load on a few hot queries); seeded and replayable")
	routeCache := fs.Int("route-cache", 4096, "route-cache entries of the in-process daemon (0 disables; ignored with -addr)")
	maintain := fs.Duration("maintain", 0, "POST /reform on this interval during the load (0: off)")
	churn := fs.Duration("churn", 0, "join+leave one peer on this interval during the load (0: off)")
	stepBudget := fs.Int("step-budget", 0, "maintenance step budget of the in-process daemon (0: service default; negative: whole periods under one lock hold)")
	routerN := fs.Int("router", 0, "serve the query load from this many in-process router replicas following the daemon (0: query the daemon directly)")
	routerAddrs := fs.String("router-addr", "", "comma-separated base URLs of external `reform route` replicas to load instead of the daemon")
	verify := fs.Bool("verify", false, "after the load, byte-compare quiesced router answers against the daemon's (needs -router or -router-addr)")
	fs.Parse(args)
	if *batch < 0 || *workers <= 0 {
		fmt.Fprintln(os.Stderr, "loadtest: -batch must be >= 0 and -workers > 0")
		os.Exit(2)
	}
	if *zipfS < 0 {
		fmt.Fprintln(os.Stderr, "loadtest: -zipf must be >= 0")
		os.Exit(2)
	}
	if *routerN > 0 && *routerAddrs != "" {
		fmt.Fprintln(os.Stderr, "loadtest: -router and -router-addr are mutually exclusive")
		os.Exit(2)
	}
	if *verify && *routerN == 0 && *routerAddrs == "" {
		fmt.Fprintln(os.Stderr, "loadtest: -verify needs -router or -router-addr")
		os.Exit(2)
	}

	term := func(cat, i int) string { return fmt.Sprintf("c%d-t%d", cat, i) }
	base := *addr
	client := &http.Client{Timeout: 30 * time.Second}
	if base == "" {
		cacheEntries := *routeCache
		if cacheEntries == 0 {
			cacheEntries = -1 // flag 0 = off; Config 0 = default size
		}
		srv := service.New(service.Config{StepBudget: *stepBudget, RouteCache: cacheEntries})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		base = ts.URL
		client = ts.Client()
		// Keep the timeout: a read path stalled behind the mutation
		// lock must fail the run, not hang it.
		client.Timeout = 30 * time.Second
		// Seed a deterministic population: content and demand follow
		// the category-term scheme the replayed queries draw from.
		rng := stats.NewRNG(*seed)
		for i := 0; i < *peers; i++ {
			cat := i % *categories
			body, _ := json.Marshal(map[string]any{
				"items": [][]string{
					{term(cat, rng.Intn(6)), term(cat, rng.Intn(6))},
					{term(cat, rng.Intn(6)), term(cat, rng.Intn(6))},
				},
				"queries": []map[string]any{
					{"terms": []string{term(cat, rng.Intn(6))}, "count": 1 + rng.Intn(4)},
				},
			})
			resp, err := client.Post(base+"/v1/peers", "application/json", bytes.NewReader(body))
			if err != nil || resp.StatusCode != http.StatusCreated {
				fmt.Fprintf(os.Stderr, "loadtest: seeding peer %d failed: %v\n", i, statusOf(resp, err))
				os.Exit(1)
			}
			drain(resp)
		}
		post(client, base+"/v1/reform")
	}

	// Optional router tier: the query load targets the replicas while
	// mutations keep hitting the authoritative daemon at base.
	queryBases := []string{base}
	var inproc []*router.Router
	switch {
	case *routerN > 0:
		queryBases = nil
		for i := 0; i < *routerN; i++ {
			rt := router.New(router.Config{
				Upstream:    base,
				PollTimeout: 2 * time.Second,
				RetryAfter:  50 * time.Millisecond,
			})
			rt.Start()
			defer rt.Shutdown()
			rts := httptest.NewServer(rt.Handler())
			defer rts.Close()
			inproc = append(inproc, rt)
			queryBases = append(queryBases, rts.URL)
		}
	case *routerAddrs != "":
		queryBases = nil
		for _, a := range strings.Split(*routerAddrs, ",") {
			if a = strings.TrimSuffix(strings.TrimSpace(a), "/"); a != "" {
				queryBases = append(queryBases, a)
			}
		}
		if len(queryBases) == 0 {
			fmt.Fprintln(os.Stderr, "loadtest: -router-addr lists no usable URLs")
			os.Exit(2)
		}
	}
	usingRouters := *routerN > 0 || *routerAddrs != ""

	// viewSeq reads a server's published/synchronized view sequence.
	viewSeq := func(b string) uint64 {
		st := fetchStats(client, b)
		if st == nil {
			return 0
		}
		f, _ := st["view_seq"].(float64)
		return uint64(f)
	}
	// waitRoutersSynced blocks until every replica has caught up to the
	// daemon's currently published sequence.
	waitRoutersSynced := func(timeout time.Duration) bool {
		target := viewSeq(base)
		deadline := time.Now().Add(timeout)
		for i, rt := range inproc {
			if !rt.WaitSynced(target, time.Until(deadline)) {
				fmt.Fprintf(os.Stderr, "loadtest: router %d stuck at seq %d, daemon at %d\n", i, rt.Seq(), target)
				return false
			}
		}
		if *routerAddrs != "" {
			for _, qb := range queryBases {
				for viewSeq(qb) < target {
					if time.Now().After(deadline) {
						fmt.Fprintf(os.Stderr, "loadtest: router %s stuck at seq %d, daemon at %d\n", qb, viewSeq(qb), target)
						return false
					}
					time.Sleep(10 * time.Millisecond)
				}
			}
		}
		return true
	}
	if usingRouters && !waitRoutersSynced(10*time.Second) {
		// The tier must be synchronized before the load begins: a
		// cold-start 503 is a config problem, not a measurement.
		os.Exit(1)
	}

	// Pre-render the replayed request bodies per worker: fixed seed ->
	// fixed byte sequences, and the hot loop measures the daemon, not
	// the generator.
	queriesPerReq := max(*batch, 1)
	path := "/v1/query"
	if *batch > 1 {
		path = "/v1/query/batch"
	}
	freshQuery := func(rng *stats.RNG) map[string]any {
		cat := rng.Intn(*categories)
		terms := []string{term(cat, rng.Intn(6))}
		if rng.Intn(3) == 0 {
			terms = append(terms, term(cat, rng.Intn(6)))
		}
		return map[string]any{"terms": terms}
	}
	// With -zipf the workers draw from one fixed query pool with
	// Zipf-skewed ranks instead of generating fresh uniform queries:
	// the hot head of the pool dominates the load, which is exactly the
	// traffic the view-epoch route cache exists for. Pool and ranks
	// both derive from -seed, so runs replay exactly.
	const zipfPoolSize = 512
	var zipfPool []map[string]any
	var zipf *stats.Zipf
	if *zipfS > 0 {
		prng := stats.NewRNG(*seed ^ 0x51bf)
		zipfPool = make([]map[string]any, zipfPoolSize)
		for i := range zipfPool {
			zipfPool[i] = freshQuery(prng)
		}
		zipf = stats.NewZipf(zipfPoolSize, *zipfS)
	}
	makeBody := func(rng *stats.RNG) []byte {
		one := func() map[string]any {
			if zipf != nil {
				return zipfPool[zipf.Sample(rng)]
			}
			return freshQuery(rng)
		}
		var v any
		if *batch > 1 {
			qs := make([]map[string]any, *batch)
			for i := range qs {
				qs[i] = one()
			}
			v = map[string]any{"queries": qs}
		} else {
			v = one()
		}
		b, _ := json.Marshal(v)
		return b
	}
	const replayLen = 256
	bodies := make([][][]byte, *workers)
	for w := range bodies {
		rng := stats.NewRNG(*seed*1_000_003 + uint64(w))
		bodies[w] = make([][]byte, replayLen)
		for i := range bodies[w] {
			bodies[w][i] = makeBody(rng)
		}
	}

	// Optional concurrent mutation load.
	stopMut := make(chan struct{})
	var mutWG sync.WaitGroup
	mutate := func(every time.Duration, fn func()) {
		if every <= 0 {
			return
		}
		mutWG.Add(1)
		go func() {
			defer mutWG.Done()
			t := time.NewTicker(every)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					fn()
				case <-stopMut:
					return
				}
			}
		}()
	}
	// Join and leave latencies are recorded separately: they are the
	// mutation path, and the whole point of the stepped maintenance
	// scheduler is that their tail is bounded by one step even while
	// a period is in progress. The slices are owned by the single
	// churn goroutine and read only after mutWG.Wait().
	var maintains, churns, mutErrs atomic.Int64
	var joinLat, leaveLat []float64
	mutate(*maintain, func() {
		if post(client, base+"/v1/reform") {
			maintains.Add(1)
		} else {
			mutErrs.Add(1)
		}
	})
	churnRNG := stats.NewRNG(*seed ^ 0xc0ffee)
	mutate(*churn, func() {
		cat := churnRNG.Intn(*categories)
		body, _ := json.Marshal(map[string]any{
			"items":   [][]string{{term(cat, churnRNG.Intn(6))}},
			"queries": []map[string]any{{"terms": []string{term(cat, churnRNG.Intn(6))}, "count": 1}},
		})
		t0 := time.Now()
		resp, err := client.Post(base+"/v1/peers", "application/json", bytes.NewReader(body))
		if err != nil {
			mutErrs.Add(1)
			return
		}
		if resp.StatusCode != http.StatusCreated {
			drain(resp)
			mutErrs.Add(1)
			return
		}
		joinLat = append(joinLat, float64(time.Since(t0).Nanoseconds())/1e6)
		var jr struct {
			ID int `json:"id"`
		}
		json.NewDecoder(resp.Body).Decode(&jr)
		resp.Body.Close()
		req, _ := http.NewRequest("DELETE", fmt.Sprintf("%s/v1/peers/%d", base, jr.ID), nil)
		t0 = time.Now()
		resp, err = client.Do(req)
		if err != nil {
			mutErrs.Add(1)
			return
		}
		drain(resp)
		if resp.StatusCode != http.StatusOK {
			mutErrs.Add(1)
			return
		}
		leaveLat = append(leaveLat, float64(time.Since(t0).Nanoseconds())/1e6)
		churns.Add(1)
	})

	// The measured load.
	var remaining atomic.Int64
	remaining.Store(int64(*requests))
	deadline := time.Time{}
	if *duration > 0 {
		deadline = time.Now().Add(*duration)
	}
	type result struct {
		latMs []float64
		errs  int
	}
	results := make([]result, *workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := &results[w]
			for i := 0; ; i++ {
				if deadline.IsZero() {
					if remaining.Add(-1) < 0 {
						return
					}
				} else if time.Now().After(deadline) {
					return
				}
				body := bodies[w][i%replayLen]
				t0 := time.Now()
				resp, err := client.Post(queryBases[(w+i)%len(queryBases)]+path, "application/json", bytes.NewReader(body))
				if err != nil {
					res.errs++
					continue
				}
				_, cerr := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if cerr != nil || resp.StatusCode != http.StatusOK {
					res.errs++
					continue
				}
				res.latMs = append(res.latMs, float64(time.Since(t0).Nanoseconds())/1e6)
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	close(stopMut)
	mutWG.Wait()

	var lat []float64
	errs := 0
	for _, r := range results {
		lat = append(lat, r.latMs...)
		errs += r.errs
	}
	sort.Float64s(lat)
	reqs := len(lat)
	fmt.Printf("loadtest: %d requests (%d queries) in %.2fs, %d workers, %s, seed %d\n",
		reqs, reqs*queriesPerReq, wall.Seconds(), *workers, path, *seed)
	fmt.Printf("  throughput  %.0f req/s (%.0f queries/s)\n",
		float64(reqs)/wall.Seconds(), float64(reqs*queriesPerReq)/wall.Seconds())
	if reqs > 0 {
		sum := 0.0
		for _, l := range lat {
			sum += l
		}
		fmt.Printf("  latency ms  p50 %.3f  p95 %.3f  p99 %.3f  max %.3f  mean %.3f\n",
			stats.Quantile(lat, 0.5), stats.Quantile(lat, 0.95), stats.Quantile(lat, 0.99),
			lat[len(lat)-1], sum/float64(reqs))
	}
	if *maintain > 0 || *churn > 0 {
		fmt.Printf("  concurrent  %d maintenance periods, %d churn cycles\n",
			maintains.Load(), churns.Load())
	}
	printMutLat := func(name string, lat []float64) {
		if len(lat) == 0 {
			return
		}
		sort.Float64s(lat)
		fmt.Printf("  %-11s p50 %.3f  p95 %.3f  p99 %.3f  max %.3f  (n=%d)\n",
			name, stats.Quantile(lat, 0.5), stats.Quantile(lat, 0.95),
			stats.Quantile(lat, 0.99), lat[len(lat)-1], len(lat))
	}
	printMutLat("join ms", joinLat)
	printMutLat("leave ms", leaveLat)
	fmt.Printf("  errors      %d query, %d mutation\n", errs, mutErrs.Load())

	// Quiesced verification: every replica catches up to the daemon's
	// final published sequence, then must answer byte-identically.
	verifyFailed := false
	if *verify {
		if !waitRoutersSynced(10 * time.Second) {
			verifyFailed = true
		} else {
			fetch := func(b string, body []byte) (int, []byte) {
				resp, err := client.Post(b+path, "application/json", bytes.NewReader(body))
				if err != nil {
					return 0, []byte(err.Error())
				}
				defer resp.Body.Close()
				out, _ := io.ReadAll(resp.Body)
				return resp.StatusCode, out
			}
			checked := 0
		verifyLoop:
			for i := 0; i < replayLen; i++ {
				body := bodies[0][i]
				wantCode, want := fetch(base, body)
				for _, qb := range queryBases {
					gotCode, got := fetch(qb, body)
					checked++
					if gotCode != wantCode || !bytes.Equal(want, got) {
						fmt.Fprintf(os.Stderr, "loadtest: DIVERGENCE on %s\n  daemon %d %s\n  %s %d %s\n",
							body, wantCode, want, qb, gotCode, got)
						verifyFailed = true
						break verifyLoop
					}
				}
			}
			if !verifyFailed {
				fmt.Printf("  verify      %d router answers byte-identical to the daemon's\n", checked)
			}
		}
	}

	if st := fetchStats(client, base); st != nil {
		fmt.Printf("server stats: peers=%v clusters=%v queries_served=%v published_views=%v\n",
			st["peers"], st["clusters"], st["queries_served"], st["published_views"])
		if lk, ok := st["mutation_lock"].(map[string]any); ok {
			holds, _ := lk["holds"].(float64)
			mean, _ := lk["mean_us"].(float64)
			p99, _ := lk["p99_us"].(float64)
			fmt.Printf("  lock holds  n=%.0f mean %.1fus p99 %.1fus\n", holds, mean, p99)
		}
		printCacheStats("  ", st)
		if *maintain > 0 {
			if mt, ok := st["maintenance"].(map[string]any); ok {
				scanned, _ := mt["scanned"].(float64)
				fmt.Printf("  decide scan %.0f peers evaluated\n", scanned)
			}
		}
	}
	if usingRouters {
		for i, qb := range queryBases {
			st := fetchStats(client, qb)
			if st == nil {
				fmt.Printf("router %d (%s): stats unavailable\n", i, qb)
				continue
			}
			fmt.Printf("router %d: synced=%v view_seq=%v full_syncs=%v delta_syncs=%v sync_errors=%v queries_served=%v\n",
				i, st["synced"], st["view_seq"], st["full_syncs"], st["delta_syncs"],
				st["sync_errors"], st["queries_served"])
			printCacheStats("  ", st)
		}
	}
	if errs > 0 || mutErrs.Load() > 0 || verifyFailed {
		os.Exit(1)
	}
}

func statusOf(resp *http.Response, err error) any {
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return fmt.Sprintf("%d %s", resp.StatusCode, body)
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func post(client *http.Client, url string) bool {
	resp, err := client.Post(url, "application/json", nil)
	if err != nil {
		return false
	}
	drain(resp)
	return resp.StatusCode == http.StatusOK
}

// printCacheStats renders a /v1/stats payload's route_cache block (the
// daemon's and each router's): hit rate alongside the raw counters.
func printCacheStats(indent string, st map[string]any) {
	rc, ok := st["route_cache"].(map[string]any)
	if !ok {
		return
	}
	if on, _ := rc["enabled"].(bool); !on {
		fmt.Printf("%sroute cache disabled\n", indent)
		return
	}
	hits, _ := rc["hits"].(float64)
	misses, _ := rc["misses"].(float64)
	evictions, _ := rc["evictions"].(float64)
	bypasses, _ := rc["bypasses"].(float64)
	rate := 0.0
	if hits+misses > 0 {
		rate = 100 * hits / (hits + misses)
	}
	fmt.Printf("%sroute cache hit rate %.1f%% (%.0f hits, %.0f misses, %.0f evictions, %.0f bypasses)\n",
		indent, rate, hits, misses, evictions, bypasses)
}

func fetchStats(client *http.Client, base string) map[string]any {
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var st map[string]any
	if json.NewDecoder(resp.Body).Decode(&st) != nil {
		return nil
	}
	return st
}
