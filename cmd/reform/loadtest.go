package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/bench/gen"
	"repro/internal/api"
	"repro/internal/router"
	"repro/internal/service"
	"repro/internal/stats"
)

// runLoadtest implements `reform loadtest`: a built-in load generator
// for the serving daemon's lock-free read path. Its traffic is
// bench/gen's, the benchmark's own: a population of -peers drawn from
// the category-structured corpus (the same population for every seed),
// a 512-query pool of that population's workload queries and two-term
// conjunctions of its documents' terms, Zipf(-zipf) draw sequences over
// the pool, and newcomer kits shaped like the population. The target
// daemon, in-process or -addr, is seeded with the population and one
// maintenance period; then concurrent workers replay the draws (single
// queries or batches) and the command reports throughput and
// p50/p95/p99 latency. With -maintain and -churn the mutation path runs
// concurrently — the kits join and leave during maintenance periods —
// and their p50/p95/p99 latencies are reported separately,
// demonstrating that neither reads nor mutations stall behind
// maintenance periods (the stepped scheduler bounds a mutation's wait
// to one step; tune it with -step-budget). Any failed request, query or
// mutation, is an error.
//
// With -router N the query load is served by N in-process stateless
// router replicas following the daemon's /v1/view/watch feed instead
// of by the daemon itself; -router-addr points at externally running
// `reform route` replicas (comma-separated). -verify quiesces after
// the load, waits for every replica to catch up to the daemon's
// published sequence, and byte-compares router answers against the
// authoritative engine's; any divergence is an error.
//
// The report goes to out, and the flag package's complaints, with the
// usage, to errOut. A usageError reports a bad command line.
func runLoadtest(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("loadtest", flag.ContinueOnError)
	fs.SetOutput(errOut)
	addr := fs.String("addr", "", "target daemon base URL (empty: start an in-process daemon)")
	peers := fs.Int("peers", 48, "generated population seeded into the target daemon, in-process or -addr")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent load workers")
	requests := fs.Int("requests", 5000, "total requests to issue (ignored when -duration is set)")
	duration := fs.Duration("duration", 0, "run for a fixed wall-clock time instead of a request count")
	batch := fs.Int("batch", 0, "queries per request: 0 or 1 posts /query, larger posts /query/batch")
	seed := fs.Uint64("seed", 1, "traffic seed; equal seeds replay equal query sequences and newcomers")
	zipfS := fs.Float64("zipf", 0, "Zipf(s) rank skew of the replayed draws over the query pool (0: uniform; s>=1 concentrates most load on a few hot queries)")
	routeCache := fs.Int("route-cache", 4096, "route-cache entries of the in-process daemon (0 disables; ignored with -addr)")
	maintain := fs.Duration("maintain", 0, "POST /reform on this interval during the load (0: off)")
	churn := fs.Duration("churn", 0, "join+leave one newcomer on this interval during the load (0: off)")
	stepBudget := fs.Int("step-budget", 0, "maintenance step budget of the in-process daemon (0: service default; negative: whole periods under one lock hold)")
	routerN := fs.Int("router", 0, "serve the query load from this many in-process router replicas following the daemon (0: query the daemon directly)")
	routerAddrs := fs.String("router-addr", "", "comma-separated base URLs of external `reform route` replicas to load instead of the daemon")
	verify := fs.Bool("verify", false, "after the load, byte-compare quiesced router answers against the daemon's (needs -router or -router-addr)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return usageError{error: err, printed: true}
	}
	switch {
	case *peers < 1:
		return usagef("-peers must be >= 1")
	case *batch < 0 || *workers <= 0:
		return usagef("-batch must be >= 0 and -workers > 0")
	case *zipfS < 0:
		return usagef("-zipf must be >= 0")
	case *routerN > 0 && *routerAddrs != "":
		return usagef("-router and -router-addr are mutually exclusive")
	case *verify && *routerN == 0 && *routerAddrs == "":
		return usagef("-verify needs -router or -router-addr")
	}
	routerBases, err := splitURLs("router-addr", *routerAddrs)
	if err != nil {
		return err
	}

	// Every replayed body is rendered here, before the clock starts:
	// fixed seed -> fixed byte sequences, and the hot loop measures the
	// daemon, not the generator.
	const replayLen, churnKits = 256, 64
	queriesPerReq := max(*batch, 1)
	in := gen.New(gen.Sizes{
		Peers: *peers, Pool: 512, Batch: queriesPerReq, Clients: *workers,
		Draws: replayLen * queriesPerReq, Kits: churnKits, ZipfS: *zipfS,
	}, *seed)
	path, bodies := "/v1/query/batch", in.BatchBodies
	if *batch <= 1 {
		path, bodies = "/v1/query", make([][][]byte, *workers)
		for w, draws := range in.Zipf {
			for _, ix := range draws {
				bodies[w] = append(bodies[w], in.Pool[ix].Body)
			}
		}
	}

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
	}
	// Seed the generated population, every peer a join of its snapshot
	// entry, and reform it once.
	var snap struct {
		Peers []gen.JoinBody `json:"peers"`
	}
	if err := json.Unmarshal(in.Snapshot, &snap); err != nil {
		return err
	}
	for i, p := range snap.Peers {
		body, _ := json.Marshal(p) // plain strings and ints: cannot fail
		if _, err := joinPeer(client, base, body); err != nil {
			return fmt.Errorf("seeding peer %d: %w", i, err)
		}
	}
	if _, err := httpJSON(client, http.MethodPost, base+"/v1/reform", nil, http.StatusOK); err != nil {
		return fmt.Errorf("seeding: %w", err)
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
		queryBases = routerBases
	}
	usingRouters := *routerN > 0 || *routerAddrs != ""

	// routerSeq reads a router's synchronized view sequence.
	routerSeq := func(b string) uint64 {
		st, _ := getStats[api.RouterStats](client, b)
		return st.Seq()
	}
	// waitRoutersSynced blocks until every replica has caught up to the
	// daemon's currently published sequence.
	waitRoutersSynced := func(timeout time.Duration) error {
		st, _ := getStats[api.DaemonStats](client, base)
		target := st.ViewSeq
		deadline := time.Now().Add(timeout)
		for i, rt := range inproc {
			if !rt.WaitSynced(target, time.Until(deadline)) {
				return fmt.Errorf("router %d stuck at seq %d, daemon at %d", i, rt.Seq(), target)
			}
		}
		if *routerAddrs != "" {
			for _, qb := range queryBases {
				for routerSeq(qb) < target {
					if time.Now().After(deadline) {
						return fmt.Errorf("router %s stuck at seq %d, daemon at %d", qb, routerSeq(qb), target)
					}
					time.Sleep(10 * time.Millisecond)
				}
			}
		}
		return nil
	}
	if usingRouters {
		// The tier must be synchronized before the load begins: a
		// cold-start 503 is a config problem, not a measurement.
		if err := waitRoutersSynced(10 * time.Second); err != nil {
			return err
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
		if _, err := httpJSON(client, http.MethodPost, base+"/v1/reform", nil, http.StatusOK); err != nil {
			mutErrs.Add(1)
			return
		}
		maintains.Add(1)
	})
	// The kits join round-robin; each leaves again before the next.
	nextKit := 0
	mutate(*churn, func() {
		body := in.Kits[nextKit%len(in.Kits)].Body
		nextKit++
		t0 := time.Now()
		id, err := joinPeer(client, base, body)
		if err != nil {
			mutErrs.Add(1)
			return
		}
		joinLat = append(joinLat, float64(time.Since(t0).Nanoseconds())/1e6)
		t0 = time.Now()
		if _, err := httpJSON(client, http.MethodDelete, fmt.Sprintf("%s/v1/peers/%d", base, id), nil, http.StatusOK); err != nil {
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
				t0 := time.Now()
				if _, err := httpJSON(client, http.MethodPost, queryBases[(w+i)%len(queryBases)]+path, bodies[w][i%replayLen], http.StatusOK); err != nil {
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
	fmt.Fprintf(out, "loadtest: %d requests (%d queries) in %.2fs, %d workers, %s, seed %d\n",
		reqs, reqs*queriesPerReq, wall.Seconds(), *workers, path, *seed)
	fmt.Fprintf(out, "  throughput  %.0f req/s (%.0f queries/s)\n",
		float64(reqs)/wall.Seconds(), float64(reqs*queriesPerReq)/wall.Seconds())
	if reqs > 0 {
		sum := 0.0
		for _, l := range lat {
			sum += l
		}
		fmt.Fprintf(out, "  latency ms  p50 %.3f  p95 %.3f  p99 %.3f  max %.3f  mean %.3f\n",
			stats.Quantile(lat, 0.5), stats.Quantile(lat, 0.95), stats.Quantile(lat, 0.99),
			lat[len(lat)-1], sum/float64(reqs))
	}
	if *maintain > 0 || *churn > 0 {
		fmt.Fprintf(out, "  concurrent  %d maintenance periods, %d churn cycles\n",
			maintains.Load(), churns.Load())
	}
	printMutLat := func(name string, lat []float64) {
		if len(lat) == 0 {
			return
		}
		sort.Float64s(lat)
		fmt.Fprintf(out, "  %-11s p50 %.3f  p95 %.3f  p99 %.3f  max %.3f  (n=%d)\n",
			name, stats.Quantile(lat, 0.5), stats.Quantile(lat, 0.95),
			stats.Quantile(lat, 0.99), lat[len(lat)-1], len(lat))
	}
	printMutLat("join ms", joinLat)
	printMutLat("leave ms", leaveLat)
	fmt.Fprintf(out, "  errors      %d query, %d mutation\n", errs, mutErrs.Load())

	// Quiesced verification: every replica catches up to the daemon's
	// final published sequence, then must answer byte-identically.
	verifyTier := func() error {
		if err := waitRoutersSynced(10 * time.Second); err != nil {
			return err
		}
		checked, hits := 0, 0
		for _, body := range bodies[0] {
			want, err := httpJSON(client, http.MethodPost, base+path, body, http.StatusOK)
			if err != nil {
				return err
			}
			hits += queriesPerReq - bytes.Count(want, []byte(`"clusters":[]`))
			for _, qb := range queryBases {
				got, err := httpJSON(client, http.MethodPost, qb+path, body, http.StatusOK)
				if err != nil || !bytes.Equal(want, got) {
					return fmt.Errorf("DIVERGENCE on %s\n  daemon %s\n  %s %s (%v)", body, want, qb, got, err)
				}
				checked++
			}
		}
		fmt.Fprintf(out, "  verify      %d router answers byte-identical to the daemon's; %d of %d queries hit a cluster\n",
			checked, hits, len(bodies[0])*queriesPerReq)
		return nil
	}
	var verifyErr error
	if *verify {
		verifyErr = verifyTier()
	}

	if st, err := getStats[api.DaemonStats](client, base); err == nil {
		fmt.Fprintf(out, "server stats: peers=%d clusters=%d queries_served=%d published_views=%d\n",
			st.Peers, st.Clusters, st.QueriesServed, st.PublishedViews)
		lk := st.MutationLock
		fmt.Fprintf(out, "  lock holds  n=%d mean %.1fus p99 %.1fus\n", lk.Holds, lk.MeanUs, lk.P99Us)
		printCacheStats(out, "  ", st.RouteCache)
		if *maintain > 0 {
			fmt.Fprintf(out, "  decide scan %d peers evaluated\n", st.Maintenance.Scanned)
		}
	}
	if usingRouters {
		for i, qb := range queryBases {
			st, err := getStats[api.RouterStats](client, qb)
			if err != nil {
				fmt.Fprintf(out, "router %d (%s): stats unavailable\n", i, qb)
				continue
			}
			fmt.Fprintf(out, "router %d: synced=%v view_seq=%d full_syncs=%d delta_syncs=%d sync_errors=%d queries_served=%d\n",
				i, st.Synced, st.Seq(), st.FullSyncs, st.DeltaSyncs, st.SyncErrors, st.QueriesServed)
			printCacheStats(out, "  ", st.RouteCache)
		}
	}
	if errs > 0 || mutErrs.Load() > 0 {
		return errors.Join(fmt.Errorf("%d query and %d mutation requests failed", errs, mutErrs.Load()), verifyErr)
	}
	return verifyErr
}

// loadtestMain runs `reform loadtest` with the given arguments and
// returns its exit code: 0, 2 for a bad command line and 1 for any
// other error. Each error is written to stderr once.
func loadtestMain(args []string, stdout, stderr io.Writer) int {
	err := runLoadtest(args, stdout, stderr)
	if err == nil {
		return 0
	}
	var usage usageError
	isUsage := errors.As(err, &usage)
	if !isUsage || !usage.printed {
		fmt.Fprintln(stderr, "loadtest:", err)
	}
	if isUsage {
		return 2
	}
	return 1
}

// usageError is a bad command line. printed says the flag package has
// already written it, with the usage.
type usageError struct {
	error
	printed bool
}

func usagef(format string, args ...any) error {
	return usageError{error: fmt.Errorf(format, args...)}
}

// printCacheStats renders a /v1/stats payload's route_cache block (the
// daemon's and each router's): hit rate alongside the raw counters.
func printCacheStats(out io.Writer, indent string, rc api.CacheStats) {
	if !rc.Enabled {
		fmt.Fprintf(out, "%sroute cache disabled\n", indent)
		return
	}
	rate := 0.0
	if n := rc.Hits + rc.Misses; n > 0 {
		rate = 100 * float64(rc.Hits) / float64(n)
	}
	fmt.Fprintf(out, "%sroute cache hit rate %.1f%% (%d hits, %d misses, %d evictions, %d bypasses)\n",
		indent, rate, rc.Hits, rc.Misses, rc.Evictions, rc.Bypasses)
}
