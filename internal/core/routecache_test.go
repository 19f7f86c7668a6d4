package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/attr"
	"repro/internal/stats"
)

// routeFirstAttribute is the pre-rarest-scan, pre-mask Route: it always
// drives the scan from the query's FIRST attribute's posting list and
// asks each listed peer for its count. Kept here as the oracle the
// rarest-attribute argmin and the mask intersection must match
// byte-for-byte.
func routeFirstAttribute(v *RoutingView, q attr.Set) (total int, hits []RouteHit) {
	ids := q.IDs()
	if len(ids) == 0 {
		return 0, nil
	}
	results := make([]int, len(v.sizes))
	for _, e := range v.postings.get(ids[0]) {
		pid := e.slot
		if res := v.peers[pid].ResultCountRO(q); res > 0 {
			results[v.clusterOf[pid]] += res
			total += res
		}
	}
	if total == 0 {
		return 0, nil
	}
	for _, c := range v.nonEmpty {
		if n := results[c]; n > 0 {
			hits = append(hits, RouteHit{Cluster: c, Size: v.sizes[c], Results: n})
		}
	}
	return total, hits
}

// TestRouteRarestMatchesFirstAttributeProperty pins the tentpole's
// byte-identity claim: over randomized systems and the op driver's ops
// (applied without its checker), driving the scan from the rarest
// attribute answers exactly what the historical first-attribute scan
// answered, for every query shape (workload, ad-hoc multi-term,
// unknown-attribute, empty).
func TestRouteRarestMatchesFirstAttributeProperty(t *testing.T) {
	for _, seed := range []uint64{1, 17, 4242} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			d := newDriver(t, fixture{n: 24, alpha: 1, seed: seed}, noClone)
			e, rng := d.e, stats.NewRNG(seed^0xabcdef)
			var sc RouteScratch
			var v *RoutingView
			for step := 0; step < 40; step++ {
				d.apply(byte(rng.Intn(256)), byte(rng.Intn(256)))
				v = e.BuildRoutingView(v)
				for qi, q := range testQueries(e, rng) {
					wantTotal, wantHits := routeFirstAttribute(v, q)
					gotTotal, gotHits := v.Route(q, &sc)
					if gotTotal != wantTotal || !slices.Equal(gotHits, wantHits) {
						t.Fatalf("step %d query %d (%v): rarest scan (%d, %v) != first-attribute scan (%d, %v)",
							step, qi, q, gotTotal, gotHits, wantTotal, wantHits)
					}
				}
			}
		})
	}
}

// TestRouteUnknownAttributeIDs pins the stale-vocab router edge: a
// query naming attribute IDs this view has never seen — arbitrarily
// far beyond its vocabulary — answers (0, empty) instead of
// panicking, alone and mixed with known attributes.
func TestRouteUnknownAttributeIDs(t *testing.T) {
	e := newTestEngine(t, 16, 8, 91, nil)
	v := e.BuildRoutingView(nil)
	var sc RouteScratch
	for _, q := range []attr.Set{
		attr.NewSet(attr.ID(1 << 30)),
		attr.NewSet(attr.ID(1<<31 - 1)),
		attr.NewSet(0, attr.ID(1<<30)),                  // known first, unknown rarest
		attr.NewSet(attr.ID(1<<30), attr.ID(1<<30+500)), // all unknown
	} {
		total, hits := v.Route(q, &sc)
		if total != 0 || len(hits) != 0 {
			t.Errorf("query %v against unknown attrs: got (%d, %v), want (0, [])", q, total, hits)
		}
		cache := NewRouteCache(64)
		total, hits = v.RouteCached(q, cache, &sc)
		if total != 0 || len(hits) != 0 {
			t.Errorf("cached query %v against unknown attrs: got (%d, %v), want (0, [])", q, total, hits)
		}
	}
}

// TestRouteCachedMatchesRouteProperty is the cache's byte-identity
// oracle: one shared cache serves a sequence of views across the op
// driver's ops (so entries go stale wholesale at every publish),
// every query asked twice (miss then hit), and every answer — hit,
// miss, or bypass — must equal an uncached Route against the same
// view. Old views are re-queried through the same cache to pin that
// stale entries can never leak across epochs in either direction.
func TestRouteCachedMatchesRouteProperty(t *testing.T) {
	for _, seed := range []uint64{3, 99} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			d := newDriver(t, fixture{n: 24, alpha: 1, seed: seed}, noClone)
			e, rng := d.e, stats.NewRNG(seed*7919)
			cache := NewRouteCache(64) // small: force evictions too
			var cSc, uSc RouteScratch
			var v *RoutingView
			var old []*RoutingView
			check := func(view *RoutingView, label string) {
				for qi, q := range testQueries(e, rng) {
					for pass := 0; pass < 2; pass++ { // miss then hit
						wantTotal, wantHits := view.Route(q, &uSc)
						gotTotal, gotHits := view.RouteCached(q, cache, &cSc)
						if gotTotal != wantTotal || !slices.Equal(gotHits, wantHits) {
							t.Fatalf("%s query %d pass %d (%v): cached (%d, %v) != Route (%d, %v)",
								label, qi, pass, q, gotTotal, gotHits, wantTotal, wantHits)
						}
					}
				}
			}
			for step := 0; step < 30; step++ {
				d.apply(byte(rng.Intn(256)), byte(rng.Intn(256)))
				v = e.BuildRoutingView(v)
				check(v, fmt.Sprintf("step %d", step))
				if step%10 == 0 {
					old = append(old, v)
				}
			}
			// Snapshot isolation through the cache: superseded views
			// queried through the same shared cache still answer from
			// their own epoch.
			for i, ov := range old {
				check(ov, fmt.Sprintf("old view %d", i))
			}
			st := cache.Stats()
			if st.Hits == 0 || st.Misses == 0 {
				t.Fatalf("degenerate property run: stats %+v", st)
			}
		})
	}
}

func TestRouteCacheCountersAndCapacity(t *testing.T) {
	for _, tc := range []struct{ entries, want int }{
		{0, 4096}, {-5, 4096}, {1, 64}, {100, 128}, {4096, 4096},
	} {
		if got := NewRouteCache(tc.entries).Stats().Capacity; got != tc.want {
			t.Errorf("NewRouteCache(%d) capacity %d, want %d", tc.entries, got, tc.want)
		}
	}

	e := newTestEngine(t, 16, 8, 97, nil)
	v := e.BuildRoutingView(nil)
	c := NewRouteCache(64)
	var sc RouteScratch
	q := attr.NewSet(0, 1)
	v.RouteCached(q, c, &sc)
	v.RouteCached(q, c, &sc)
	v.RouteCached(q, c, &sc)
	if st := c.Stats(); st.Misses != 1 || st.Hits != 2 || st.Bypasses != 0 {
		t.Fatalf("after 3 identical queries: %+v, want 1 miss + 2 hits", st)
	}

	// A canonical key over the bound bypasses the cache (counted) but
	// still answers correctly.
	var giant []attr.ID
	for i := 0; i < 64; i++ {
		giant = append(giant, attr.ID(1<<20+i))
	}
	gq := attr.NewSet(giant...)
	if len(gq.Key()) <= maxRouteCacheKeyBytes {
		t.Fatalf("test query key %d bytes, need > %d", len(gq.Key()), maxRouteCacheKeyBytes)
	}
	v.RouteCached(gq, c, &sc)
	v.RouteCached(gq, c, &sc)
	if st := c.Stats(); st.Bypasses != 2 {
		t.Fatalf("oversized key should bypass twice: %+v", st)
	}

	// Nil cache degrades to plain Route.
	wantTotal, wantHits := v.Route(q, &sc)
	hits := append([]RouteHit(nil), wantHits...)
	gotTotal, gotHits := v.RouteCached(q, nil, &sc)
	if gotTotal != wantTotal || !slices.Equal(gotHits, hits) {
		t.Fatalf("nil cache: (%d, %v) != Route (%d, %v)", gotTotal, gotHits, wantTotal, hits)
	}

	// Pressure far past capacity forces evictions.
	small := NewRouteCache(1)
	for i := 0; i < 64*8; i++ {
		small.RouteCachedPressure(v, attr.NewSet(attr.ID(i%12), attr.ID(i/12)), &sc)
	}
	if st := small.Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions after %d inserts into %d slots: %+v", 64*8, st.Capacity, st)
	}
}

// RouteCachedPressure is a test shim so the pressure loop reads as a
// cache method.
func (c *RouteCache) RouteCachedPressure(v *RoutingView, q attr.Set, sc *RouteScratch) {
	v.RouteCached(q, c, sc)
}

// TestRouteCachedHitAllocationFree pins the tentpole's 0-allocs/op
// contract on the steady-state hit path.
func TestRouteCachedHitAllocationFree(t *testing.T) {
	e := newTestEngine(t, 24, 12, 101, nil)
	rng := stats.NewRNG(13)
	v := e.BuildRoutingView(nil)
	c := NewRouteCache(0)
	qs := testQueries(e, rng)
	var sc RouteScratch
	for _, q := range qs {
		v.RouteCached(q, c, &sc) // populate: every further lookup hits
	}
	if avg := testing.AllocsPerRun(100, func() {
		for _, q := range qs {
			v.RouteCached(q, c, &sc)
		}
	}); avg != 0 {
		t.Errorf("cache-hit path allocates %v per run, want 0", avg)
	}
	st := c.Stats()
	if st.Hits == 0 || st.Evictions != 0 {
		t.Fatalf("hit-path run not steady state: %+v", st)
	}
}
