package core

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/peer"
	"repro/internal/stats"
	"repro/internal/workload"
)

// testQueries returns a mix of workload queries, ad-hoc multi-term
// sets, an unknown-attribute set and the empty set.
func testQueries(e *Engine, rng *stats.RNG) []attr.Set {
	qs := []attr.Set{{}, attr.NewSet(attr.ID(1 << 20))}
	for q := 0; q < e.wl.NumQueries(); q++ {
		qs = append(qs, e.wl.Query(workload.QID(q)))
	}
	for i := 0; i < 10; i++ {
		qs = append(qs, attr.NewSet(attr.ID(rng.Intn(12)), attr.ID(rng.Intn(12))))
	}
	return qs
}

// checkViewMatchesOracle holds every view's answer to every query in qs,
// and the engine's ForEachSupplier summed per cluster, to bruteRoute
// over the engine, and each supplier's result count to its peer's. A
// single-attribute query is answered from one pass that counts, per
// attribute, the items holding it in each cluster.
func checkViewMatchesOracle(t testing.TB, e *Engine, qs []attr.Set, label string, vs ...*RoutingView) {
	t.Helper()
	holding := make(map[attr.ID][]int)
	for pid, p := range e.peers {
		if !e.IsLive(pid) {
			continue
		}
		for _, it := range p.SharedItems() {
			for _, a := range it.IDs() {
				if holding[a] == nil {
					holding[a] = make([]int, e.cfg.Cmax())
				}
				holding[a][e.cfg.ClusterOf(pid)]++
			}
		}
	}
	var sc RouteScratch
	per := make([]int, e.cfg.Cmax())
	for i, q := range qs {
		var wantTotal int
		var wantHits []RouteHit
		if ids := q.IDs(); len(ids) == 1 {
			wantTotal, wantHits = routeHits(e, holding[ids[0]])
		} else {
			wantTotal, wantHits = bruteRoute(e, q)
		}
		for k, v := range vs {
			gotTotal, gotHits := v.Route(q, &sc)
			if gotTotal != wantTotal || !slices.Equal(gotHits, wantHits) {
				t.Fatalf("%s, view %d: query %d (%v): (%d, %v), brute force (%d, %v)",
					label, k, i, q, gotTotal, gotHits, wantTotal, wantHits)
			}
		}
		clear(per)
		e.ForEachSupplier(q, func(pid, res int) {
			if !e.IsLive(pid) {
				t.Fatalf("%s: query %d (%v): ForEachSupplier names vacant slot %d", label, i, q, pid)
			}
			if want := e.peers[pid].ResultCount(q); res != want || res == 0 {
				t.Fatalf("%s: query %d (%v): ForEachSupplier gives peer %d %d results, it holds %d", label, i, q, pid, res, want)
			}
			per[e.cfg.ClusterOf(pid)] += res
		})
		if gotTotal, gotHits := routeHits(e, per); gotTotal != wantTotal || !slices.Equal(gotHits, wantHits) {
			t.Fatalf("%s, ForEachSupplier: query %d (%v): (%d, %v), brute force (%d, %v)",
				label, i, q, gotTotal, gotHits, wantTotal, wantHits)
		}
	}
}

// TestRoutingViewMatchesEngine runs the op driver, which holds every
// view to a brute-force count over the engine, from 24 peers in five
// clusters through a join, a leave and a move into an empty slot.
func TestRoutingViewMatchesEngine(t *testing.T) {
	d := newDriver(t, fixture{n: 24, groups: 5, alpha: 1, seed: 71}, noClone)
	d.run([]byte{1, 0, 2, 3, 0, 9})
	d.finish()
}

// TestRoutingViewSnapshotIsolation pins immutability: a published
// view keeps answering from its snapshot while the engine churns.
func TestRoutingViewSnapshotIsolation(t *testing.T) {
	e := newTestEngine(t, 20, 10, 73, nil)
	rng := stats.NewRNG(5)
	qs := testQueries(e, rng)
	v := e.BuildRoutingView(nil)

	// Record the view's answers, then churn the engine hard.
	type ans struct {
		total int
		hits  []RouteHit
	}
	var sc RouteScratch
	want := make([]ans, len(qs))
	for i, q := range qs {
		total, hits := v.Route(q, &sc)
		want[i] = ans{total, append([]RouteHit(nil), hits...)}
	}
	for p := 0; p < 8; p++ {
		e.RemovePeer(p)
	}
	for i := 0; i < 5; i++ {
		pr := peer.New(-1)
		pr.SetItems([]attr.Set{attr.NewSet(attr.ID(i), attr.ID(i+1))})
		e.AddPeer(pr, []attr.Set{attr.NewSet(attr.ID(i))}, []int{1}, cluster.None)
	}
	for p := 8; p < 20; p++ {
		e.Move(p, cluster.CID(p%3))
	}
	for i, q := range qs {
		total, hits := v.Route(q, &sc)
		if total != want[i].total || !slices.Equal(hits, want[i].hits) {
			t.Fatalf("query %d: stale view drifted: (%d, %v) != (%d, %v)",
				i, total, hits, want[i].total, want[i].hits)
		}
	}
	// And a freshly built view agrees with the mutated engine again.
	checkViewMatchesOracle(t, e, qs, "rebuilt", e.BuildRoutingView(v))
}

// TestRoutingViewReuse pins the cheap-republish path: relocations and
// compactions reuse the previous view's posting/peer copies, while a
// join or leave forces fresh ones.
func TestRoutingViewReuse(t *testing.T) {
	e := newTestEngine(t, 16, 8, 79, nil)
	pr := peer.New(-1)
	pr.SetItems([]attr.Set{attr.NewSet(0, 1)})
	pid := e.AddPeer(pr, []attr.Set{attr.NewSet(0)}, []int{1}, cluster.None) // build indexes
	v1 := e.BuildRoutingView(nil)

	e.Move(2, cluster.CID(5))
	v2 := e.BuildRoutingView(v1)
	if &v2.peers[0] != &v1.peers[0] {
		t.Fatal("move-only republish did not reuse the peer copy")
	}
	if v2.clusterOf[2] != 5 {
		t.Fatalf("reused view kept a stale assignment: %d", v2.clusterOf[2])
	}

	e.RemovePeer(pid)
	e.Compact(0)
	v3 := e.BuildRoutingView(v2)
	if &v3.peers[0] == &v2.peers[0] {
		t.Fatal("leave republish reused the stale peer copy")
	}
	e.Compact(0) // no-op compaction
	v4 := e.BuildRoutingView(v3)
	if &v4.peers[0] != &v3.peers[0] {
		t.Fatal("compaction-only republish did not reuse the peer copy")
	}
}

func TestRouteAllocationFree(t *testing.T) {
	e := newTestEngine(t, 24, 12, 83, nil)
	rng := stats.NewRNG(7)
	v := e.BuildRoutingView(nil)
	qs := testQueries(e, rng)
	var sc RouteScratch
	for _, q := range qs {
		v.Route(q, &sc) // reach steady-state capacity
	}
	if avg := testing.AllocsPerRun(100, func() {
		for _, q := range qs {
			v.Route(q, &sc)
		}
	}); avg != 0 {
		t.Errorf("Route allocates %v per run, want 0", avg)
	}
}

// TestRoutingViewConcurrentReaders drives many readers over published
// views while the single writer churns the engine — the daemon's
// locking discipline, pinned under -race. Readers only check
// self-consistency (every hit positive, totals add up); value-level
// correctness is pinned by the deterministic tests above.
func TestRoutingViewConcurrentReaders(t *testing.T) {
	e := newTestEngine(t, 24, 12, 89, nil)
	var mu sync.Mutex // the writer lock a serving daemon would hold
	rng := stats.NewRNG(11)
	qs := testQueries(e, rng)

	var published struct {
		sync.Mutex
		v *RoutingView
	}
	published.v = e.BuildRoutingView(nil)
	load := func() *RoutingView {
		published.Lock()
		defer published.Unlock()
		return published.v
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc RouteScratch
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				total, hits := load().Route(qs[i%len(qs)], &sc)
				sum := 0
				for _, h := range hits {
					if h.Results <= 0 || h.Size <= 0 {
						t.Errorf("incoherent hit %+v", h)
						return
					}
					sum += h.Results
				}
				if sum != total {
					t.Errorf("hits sum to %d, total %d", sum, total)
					return
				}
			}
		}()
	}
	for i := 0; i < 60; i++ {
		mu.Lock()
		pr := peer.New(-1)
		pr.SetItems([]attr.Set{attr.NewSet(attr.ID(i%12), attr.ID((i+3)%12))})
		pid := e.AddPeer(pr, []attr.Set{attr.NewSet(attr.ID(i % 12))}, []int{1}, cluster.None)
		e.Move(pid, cluster.CID(i%6))
		if i%2 == 1 {
			e.RemovePeer(pid)
			e.Compact(0)
		}
		nv := e.BuildRoutingView(load())
		mu.Unlock()
		published.Lock()
		published.v = nv
		published.Unlock()
	}
	close(stop)
	wg.Wait()
}
