package core

import (
	"testing"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/peer"
	"repro/internal/stats"
	"repro/internal/workload"
)

// liveDistinctQueries counts the distinct queries demanded by at
// least one live peer — the exact row count a compacted workload must
// shrink to under the minIdle=0 policy.
func liveDistinctQueries(wl *workload.Workload) int {
	live := make(map[workload.QID]bool)
	for p := 0; p < wl.NumPeers(); p++ {
		for _, en := range wl.Peer(p) {
			live[en.Q] = true
		}
	}
	return len(live)
}

// TestCompactMatchesRebuild runs the op driver from singletons, which
// compacts at random points and, after every op, pins the engine to a
// fresh engine built over the compacted workload (the property the
// whole feature rests on: compaction is invisible to every cost).
// Joiners bring novel queries and leavers strand them, so compactions
// have queries to retire.
func TestCompactMatchesRebuild(t *testing.T) {
	t.Parallel()
	d := newDriver(t, fixture{n: 10, alpha: 1, seed: 909}, noClone)
	d.runSeeded(808, 160)
	d.finish()
	if d.compactions < 5 {
		t.Fatalf("only %d effective compactions in 160 ops; the mix is too tame to test anything", d.compactions)
	}
}

// TestCompactPreservesCostsExactly pins the stronger-than-tolerance
// claim the implementation makes: compaction never touches the
// incremental cost sums, so every cost is bit-identical — not merely
// within 1e-9 — before and after.
func TestCompactPreservesCostsExactly(t *testing.T) {
	e := newTestEngine(t, 8, 10, 1212, nil)
	rng := stats.NewRNG(77)
	var joined []int
	for i := 0; i < 6; i++ {
		pr, qs, cs := newJoiner(rng, attr.ID(5000+2*i), attr.ID(5001+2*i))
		joined = append(joined, e.AddPeer(pr, qs, cs, cluster.None))
	}
	for _, pid := range joined[:4] {
		e.RemovePeer(pid)
	}
	if e.DeadQueries(0) == 0 {
		t.Fatal("setup produced no dead queries")
	}

	scost, wcost := e.SCost(), e.WCost()
	type pc struct {
		p    int
		c    cluster.CID
		cost float64
	}
	var costs []pc
	for p := 0; p < e.NumSlots(); p++ {
		if !e.IsLive(p) {
			continue
		}
		for _, c := range e.Config().NonEmpty() {
			costs = append(costs, pc{p, c, e.PeerCost(p, c)})
		}
	}
	if e.Compact(0) == 0 {
		t.Fatal("compact removed nothing")
	}
	if got := e.SCost(); got != scost {
		t.Errorf("SCost %v != %v after compact", got, scost)
	}
	if got := e.WCost(); got != wcost {
		t.Errorf("WCost %v != %v after compact", got, wcost)
	}
	for _, x := range costs {
		if got := e.PeerCost(x.p, x.c); got != x.cost {
			t.Errorf("PeerCost(%d,%d) %v != %v after compact", x.p, x.c, got, x.cost)
		}
	}
}

// TestCompactExternalTwoStepFlow exercises the public low-level pair:
// Workload.Compact run by the caller, then Engine.CompactQueries with
// the returned remap. The result must match the one-call Engine.Compact
// path and a fresh rebuild.
func TestCompactExternalTwoStepFlow(t *testing.T) {
	e := newTestEngine(t, 8, 10, 404, nil)
	pr, qs, cs := newJoiner(stats.NewRNG(55), 7000, 7001, 7002)
	pid := e.AddPeer(pr, qs, cs, cluster.None)
	e.RemovePeer(pid)

	remap, removed := e.Workload().Compact(0)
	if removed == 0 {
		t.Fatal("nothing to compact")
	}
	if !e.Stale() {
		t.Fatal("external workload compaction not flagged stale")
	}
	e.CompactQueries(remap)
	if e.Stale() {
		t.Fatal("engine stale after CompactQueries")
	}
	checkAgainstRebuild(t, e, "two-step")
}

// TestCompactGuards pins the version machinery around compaction:
// mutating the workload beyond the single compaction — or calling
// CompactQueries with no compaction at all — panics instead of
// laundering the mutation, and Compact itself refuses stale engines.
func TestCompactGuards(t *testing.T) {
	expectPanic := func(name string, fn func(e *Engine)) {
		t.Helper()
		e := newTestEngine(t, 6, 8, 606, nil)
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn(e)
	}
	expectPanic("CompactQueries without a compaction", func(e *Engine) {
		e.CompactQueries(make([]workload.QID, e.Workload().NumQueries()))
	})
	expectPanic("CompactQueries after compaction plus another mutation", func(e *Engine) {
		pr, qs, cs := newJoiner(stats.NewRNG(1), 9000, 9001)
		pid := e.AddPeer(pr, qs, cs, cluster.None)
		e.RemovePeer(pid)
		remap, removed := e.Workload().Compact(0)
		if removed == 0 {
			t.Fatal("nothing to compact")
		}
		e.Workload().Add(0, attr.NewSet(1), 1) // the laundering attempt
		e.CompactQueries(remap)
	})
	expectPanic("Compact on a stale engine", func(e *Engine) {
		e.Workload().Add(0, attr.NewSet(2), 1)
		e.Compact(0)
	})
}

// TestCompactRetainsRecentlyUsed pins the last-use policy: a query
// whose demand vanished only minIdle-1 demand events ago survives
// Compact(minIdle), and is reclaimed once enough demand has flowed —
// so a reused QID can never be inherited by a different query while
// the retention window is open.
func TestCompactRetainsRecentlyUsed(t *testing.T) {
	e := newTestEngine(t, 6, 8, 707, nil)
	pr, qs, cs := newJoiner(stats.NewRNG(3), 4000)
	pid := e.AddPeer(pr, qs, cs, cluster.None)
	novelQ := qs[len(qs)-1]
	e.RemovePeer(pid)

	qid, ok := e.Workload().Lookup(novelQ)
	if !ok {
		t.Fatal("novel query not interned")
	}
	if got := e.Compact(1_000_000); got != 0 {
		t.Fatalf("Compact removed %d recently used queries, want 0", got)
	}
	if got, ok := e.Workload().Lookup(novelQ); !ok || got != qid {
		t.Fatalf("retained query moved: %v/%v", got, ok)
	}
	// Age the query: every Add advances the demand clock.
	for i := 0; i < 10; i++ {
		e.Workload().Add(0, attr.NewSet(attr.ID(i%8)), 1)
	}
	e.Rebuild()
	if got := e.Compact(5); got == 0 {
		t.Fatal("aged-out query not reclaimed")
	}
	if _, ok := e.Workload().Lookup(novelQ); ok {
		t.Fatal("reclaimed query still interned")
	}
	checkAgainstRebuild(t, e, "retention")
}

// TestCompactBoundsNovelChurn is the acceptance-scale pin: a churn
// phase interning 10k novel queries, then one compaction that shrinks
// the workload (and with it every engine row) to the live QIDs only,
// with costs equal to a fresh rebuild.
func TestCompactBoundsNovelChurn(t *testing.T) {
	const novel = 10_000
	e := newTestEngine(t, 12, 10, 111, nil)
	rng := stats.NewRNG(222)
	for done := 0; done < novel; done += 4 {
		a := attr.ID(100_000 + done)
		pr, qs, cs := newJoiner(rng, a, a+1, a+2, a+3)
		pid := e.AddPeer(pr, qs, cs, cluster.None)
		e.RemovePeer(pid)
	}
	peak := e.Workload().NumQueries()
	if peak < novel {
		t.Fatalf("churn interned %d queries, want >= %d", peak, novel)
	}
	removed := e.Compact(0)
	if got, want := e.Workload().NumQueries(), liveDistinctQueries(e.Workload()); got != want {
		t.Fatalf("after compact %d queries, live distinct %d (removed %d, peak %d)", got, want, removed, peak)
	}
	if e.Workload().NumQueries() >= peak/10 {
		t.Fatalf("compaction barely shrank the workload: %d of %d", e.Workload().NumQueries(), peak)
	}
	checkAgainstRebuild(t, e, "novel-churn")
}

// TestCompactSteadyStateAllocs pins the compact path's allocation
// behavior under churn at steady state. A cycle joins a peer issuing
// one novel query, retires it, and compacts. The only allocations
// allowed per cycle are the two of re-interning the (forgotten)
// query's key string — a price any intern pays, compaction or not;
// Compact and the remap application themselves must add none. The
// no-op probe (nothing dead) must be allocation-free outright.
func TestCompactSteadyStateAllocs(t *testing.T) {
	e := newTestEngine(t, 16, 10, 404, nil)
	pr := peer.New(-1)
	pr.SetItems([]attr.Set{attr.NewSet(1, 4)})
	queries := []attr.Set{attr.NewSet(3), attr.NewSet(attr.ID(77_777))}
	counts := []int{2, 3}
	cycle := func() {
		pid := e.AddPeer(pr, queries, counts, cluster.None)
		e.RemovePeer(pid)
		if e.Compact(0) == 0 {
			t.Fatal("cycle compacted nothing")
		}
	}
	cycle() // warm every capacity (indexes, rows, remap scratch)
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg > 2 {
		t.Errorf("join+leave+compact cycle allocates %v/op at steady state, want <= 2 (the re-interned key string)", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if e.Compact(0) != 0 {
			t.Fatal("probe unexpectedly compacted")
		}
	}); avg != 0 {
		t.Errorf("no-op Compact probe allocates %v/op, want 0", avg)
	}
}
