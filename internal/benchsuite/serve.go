package benchsuite

import (
	"testing"

	"repro/internal/api"
	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/peer"
	"repro/internal/router"
	"repro/internal/stats"
	"repro/internal/viewwire"
)

// The serving tiers' per-query read path: Route over a published
// immutable view, caller-owned scratch, no locks.

// queryServe is the single-goroutine cost of the replay, through the
// daemon's RouteCached. Without a cache that is plain Route (QueryServe);
// with one, warmed, every lookup hits (QueryServeHot): the cache-hit
// cost, which must come out several times under QueryServe.
func queryServe(cacheEntries int) func(f *Fixtures) func(b *testing.B) {
	return func(f *Fixtures) func(b *testing.B) {
		s := f.serve
		var cache *core.RouteCache
		if cacheEntries > 0 {
			cache = core.NewRouteCache(cacheEntries)
		}
		return func(b *testing.B) {
			b.ReportAllocs()
			var sc core.RouteScratch
			for _, q := range s.queries {
				s.view.RouteCached(q, cache, &sc)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.view.RouteCached(s.queries[i%len(s.queries)], cache, &sc)
			}
		}
	}
}

// queryServeParallel spreads the same replay over all cores, which is
// the whole point of publishing views.
func queryServeParallel(f *Fixtures) func(b *testing.B) {
	s := f.serve
	return func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			var sc core.RouteScratch
			for i := 0; pb.Next(); i++ {
				s.view.Route(s.queries[i%len(s.queries)], &sc)
			}
		})
	}
}

// queryServeZipf is the realistic blend: Zipf(1.1)-skewed ranks over
// the queries through a cache smaller than the order is long, so hot
// heads hit and the tail misses through to Route.
func queryServeZipf(f *Fixtures) func(b *testing.B) {
	s := f.serve
	cache := core.NewRouteCache(1024)
	ranks, rng := stats.NewZipf(len(s.queries), 1.1), stats.NewRNG(7)
	order := make([]int, 4096)
	for i := range order {
		order[i] = ranks.Sample(rng)
	}
	return func(b *testing.B) {
		b.ReportAllocs()
		var sc core.RouteScratch
		for i := 0; i < b.N; i++ {
			s.view.RouteCached(s.queries[order[i%len(order)]], cache, &sc)
		}
	}
}

// routeRarest pins the rarest-attribute scan's win on the shape it
// exists for: a hand-built view where every slot holds one hugely
// popular attribute plus one of 8 rare ones, queried with {popular,
// rare}. The scan drives from the rare list (32 slots), not the popular
// one (256): the first-attribute order would do 8x the work.
func routeRarest(*Fixtures) func(b *testing.B) {
	const slots = 256
	items := make([][]attr.Set, slots)
	assign := make([]cluster.CID, slots)
	for i := 0; i < slots; i++ {
		// The popular attribute 0 and one of the rare 1..8.
		items[i] = []attr.Set{attr.NewSet(0, attr.ID(1+i%8))}
		assign[i] = cluster.CID(i % 8)
	}
	view, err := core.FromViewData(core.ViewData{PopVersion: 1, Items: items, ClusterOf: assign})
	if err != nil {
		panic("benchsuite: RouteRarest view: " + err.Error())
	}
	query := attr.NewSet(0, 3)
	return func(b *testing.B) {
		b.ReportAllocs()
		var sc core.RouteScratch
		view.Route(query, &sc)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			view.Route(query, &sc)
		}
	}
}

// routerServe is the router tier's per-query path: a replica
// synchronized from one full wire record answers raw term queries
// through the same shared code as the daemon (term resolution + Route +
// response assembly). Its RouteCache is disabled so this keeps measuring
// the uncached pipeline (QueryServeHot owns the cached number).
func routerServe(f *Fixtures) func(b *testing.B) {
	s := f.serve
	vocab := s.sys.Gen.Vocab()
	raw := make([][]string, len(s.queries))
	for i, q := range s.queries {
		raw[i] = q.Names(vocab)
	}
	rt := router.New(router.Config{Upstream: "unused", RouteCache: -1})
	rec, err := viewwire.Decode(viewwire.AppendFull(nil, 1, vocab.Names(), s.view.Export()))
	if err == nil {
		err = rt.ApplyRecord(rec)
	}
	if err != nil {
		panic("benchsuite: RouterServe sync: " + err.Error())
	}
	return func(b *testing.B) {
		b.ReportAllocs()
		var sc api.Scratch
		for _, q := range raw {
			rt.AnswerQuery(q, &sc)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.AnswerQuery(raw[i%len(raw)], &sc)
		}
	}
}

// newcomer draws one joiner for sys. Every draw adds the joiner's terms
// to sys's query pools, so the next draw differs: a body constructor
// draws once, never the body itself, which runs once per b.N attempt.
func newcomer(sys *experiments.System, seed uint64) (*peer.Peer, []attr.Set, []int) {
	items, queries, counts := sys.NewcomerMaterials(0, 0, 0, stats.NewRNG(seed))
	pr := peer.New(-1)
	pr.SetItems(items)
	return pr, queries, counts
}

// What one join costs to make visible, on the daemon and on a router,
// at the Large population: both must stay proportional to the
// newcomer's footprint, not to the system.

// buildViewAfterJoin times what publishing a join costs the daemon:
// BuildRoutingView against the previous view right after one AddPeer.
// The join itself, and the leave and republish that restore the
// population for the next iteration, run with the timer stopped. The
// engine is left as it was found.
func buildViewAfterJoin(f *Fixtures) func(b *testing.B) {
	sys, eng := f.serve.sys, f.serve.eng
	pr, queries, counts := newcomer(sys, 6)
	return func(b *testing.B) {
		view := eng.BuildRoutingView(nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			id := eng.AddPeer(pr, queries, counts, cluster.None)
			b.StartTimer()
			view = eng.BuildRoutingView(view)
			b.StopTimer()
			eng.RemovePeer(id)
			view = eng.BuildRoutingView(view)
			b.StartTimer()
		}
	}
}

// routerApplyJoinDelta times what the same join costs a router replica:
// ApplyRecord of the decoded delta record that carries it, against a
// view synchronized from one full record, and reports the record's size
// as wire-B/join. The leave's delta, which restores the population for
// the next iteration, is applied with the timer stopped. The engine is
// left as it was found.
func routerApplyJoinDelta(f *Fixtures) func(b *testing.B) {
	sys, eng := f.serve.sys, f.serve.eng
	pr, queries, counts := newcomer(sys, 6)
	return func(b *testing.B) {
		decode := func(wire []byte) viewwire.Record {
			rec, err := viewwire.Decode(wire)
			if err != nil {
				b.Fatal(err)
			}
			return rec
		}
		base := eng.BuildRoutingView(nil)
		id := eng.AddPeer(pr, queries, counts, cluster.None)
		joined := eng.BuildRoutingView(base)
		eng.RemovePeer(id)
		left := eng.BuildRoutingView(joined)
		dj, _ := joined.DeltaFrom(base)
		dl, _ := left.DeltaFrom(joined)
		joinWire := viewwire.AppendViewDelta(nil, 2, nil, dj)
		join := decode(joinWire)
		leave := decode(viewwire.AppendViewDelta(nil, 3, nil, dl))

		rt := router.New(router.Config{Upstream: "unused", RouteCache: -1})
		if err := rt.ApplyRecord(decode(viewwire.AppendFull(nil, 1, sys.Gen.Vocab().Names(), base.Export()))); err != nil {
			b.Fatal(err)
		}
		pop := base.PopVersion()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Each record chains on the population version the previous
			// one left the replica at.
			join.BasePop, join.PopVersion = pop, pop+1
			leave.BasePop, leave.PopVersion = pop+1, pop+2
			pop += 2
			if err := rt.ApplyRecord(join); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := rt.ApplyRecord(leave); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(len(joinWire)), "wire-B/join")
	}
}
