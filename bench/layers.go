package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"

	"repro/bench/gen"
	"repro/internal/api"
	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/peer"
	"repro/internal/replog"
	"repro/internal/router"
	"repro/internal/viewwire"
)

// The trace pass measures the layers from outside. The daemon's
// handler is called on a recorder, with no socket: that span is the
// reference. Then the same input goes through each layer's public
// functions, one span around each call, in the order the handler calls
// them, against a twin engine. The twin is what the daemon keeps
// private; the replay is what the handler does, spelled out here so
// that every step has a name. How much of the reference the named
// steps add up to is reported, not assumed.

// replayQueries is how many requests the query replay issues.
const replayQueries = 2000

// replayMoves is how many relocations the delta replay makes.
const replayMoves = 16

// joinAnswer is the shape of the daemon's answer to a join.
type joinAnswer struct {
	ID      int     `json:"id"`
	Cluster int     `json:"cluster"`
	Peers   int     `json:"peers"`
	SCost   float64 `json:"scost"`
}

func post(path string, body []byte) (*httptest.ResponseRecorder, *http.Request) {
	return httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
}

// mallocs is the process's cumulative heap-object count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// serveLayers fills in the per-layer numbers of a serving workload and
// prints its two budget tables. draw is the workload's own query
// sequence and batches its batch bodies, if it sends any.
func serveLayers(b *built, tr *tracer, v values, draw []int32, batches [][]byte, log io.Writer) {
	topo, in := b.topo, b.in
	tw := newTwin(topo.leader.srv.Snapshot())
	names, terms := tw.terms()
	view := tw.eng.BuildRoutingView(nil)
	cache := core.NewRouteCache(0)

	// Where a POST /v1/query goes. What the daemon's mux and its
	// api.Instrument wrapper cost is replayed with a handler that does
	// nothing behind them.
	dispatch := http.NewServeMux()
	dispatch.HandleFunc("POST /v1/query", api.Instrument(new(api.EndpointMetrics), func(http.ResponseWriter, *http.Request) {}))
	n := min(replayQueries, len(draw))
	sets := make([]attr.Set, n)
	for i := range sets {
		ids := make([]attr.ID, 0, 2)
		for _, t := range in.Pool[draw[i]].Terms {
			ids = append(ids, terms[t])
		}
		sets[i] = attr.NewSet(ids...)
	}
	for i := 0; i < n; i++ {
		body := in.Pool[draw[i]].Body
		rec, req := post("/v1/query", body)
		tr.in("service.handler_query", -1, i, func() { topo.leader.h.ServeHTTP(rec, req) })
		if topo.rth != nil {
			rec, req := post("/v1/query", body)
			tr.in("router.handler_query", -1, i, func() { topo.rth.ServeHTTP(rec, req) })
		}
		rec, req = post("/v1/query", body)
		root := tr.begin("replay.query", -1, i)
		tr.in("api.dispatch", root, i, func() { dispatch.ServeHTTP(rec, req) })
		var qr api.QueryRequest
		tr.in("api.decode", root, i, func() { api.DecodeStrict(rec, req, "query", &qr) })
		sc := api.GetScratch()
		var resp api.QueryResponse
		tr.in("api.answer", root, i, func() { resp = api.AnswerQuery(terms, view, cache, qr.Terms, sc) })
		tr.in("api.encode", root, i, func() { api.WriteJSON(rec, http.StatusOK, resp) })
		api.PutScratch(sc)
		tr.end(root)
	}
	// A routed query costs a few hundred nanoseconds, about what a span
	// costs: these two are timed as one span over all n and divided.
	var rsc core.RouteScratch
	id := tr.begin("core.route", -1, 0)
	for _, q := range sets {
		view.Route(q, &rsc)
	}
	tr.end(id)
	v["core.route_us"] = float64(tr.spans[id].End-tr.spans[id].Start) / 1e3 / float64(n)
	hot := core.NewRouteCache(0)
	for _, q := range sets {
		view.RouteCached(q, hot, &rsc)
	}
	id = tr.begin("core.route_cached", -1, 0)
	for _, q := range sets {
		view.RouteCached(q, hot, &rsc)
	}
	tr.end(id)
	v["core.route_cached_hit_us"] = float64(tr.spans[id].End-tr.spans[id].Start) / 1e3 / float64(n)

	// Allocations per request through the handler: the loop's count
	// minus what building the request and the recorder allocates.
	m0 := mallocs()
	for i := 0; i < n; i++ {
		post("/v1/query", in.Pool[draw[i]].Body)
	}
	m1 := mallocs()
	for i := 0; i < n; i++ {
		rec, req := post("/v1/query", in.Pool[draw[i]].Body)
		topo.leader.h.ServeHTTP(rec, req)
	}
	v["api.allocs_per_request"] = (float64(mallocs()-m1) - float64(m1-m0)) / float64(n)

	if len(batches) > 0 {
		distinct := 0
		nb := min(replayQueries/16, len(batches))
		for i := 0; i < nb; i++ {
			rec, req := post("/v1/query/batch", batches[i])
			tr.in("service.handler_batch", -1, i, func() { topo.leader.h.ServeHTTP(rec, req) })
			seen := map[int32]bool{}
			for _, ix := range draw[i*in.Sizes.Batch : (i+1)*in.Sizes.Batch] {
				seen[ix] = true
			}
			distinct += len(seen)
		}
		v["api.batch_distinct_ratio"] = float64(distinct) / float64(nb*in.Sizes.Batch)
	}

	// Where a join goes. The kits after the schedule's are the replay's.
	scratch := router.New(router.Config{Upstream: topo.leader.url()})
	defer scratch.Shutdown()
	wlog := replog.NewLog()
	var fullBytes, entryBytes, allocMB samples
	kits := in.Kits[len(in.Kits)-1-replayJoins : len(in.Kits)-1]
	for i, kit := range kits {
		// The reference: the daemon's own handlers, join then leave.
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		rec, req := post("/v1/peers", kit.Body)
		tr.in("service.handler_join", -1, i, func() { topo.leader.h.ServeHTTP(rec, req) })
		runtime.ReadMemStats(&ms1)
		allocMB = append(allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		var ja joinAnswer
		if err := json.Unmarshal(rec.Body.Bytes(), &ja); err != nil || rec.Code != http.StatusCreated {
			fmt.Fprintf(log, "join replay %d: status %d: %s\n", i, rec.Code, rec.Body.Bytes())
			continue
		}
		rec = httptest.NewRecorder()
		req = httptest.NewRequest(http.MethodDelete, fmt.Sprintf("/v1/peers/%d", ja.ID), nil)
		tr.in("service.handler_leave", -1, i, func() { topo.leader.h.ServeHTTP(rec, req) })
		// The replicas apply both in the background; let them finish
		// before the twin's steps are timed.
		if err := topo.waitReplicas(); err != nil {
			fmt.Fprintf(log, "join replay %d: %v\n", i, err)
		}

		// The same join, step by step, on the twin.
		rec, req = post("/v1/peers", kit.Body)
		root := tr.begin("replay.join", -1, i)
		var jb gen.JoinBody
		tr.in("api.decode_join", root, i, func() { api.DecodeStrict(rec, req, "join", &jb) })
		var items, queries []attr.Set
		counts := make([]int, len(jb.Queries))
		tr.in("attr.intern", root, i, func() {
			items = tw.sets(jb.Items)
			for k, q := range jb.Queries {
				queries = append(queries, attr.NewSet(tw.vocab.InternAll(q.Terms)...))
				counts[k] = q.Count
			}
		})
		var pid int
		tr.in("core.add_peer", root, i, func() {
			pr := peer.New(-1)
			pr.SetItems(items)
			pid = tw.eng.AddPeer(pr, queries, counts, cluster.None)
		})
		var entry replog.Entry
		tr.in("replog.encode_join", root, i, func() {
			op := replog.JoinOp{Items: jb.Items, Queries: make([]replog.QueryCount, len(jb.Queries)), Slot: pid, Cluster: int(tw.eng.Config().ClusterOf(pid))}
			for k, q := range jb.Queries {
				op.Queries[k] = replog.QueryCount{Terms: q.Terms, Count: q.Count}
			}
			entry = wlog.Next(1, replog.KindJoin, replog.EncodeOp(op))
		})
		// The kit's novel term grew the vocabulary, so the daemon
		// rebuilds the term table it publishes with the view.
		tr.in("service.term_table", root, i, func() { names, terms = tw.terms() })
		prev := view
		tr.in("core.build_view_join", root, i, func() { view = tw.eng.BuildRoutingView(prev) })
		var ans joinAnswer
		tr.in("core.gauges", root, i, func() {
			ans = joinAnswer{pid, int(tw.eng.Config().ClusterOf(pid)), tw.eng.NumPeers(), tw.eng.SCostNormalized()}
			_, _, _ = tw.eng.Config().NumNonEmpty(), tw.eng.DeadQueries(0), tw.eng.WCostNormalized()
		})
		tr.in("api.encode_join", root, i, func() { api.WriteJSON(rec, http.StatusCreated, ans) })
		tr.end(root)

		// What the join costs downstream before a router shows it.
		root = tr.begin("replay.propagate", -1, i)
		var wire []byte
		tr.in("viewwire.encode_full", root, i, func() { wire = viewwire.AppendFull(nil, uint64(i+1), names, view.Export()) })
		var full viewwire.Record
		tr.in("viewwire.decode_full", root, i, func() { full, _ = viewwire.Decode(wire) })
		tr.in("router.apply_full", root, i, func() {
			if err := scratch.ApplyRecord(full); err != nil {
				fmt.Fprintf(log, "join replay %d: %v\n", i, err)
			}
		})
		feed := replog.AppendEntries(nil, 1, []replog.Entry{entry})
		tr.in("replog.decode_record", root, i, func() { _, _ = replog.DecodeRecord(feed) })
		tr.end(root)
		fullBytes, entryBytes = append(fullBytes, float64(len(wire))), append(entryBytes, float64(len(feed)))

		root = tr.begin("replay.leave", -1, i)
		tr.in("core.remove_peer", root, i, func() { tw.eng.RemovePeer(pid) })
		tr.end(root)
		view = tw.eng.BuildRoutingView(view)
	}

	// Where a relocation goes: the delta a maintenance step publishes.
	wire := viewwire.AppendFull(nil, 1, names, view.Export())
	if full, err := viewwire.Decode(wire); err == nil {
		err = scratch.ApplyRecord(full)
		var deltaBytes samples
		for i := 0; i < replayMoves && err == nil; i++ {
			p := i % tw.eng.NumSlots()
			to := tw.eng.Config().ClusterOf((p + 1) % tw.eng.NumSlots())
			if !tw.eng.IsLive(p) || to == cluster.None || to == tw.eng.Config().ClusterOf(p) {
				continue
			}
			tw.eng.Move(p, to)
			root := tr.begin("replay.move", -1, i)
			prev := view
			tr.in("core.build_view_move", root, i, func() { view = tw.eng.BuildRoutingView(prev) })
			moves, ok := view.DiffFrom(prev)
			if !ok {
				tr.end(root)
				break
			}
			var delta []byte
			tr.in("viewwire.encode_delta", root, i, func() { delta = viewwire.AppendDelta(nil, uint64(i+2), view.PopVersion(), moves) })
			dr, derr := viewwire.Decode(delta)
			if derr == nil {
				tr.in("router.apply_delta", root, i, func() { err = scratch.ApplyRecord(dr) })
			}
			tr.end(root)
			deltaBytes = append(deltaBytes, float64(len(delta)))
		}
		if err != nil {
			fmt.Fprintf(log, "move replay: %v\n", err)
		}
		v["viewwire.delta_bytes"] = median(deltaBytes)
	}

	by := tr.byName()
	for span, name := range map[string]string{
		"service.handler_query": "service.handler_query_us",
		"service.handler_batch": "service.handler_batch_us",
		"service.handler_join":  "service.handler_join_us",
		"service.handler_leave": "service.handler_leave_us",
		"router.handler_query":  "router.handler_query_us",
		"api.dispatch":          "api.dispatch_us",
		"api.decode":            "api.decode_us",
		"api.answer":            "api.answer_us",
		"api.encode":            "api.encode_us",
		"core.add_peer":         "core.add_peer_us",
		"core.remove_peer":      "core.remove_peer_us",
		"core.build_view_join":  "core.build_view_join_us",
		"core.build_view_move":  "core.build_view_move_us",
		"core.gauges":           "core.gauges_us",
		"replog.encode_join":    "replog.encode_join_us",
		"replog.decode_record":  "replog.decode_record_us",
		"viewwire.encode_full":  "viewwire.encode_full_us",
		"viewwire.decode_full":  "viewwire.decode_full_us",
		"viewwire.encode_delta": "viewwire.encode_delta_us",
		"router.apply_full":     "router.apply_full_us",
		"router.apply_delta":    "router.apply_delta_us",
	} {
		v[name] = by[span].selfP50
	}
	v["viewwire.full_bytes"] = median(fullBytes)
	v["replog.join_entry_bytes"] = median(entryBytes)
	v["runtime.alloc_mb_per_join"] = median(allocMB)

	// Derived: what of the join handler neither the engine, the codecs
	// nor the log explain is the publish.
	joinSteps := []string{"api.decode_join", "attr.intern", "core.add_peer", "replog.encode_join", "service.term_table", "core.build_view_join", "core.gauges", "api.encode_join"}
	if h := v["service.handler_join_us"]; h > 0 {
		named := 0.0
		for _, step := range joinSteps {
			named += by[step].selfP50
		}
		v["service.join_accounted_ratio"] = named / h
		v["service.publish_us"] = h - v["core.add_peer_us"] - by["api.decode_join"].selfP50 - by["api.encode_join"].selfP50 - v["replog.encode_join_us"]
	}
	if h := v["service.handler_query_us"]; h > 0 {
		v["service.query_accounted_ratio"] = (v["api.dispatch_us"] + v["api.decode_us"] + v["api.answer_us"] + v["api.encode_us"]) / h
	}
	// What the client saw beyond the handler its requests went to is
	// net/http and the socket.
	switch {
	case len(batches) > 0:
		v["nethttp.overhead_us"] = v["client.query_p50_us"] - v["service.handler_batch_us"]
	case topo.follower != nil: // the churn workload reads from the router
		v["nethttp.overhead_us"] = v["client.query_p50_us"] - v["router.handler_query_us"]
	default:
		v["nethttp.overhead_us"] = v["client.query_p50_us"] - v["service.handler_query_us"]
	}

	// Counters the nodes kept while the workload ran.
	if st, err := handlerStats(topo.leader.h); err == nil {
		v["service.views_published"] = st.PublishedViews
		v["service.watch_full"], v["service.watch_delta"] = st.WatchFull, st.WatchDelta
		v["service.lock_hold_mean_us"] = st.MutationLock.MeanUs
		v["protocol.rounds"], v["protocol.moves"] = st.Rounds, st.Moves
		v["protocol.scan_evaluated"] = st.Maintenance.Scanned
		if all := st.Maintenance.Scanned + st.Maintenance.SkippedClean; all > 0 {
			v["protocol.scan_skipped_clean_ratio"] = st.Maintenance.SkippedClean / all
		}
		hits, misses, evictions := st.RouteCache.Hits, st.RouteCache.Misses, st.RouteCache.Evictions
		if topo.rt != nil {
			if rs, err := handlerStats(topo.rth); err == nil {
				hits, misses, evictions = hits+rs.RouteCache.Hits, misses+rs.RouteCache.Misses, evictions+rs.RouteCache.Evictions
			}
			v["router.full_syncs"], v["router.delta_syncs"] = float64(topo.rt.FullSyncs()), float64(topo.rt.DeltaSyncs())
			v["router.sync_errors"] = float64(topo.rt.SyncErrors())
		}
		if hits+misses > 0 {
			v["core.cache_hit_ratio"] = hits / (hits + misses)
		}
		v["core.cache_evictions"] = evictions
	}
	v["service.first_join_ms"] = b.firstJoinMs
	v["experiments.build_system_ms"] = ms(in.BuildTime)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	v["runtime.heap_peak_mb"] = float64(mem.HeapSys) / (1 << 20)

	fmt.Fprint(log, budgetTable("where a POST /v1/query goes", by, "service.handler_query",
		[]string{"api.dispatch", "api.decode", "api.answer", "api.encode"}))
	fmt.Fprintf(log, "  %-26s %10.1f us        (client p50 minus its handler)\n", "net/http and the socket", v["nethttp.overhead_us"])
	fmt.Fprint(log, budgetTable("where a join goes", by, "service.handler_join",
		append(joinSteps, "viewwire.encode_full", "viewwire.decode_full", "router.apply_full")))
}
