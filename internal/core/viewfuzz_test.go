package core

import (
	"slices"
	"testing"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/peer"
	"repro/internal/stats"
)

// fuzzAttrs is the alphabet FuzzRoutingView's items draw from: dense
// low IDs and a few on later posting pages.
var fuzzAttrs = []attr.ID{0, 1, 2, 3, 4, 5, 70, 71, 140}

// fuzzItems returns n items of zero to three attributes from fuzzAttrs,
// drawn from a generator seeded by the op that asks for them.
func fuzzItems(n int, seed uint64) []attr.Set {
	rng := stats.NewRNG(seed)
	items := make([]attr.Set, n)
	for i := range items {
		ids := make([]attr.ID, rng.Intn(4))
		for k := range ids {
			ids[k] = fuzzAttrs[rng.Intn(len(fuzzAttrs))]
		}
		items[i] = attr.NewSet(ids...)
	}
	return items
}

// bruteRoute is Route by definition: result(q,p) counted item by item
// with SubsetOf over every live peer, summed per cluster, hits in
// ascending cluster order. The empty query routes nowhere.
func bruteRoute(e *Engine, q attr.Set) (total int, hits []RouteHit) {
	if q.IsEmpty() {
		return 0, nil
	}
	per := make(map[cluster.CID]int)
	for pid, p := range e.peers {
		if !e.IsLive(pid) {
			continue
		}
		for _, it := range p.Items() {
			if q.SubsetOf(it) {
				per[e.cfg.ClusterOf(pid)]++
				total++
			}
		}
	}
	cids := make([]cluster.CID, 0, len(per))
	for c := range per {
		cids = append(cids, c)
	}
	slices.Sort(cids)
	for _, c := range cids {
		hits = append(hits, RouteHit{Cluster: c, Size: e.cfg.Size(c), Results: per[c]})
	}
	return total, hits
}

// FuzzRoutingView drives an engine through a byte-decoded op stream —
// joins of peers holding 0 to 80 items (past 32 a peer is wide), leaves,
// a slot vacated and refilled between two builds, a slot added and
// vacated between two builds, moves — and after every op checks three
// views against the brute-force count: the engine's incremental view,
// a from-scratch build, and a replica carried along by
// DeltaFrom/ApplyDelta alone. Every view's posting table must also
// match its peers entry by entry, and the incremental and replica
// views must equal the scratch one, posting tables included. The queries include unknown,
// negative and past-the-table attribute IDs.
func FuzzRoutingView(f *testing.F) {
	f.Add([]byte{0, 3, 0, 65, 4, 1, 2, 6, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 96 {
			ops = ops[:96]
		}
		e := newTestEngine(t, 6, 8, 1, nil)
		incr := e.BuildRoutingView(nil)
		replica, err := FromViewData(incr.Export())
		if err != nil {
			t.Fatal(err)
		}
		replicaBase := incr
		live := func() []int {
			var pids []int
			for pid := range e.NumSlots() {
				if e.IsLive(pid) {
					pids = append(pids, pid)
				}
			}
			return pids
		}
		join := func(i int, arg byte) int {
			pr := peer.New(-1)
			pr.SetItems(fuzzItems(int(arg)%81, uint64(i)<<8|uint64(arg)))
			return e.AddPeer(pr, []attr.Set{attr.NewSet(fuzzAttrs[int(arg)%len(fuzzAttrs)])}, []int{1}, cluster.None)
		}
		leave := func(arg byte) {
			if pids := live(); len(pids) > 1 {
				e.RemovePeer(pids[int(arg)%len(pids)])
			}
		}
		var sc RouteScratch
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			switch op % 5 {
			case 0:
				join(i, arg)
			case 1:
				leave(arg)
			case 2: // the vacated slot is the joiner's
				leave(arg)
				join(i, arg)
			case 3: // a slot no view sees occupied
				e.RemovePeer(join(i, arg))
			case 4:
				pids := live()
				e.Move(pids[int(arg)%len(pids)], cluster.CID(int(arg)%e.Config().Cmax()))
			}

			incr = e.BuildRoutingView(incr)
			scratch := e.BuildRoutingView(nil)
			d, ok := incr.DeltaFrom(replicaBase)
			if !ok {
				t.Fatalf("op %d: no delta within one engine lineage", i)
			}
			if replica, err = replica.ApplyDelta(d); err != nil {
				t.Fatalf("op %d: apply delta: %v", i, err)
			}
			replicaBase = incr
			views := []struct {
				name string
				v    *RoutingView
			}{{"incremental", incr}, {"scratch", scratch}, {"replica", replica}}
			for _, w := range views {
				if err := checkPostingTable(w.v); err != nil {
					t.Fatalf("op %d: %s view: %v", i, w.name, err)
				}
				if err := sameView(scratch, w.v); err != nil {
					t.Fatalf("op %d: %s export: %v", i, w.name, err)
				}
			}

			qs := []attr.Set{
				{},
				attr.NewSet(0, 1), attr.NewSet(1, 2), attr.NewSet(0, 70), attr.NewSet(70, 71),
				attr.NewSet(0, 1, 2), attr.NewSet(3, 4, 140),
				attr.NewSet(fuzzAttrs[int(arg)%len(fuzzAttrs)], fuzzAttrs[int(arg)/len(fuzzAttrs)%len(fuzzAttrs)]),
				attr.NewSet(attr.ID(1 << 20)), attr.NewSet(-1), attr.NewSet(-5, 0),
				attr.NewSet(attr.ID(1 << 30)), attr.NewSet(attr.ID(1<<31 - 1)), attr.NewSet(0, attr.ID(1<<30)),
			}
			for _, a := range fuzzAttrs {
				qs = append(qs, attr.NewSet(a))
			}
			for _, q := range qs {
				wantTotal, wantHits := bruteRoute(e, q)
				for _, w := range views {
					gotTotal, gotHits := w.v.Route(q, &sc)
					if gotTotal != wantTotal || !sameHits(gotHits, wantHits) {
						t.Fatalf("op %d: %s view: query %v: (%d, %v), brute force (%d, %v)",
							i, w.name, q, gotTotal, gotHits, wantTotal, wantHits)
					}
				}
			}
		}
	})
}
