package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/peer"
	"repro/internal/stats"
)

// sameView compares two views field by field: content and assignment
// through their exports, and posting tables entry by entry, lists
// exactly: every list ascends by slot, however the view was derived.
func sameView(va, vb *RoutingView) error {
	a, b := va.Export(), vb.Export()
	if a.PopVersion != b.PopVersion {
		return fmt.Errorf("pop version %d != %d", a.PopVersion, b.PopVersion)
	}
	if !slices.Equal(a.ClusterOf, b.ClusterOf) {
		return fmt.Errorf("assignment %v != %v", a.ClusterOf, b.ClusterOf)
	}
	if len(a.Items) != len(b.Items) {
		return fmt.Errorf("%d item slots != %d", len(a.Items), len(b.Items))
	}
	for slot := range a.Items {
		if !slices.EqualFunc(a.Items[slot], b.Items[slot], attr.Set.Equal) {
			return fmt.Errorf("slot %d content %v != %v", slot, a.Items[slot], b.Items[slot])
		}
	}
	// One table may cover more attribute IDs than the other (a page
	// whose last list emptied stays in the directory); past its end a
	// table holds nothing.
	for id := range max(len(va.postings.pages), len(vb.postings.pages)) << postingPageBits {
		la, lb := va.postings.get(attr.ID(id)), vb.postings.get(attr.ID(id))
		if !slices.Equal(la, lb) {
			return fmt.Errorf("posting list of attr %d: %v != %v", id, la, lb)
		}
	}
	return nil
}

// freshPages counts the posting pages of v that prev does not share.
func freshPages(prev, v *RoutingView) int {
	n := 0
	for i, pg := range v.postings.pages {
		if pg != nil && (i >= len(prev.postings.pages) || pg != prev.postings.pages[i]) {
			n++
		}
	}
	return n
}

// checkPostingTable verifies v's posting table against its peers: every
// list ascends by slot and names live slots only, every entry's mask
// holds exactly the items of its slot's peer that hold the attribute
// (mask 0 for a wide peer), and every attribute of every live peer has
// its entry.
func checkPostingTable(v *RoutingView) error {
	entries := 0
	for pi, pg := range v.postings.pages {
		if pg == nil {
			continue
		}
		for k, lst := range pg {
			a := attr.ID(pi<<postingPageBits | k)
			for i, e := range lst {
				if i > 0 && e.slot <= lst[i-1].slot {
					return fmt.Errorf("attr %d: slot %d after slot %d", a, e.slot, lst[i-1].slot)
				}
				if e.slot < 0 || int(e.slot) >= len(v.peers) || v.peers[e.slot] == nil {
					return fmt.Errorf("attr %d lists unoccupied slot %d", a, e.slot)
				}
				var want uint32
				if items := v.peers[e.slot].Items(); len(items) <= maskItems {
					for j, it := range items {
						if it.Contains(a) {
							want |= 1 << j
						}
					}
				}
				if e.mask != want {
					return fmt.Errorf("attr %d slot %d: mask %b, items hold %b", a, e.slot, e.mask, want)
				}
				entries++
			}
		}
	}
	held := 0
	for _, p := range v.peers {
		if p != nil {
			held += len(p.Attrs())
		}
	}
	if held != entries {
		return fmt.Errorf("%d entries for %d (peer, attribute) pairs", entries, held)
	}
	return nil
}

// wideSizes are the item counts around and past what a mask carries.
var wideSizes = []int{31, 32, 33, 63, 64, 65, 200}

// joiner builds a peer over the given items, one query on its first
// attribute.
func joiner(items ...attr.Set) (*peer.Peer, []attr.Set, []int) {
	pr := peer.New(-1)
	pr.SetItems(items)
	return pr, []attr.Set{attr.NewSet(items[0].IDs()[0])}, []int{1}
}

// TestIncrementalViewMatchesScratchProperty is the view's oracle:
// across randomized joins, leaves and relocations — several between two
// builds, so that slots are reused, joined and vacated again, and
// posting lists emptied without any view seeing the middle — the view
// built from its predecessor, and a replica's view carried along by
// DeltaFrom/ApplyDelta alone, both equal a from-scratch build in their
// export and answer every query identically. Some joiners are wide
// (wideSizes), so every path crosses the entries Route answers from
// the peer, slot reuse included.
func TestIncrementalViewMatchesScratchProperty(t *testing.T) {
	// Attribute IDs are spread over many pages so that page sharing is
	// visible, with a tail of rare ones that joins take and leaves
	// empty again.
	const spread = 40 * postingPageLen
	for _, seed := range []uint64{2, 31, 777} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			e := newTestEngine(t, 24, 12, seed, nil)
			rng := stats.NewRNG(seed ^ 0x5eed)
			rare := func() attr.ID { return attr.ID(12 + rng.Intn(spread)) }
			common := func() attr.ID { return attr.ID(rng.Intn(12)) }

			incr := e.BuildRoutingView(nil)
			replica, err := FromViewData(incr.Export())
			if err != nil {
				t.Fatal(err)
			}
			replicaBase := incr // the engine view the replica stands at
			var joined []int    // slots this test filled
			join := func() int {
				items := []attr.Set{attr.NewSet(common(), rare()), attr.NewSet(rare())}
				if rng.Intn(4) == 0 {
					// Over common attributes and one rare one, so the
					// joiner touches two pages however many items it has.
					r := rare()
					items = make([]attr.Set, wideSizes[rng.Intn(len(wideSizes))])
					for i := range items {
						items[i] = attr.NewSet(common(), common())
						if i%3 == 0 {
							items[i] = attr.NewSet(common(), r)
						}
					}
				}
				pr, qs, counts := joiner(items...)
				pid := e.AddPeer(pr, qs, counts, cluster.None)
				joined = append(joined, pid)
				return pid
			}
			leave := func() {
				if len(joined) == 0 {
					return
				}
				k := rng.Intn(len(joined))
				e.RemovePeer(joined[k])
				joined = slices.Delete(joined, k, k+1)
			}
			for step := 0; step < 60; step++ {
				switch rng.Intn(6) {
				case 0:
					join()
				case 1:
					leave()
				case 2: // slot reuse between two builds
					leave()
					join()
				case 3: // one slot joined and vacated between two builds
					pid := join()
					e.RemovePeer(pid)
					joined = joined[:len(joined)-1]
				case 4: // a lone holder of an attribute comes and, later, goes
					pr, qs, counts := joiner(attr.NewSet(attr.ID(12 + spread + step)))
					joined = append(joined, e.AddPeer(pr, qs, counts, cluster.None))
				case 5:
					for k := 0; k < 3; k++ {
						if pid := rng.Intn(e.NumSlots()); e.IsLive(pid) {
							e.Move(pid, cluster.CID(rng.Intn(8)))
						}
					}
				}
				prev := incr
				incr = e.BuildRoutingView(prev)
				scratch := e.BuildRoutingView(nil)
				if err := sameView(scratch, incr); err != nil {
					t.Fatalf("step %d: incremental view: %v", step, err)
				}
				for name, v := range map[string]*RoutingView{"incremental": incr, "scratch": scratch} {
					if err := checkPostingTable(v); err != nil {
						t.Fatalf("step %d: %s view: %v", step, name, err)
					}
				}
				// At most two peers changed, each over at most three pages.
				if n := freshPages(prev, incr); n > 6 {
					t.Fatalf("step %d: the build copied %d of %d posting pages, more than the change touched",
						step, n, len(incr.postings.pages))
				}

				// The replica skips some views, as a watcher served from
				// the ring does.
				if rng.Intn(3) > 0 {
					d, ok := incr.DeltaFrom(replicaBase)
					if !ok {
						t.Fatalf("step %d: no delta within one engine lineage", step)
					}
					if replica, err = replica.ApplyDelta(d); err != nil {
						t.Fatalf("step %d: apply delta: %v", step, err)
					}
					replicaBase = incr
					if err := sameView(scratch, replica); err != nil {
						t.Fatalf("step %d: replica view: %v", step, err)
					}
					if err := checkPostingTable(replica); err != nil {
						t.Fatalf("step %d: replica view: %v", step, err)
					}
					if replica.Live() != scratch.Live() {
						t.Fatalf("step %d: replica counts %d live peers, engine %d", step, replica.Live(), scratch.Live())
					}
				}

				qs := append(testQueries(e, rng),
					attr.NewSet(common(), rare()),
					attr.NewSet(attr.ID(12+spread+step)),
					attr.NewSet(attr.ID(12+spread+10*postingPageLen)), // past the last page
					attr.NewSet(attr.ID(1<<31-1)),
					attr.NewSet(0, attr.ID(1<<30)))
				checkViewsAgree(t, scratch, incr, qs, "incremental")
				checkViewMatchesOracle(t, e, incr, qs, "incremental vs engine")
				if replicaBase == incr {
					checkViewsAgree(t, scratch, replica, qs, "replica")
				}
			}
		})
	}
}

// TestViewDeltaBoundaries pins when a delta exists and what ApplyDelta
// refuses: views of different engines, or across a Rebuild, have none;
// a delta applies only to the population version it was taken from, and
// may not vacate an empty slot, skip a slot, change slots out of order,
// name a negative attribute, or move a vacated one.
func TestViewDeltaBoundaries(t *testing.T) {
	e := newTestEngine(t, 12, 8, 5, nil)
	v1 := e.BuildRoutingView(nil)
	other := newTestEngine(t, 12, 8, 5, nil).BuildRoutingView(nil)
	if _, ok := other.DeltaFrom(v1); ok {
		t.Error("DeltaFrom diffed views of two engines")
	}
	imported, err := FromViewData(v1.Export())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v1.DeltaFrom(imported); ok {
		t.Error("DeltaFrom diffed an engine view against an imported one")
	}
	pr, qs, counts := joiner(attr.NewSet(1, 2))
	pid := e.AddPeer(pr, qs, counts, cluster.None)
	v2 := e.BuildRoutingView(v1)
	d, ok := v2.DeltaFrom(v1)
	if !ok || len(d.Changed) != 1 || int(d.Changed[0].Slot) != pid || d.BasePop != v1.PopVersion() || d.PopVersion != v2.PopVersion() {
		t.Fatalf("join delta %+v (ok=%v), want the one new slot %d from pop %d to %d", d, ok, pid, v1.PopVersion(), v2.PopVersion())
	}
	next, err := imported.ApplyDelta(d)
	if err != nil {
		t.Fatalf("chained delta rejected: %v", err)
	}
	if _, err := next.ApplyDelta(d); err == nil {
		t.Error("delta applied twice: base population version not checked")
	}
	for name, bad := range map[string]ViewDelta{
		"vacates an empty slot": {Changed: []SlotChange{{Slot: 3, Cluster: cluster.None}, {Slot: 3, Cluster: cluster.None}}},
		"skips a slot":          {Changed: []SlotChange{{Slot: int32(next.Slots() + 1), Cluster: 0}}},
		"negative slot":         {Changed: []SlotChange{{Slot: -1, Cluster: 0}}},
		"invalid cluster":       {Changed: []SlotChange{{Slot: 0, Cluster: -2}}},
		"moves a vacated slot":  {Changed: []SlotChange{{Slot: 3, Cluster: cluster.None}}, Moves: []SlotMove{{Slot: 3, To: 1}}},
		"changes out of order":  {Changed: []SlotChange{{Slot: 5, Cluster: cluster.None}, {Slot: 2, Cluster: cluster.None}}},
		"negative attribute":    {Changed: []SlotChange{{Slot: 3, Cluster: 0, Items: []attr.Set{attr.NewSet(-4, 1)}}}},
	} {
		bad.BasePop, bad.PopVersion = next.PopVersion(), next.PopVersion()+1
		if _, err := next.ApplyDelta(bad); err == nil {
			t.Errorf("ApplyDelta accepted a delta that %s", name)
		}
	}
	if err := sameView(v2, next); err != nil {
		t.Errorf("rejected deltas changed the view they were applied to: %v", err)
	}

	e.Rebuild()
	v3 := e.BuildRoutingView(v2)
	if _, ok := v3.DeltaFrom(v2); ok {
		t.Error("DeltaFrom diffed across a Rebuild, which may have edited peers in place")
	}
	if n := freshPages(v2, v3); n == 0 || n != freshPages(&RoutingView{}, v3) {
		t.Error("BuildRoutingView shared posting pages across a Rebuild")
	}
}

// TestRouteCacheDoesNotPinSupersededView pins the satellite fix: cache
// entries computed against a view outlive it without keeping it — or,
// on a router, the peers only it holds — reachable.
func TestRouteCacheDoesNotPinSupersededView(t *testing.T) {
	e := newTestEngine(t, 24, 12, 41, nil)
	rng := stats.NewRNG(9)
	data := e.BuildRoutingView(nil).Export()
	cache := NewRouteCache(256)
	collected := make(chan string, 2)
	var oldID uint64
	func() {
		old, err := FromViewData(data) // as a router holds it: nothing shared
		if err != nil {
			t.Fatal(err)
		}
		oldID = old.id
		var sc RouteScratch
		for _, q := range testQueries(e, rng) {
			old.RouteCached(q, cache, &sc)
		}
		runtime.SetFinalizer(old, func(*RoutingView) { collected <- "view" })
		runtime.SetFinalizer(old.peers[0], func(*peer.Peer) { collected <- "peer" })
	}()
	for got := 0; got < 2; {
		runtime.GC()
		select {
		case <-collected:
			got++
		case <-time.After(2 * time.Second):
			t.Fatalf("superseded view still reachable after GC (%d of 2 finalizers ran)", got)
		}
	}
	resident := 0
	for i := range cache.slots {
		if en := cache.slots[i].Load(); en != nil && en.view == oldID {
			resident++
		}
	}
	if resident == 0 {
		t.Fatal("the cache held no entry of the collected view: the test pinned nothing")
	}
}
