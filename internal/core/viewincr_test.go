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

// sameView compares two views field by field: population version,
// assignment and each slot's content, and posting tables entry by
// entry, lists exactly: every list ascends by slot, however the view was
// derived.
func sameView(va, vb *RoutingView) error {
	if va.popVersion != vb.popVersion {
		return fmt.Errorf("pop version %d != %d", va.popVersion, vb.popVersion)
	}
	if !slices.Equal(va.clusterOf, vb.clusterOf) {
		return fmt.Errorf("assignment %v != %v", va.clusterOf, vb.clusterOf)
	}
	if len(va.peers) != len(vb.peers) {
		return fmt.Errorf("%d item slots != %d", len(va.peers), len(vb.peers))
	}
	for slot, pa := range va.peers {
		pb := vb.peers[slot]
		if pa != pb && ((pa == nil) != (pb == nil) || !slices.EqualFunc(pa.SharedItems(), pb.SharedItems(), attr.Set.Equal)) {
			return fmt.Errorf("slot %d content %v != %v", slot, va.Export().Items[slot], vb.Export().Items[slot])
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
				if items := v.peers[e.slot].SharedItems(); len(items) <= maskItems {
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

// TestIncrementalViewMatchesScratchProperty runs the op driver, which
// after every op holds the view built from its predecessor, a
// from-scratch build and a replica carried along by DeltaFrom/ApplyDelta
// to each other and to a brute-force count, from 24 singletons. Joins
// and leaves reuse slots, join and vacate them between two builds, and
// empty posting lists without any view seeing the middle; some joiners
// are wide (up to 200 items), past what a posting mask carries, and some
// bring content spread over 40 posting pages.
func TestIncrementalViewMatchesScratchProperty(t *testing.T) {
	t.Parallel()
	for _, seed := range []uint64{2, 31, 777} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			d := newDriver(t, fixture{n: 24, alpha: 1, seed: seed}, splitOf(seed))
			d.runSeeded(seed^0x5eed, 60)
			d.finish()
			if slices.Max(d.joins) <= maskItems || d.reused == 0 || d.rare == 0 {
				t.Errorf("joins of %v items, %d slots reused, %d with rare content: no wide joiner, no reuse or no rare content",
					d.joins, d.reused, d.rare)
			}
		})
	}
}

// FuzzRoutingView runs the op driver over a byte-decoded op stream from
// six singletons, never cloned. The seeds in
// testdata/fuzz/FuzzRoutingView join peers of 0, 32, 33, 63, 64, 65 and
// 80 items (a posting mask carries 32) and reuse a slot between two
// builds; the log says what each reached.
func FuzzRoutingView(f *testing.F) {
	f.Add([]byte{1, 3, 81, 65, 2, 1, 93, 6, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 96 {
			ops = ops[:96]
		}
		d := newDriver(t, fixture{n: 6, alpha: 1, seed: 1}, noClone)
		d.run(ops)
		d.finish()
		t.Logf("joins of %v items, %d slots reused at once", d.joins, d.reused)
	})
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
	pr := peer.New(-1)
	pr.SetItems([]attr.Set{attr.NewSet(1, 2)})
	pid := e.AddPeer(pr, []attr.Set{attr.NewSet(1)}, []int{1}, cluster.None)
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
