package core

import (
	"testing"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/peer"
	"repro/internal/stats"
)

// TestViewExportImportRoundTrip pins the full-view replication path:
// a view reconstructed from its export answers every query exactly
// like the original, across churned populations with dead slots.
func TestViewExportImportRoundTrip(t *testing.T) {
	e := newTestEngine(t, 24, 12, 97, nil)
	rng := stats.NewRNG(13)
	for p := 0; p < 24; p++ {
		e.Move(p, cluster.CID(p%5))
	}
	// Punch holes in the slot space and add a fresh joiner so the
	// export carries unoccupied slots.
	e.RemovePeer(3)
	e.RemovePeer(11)
	pr := peer.New(-1)
	pr.SetItems([]attr.Set{attr.NewSet(0, 1), attr.NewSet(2)})
	e.AddPeer(pr, []attr.Set{attr.NewSet(0)}, []int{2}, cluster.None)

	v := e.BuildRoutingView(nil)
	imported, err := FromViewData(v.Export())
	if err != nil {
		t.Fatal(err)
	}
	if imported.PopVersion() != v.PopVersion() || imported.Live() != v.Live() || imported.Slots() != v.Slots() {
		t.Fatalf("imported view header diverged: pop %d/%d live %d/%d slots %d/%d",
			imported.PopVersion(), v.PopVersion(), imported.Live(), v.Live(), imported.Slots(), v.Slots())
	}
	checkViewMatchesOracle(t, e, testQueries(e, rng), "original and import vs engine", v, imported)
}

// TestViewDiffApply pins the delta replication path: the
// pure-relocation delta extracted from consecutive views carries a
// follower's view — engine-built or import-reconstructed — to answers
// identical to the authoritative successor.
func TestViewDiffApply(t *testing.T) {
	e := newTestEngine(t, 20, 10, 101, nil)
	rng := stats.NewRNG(17)
	v1 := e.BuildRoutingView(nil)
	follower, err := FromViewData(v1.Export())
	if err != nil {
		t.Fatal(err)
	}

	qs := testQueries(e, rng)
	for step := 0; step < 8; step++ {
		// A handful of relocations, including into previously empty
		// cluster slots the follower's trimmed sizes table has not seen.
		for k := 0; k < 3; k++ {
			e.Move(rng.Intn(20), cluster.CID(rng.Intn(e.Config().Cmax())))
		}
		v2 := e.BuildRoutingView(v1)
		moves, ok := v2.DiffFrom(v1)
		if !ok {
			t.Fatalf("step %d: no delta between consecutive relocation views", step)
		}
		follower, err = follower.ApplyDelta(ViewDelta{BasePop: v1.PopVersion(), PopVersion: v2.PopVersion(), Moves: moves})
		if err != nil {
			t.Fatalf("step %d: apply: %v", step, err)
		}
		checkViewMatchesOracle(t, e, qs, "successor and delta follower vs engine", v2, follower)
		v1 = v2
	}

	// Zero-move delta (a compaction republish) is ok and changes nothing.
	v2 := e.BuildRoutingView(v1)
	if moves, ok := v2.DiffFrom(v1); !ok || len(moves) != 0 {
		t.Fatalf("quiescent republish: delta (%v, %v), want (empty, true)", moves, ok)
	}

	// A population change makes the delta impossible: full resync needed.
	pr := peer.New(-1)
	pr.SetItems([]attr.Set{attr.NewSet(1, 2)})
	e.AddPeer(pr, []attr.Set{attr.NewSet(1)}, []int{1}, cluster.None)
	v3 := e.BuildRoutingView(v2)
	if _, ok := v3.DiffFrom(v2); ok {
		t.Fatal("DiffFrom crossed a population version boundary")
	}
}

// TestApplyMovesRejects pins the defensive surface a router relies on:
// corrupt moves in a relocation-only delta are errors, never panics, and
// leave the source view untouched.
func TestApplyMovesRejects(t *testing.T) {
	e := newTestEngine(t, 8, 6, 103, nil)
	e.RemovePeer(2)
	v := e.BuildRoutingView(nil)
	before := v.clusterOf[1]
	for _, bad := range [][]SlotMove{
		{{Slot: -1, To: 0}},
		{{Slot: int32(v.Slots()), To: 0}},
		{{Slot: 2, To: 0}},            // unoccupied slot
		{{Slot: 1, To: cluster.None}}, // relocation cannot vacate
	} {
		if _, err := v.ApplyDelta(ViewDelta{BasePop: v.PopVersion(), PopVersion: v.PopVersion(), Moves: bad}); err == nil {
			t.Errorf("ApplyDelta accepted the corrupt moves %v", bad)
		}
	}
	if v.clusterOf[1] != before {
		t.Fatal("a rejected delta mutated the source view")
	}
}

// TestFromViewDataRejects pins validation of untrusted full views.
func TestFromViewDataRejects(t *testing.T) {
	base := ViewData{
		PopVersion: 1,
		Items:      [][]attr.Set{{attr.NewSet(0)}, nil},
		ClusterOf:  []cluster.CID{0, cluster.None},
	}
	if _, err := FromViewData(base); err != nil {
		t.Fatalf("valid view data rejected: %v", err)
	}
	bad := base
	bad.ClusterOf = []cluster.CID{0}
	if _, err := FromViewData(bad); err == nil {
		t.Error("mismatched slot counts accepted")
	}
	bad = base
	bad.ClusterOf = []cluster.CID{-7, cluster.None}
	if _, err := FromViewData(bad); err == nil {
		t.Error("negative cluster ID accepted")
	}
	bad = base
	bad.Items = [][]attr.Set{{attr.NewSet(-1, 0)}, nil}
	if _, err := FromViewData(bad); err == nil {
		t.Error("content naming a negative attribute accepted")
	}
}
