package viewwire

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/peer"
	"repro/internal/stats"
	"repro/internal/workload"
)

// wireSystem builds a small churned engine plus the vocabulary-order
// term table a publisher would capture, mirroring the serving daemon.
func wireSystem(t testing.TB, n, v int, seed uint64) (*core.Engine, []string) {
	t.Helper()
	rng := stats.NewRNG(seed)
	vocab := attr.NewVocab()
	ids := make([]attr.ID, v)
	names := make([]string, v)
	for i := range ids {
		names[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
		ids[i] = vocab.Intern(names[i])
	}
	peers := make([]*peer.Peer, n)
	wl := workload.New(n)
	for i := 0; i < n; i++ {
		p := peer.New(i)
		items := make([]attr.Set, 0, 3)
		for d := 0; d < 3; d++ {
			items = append(items, attr.NewSet(ids[rng.Intn(v)], ids[rng.Intn(v)]))
		}
		p.SetItems(items)
		peers[i] = p
		wl.Add(i, attr.NewSet(ids[rng.Intn(v)]), 1+rng.Intn(4))
	}
	e := core.New(peers, wl, cluster.NewSingletons(n), cluster.LinearTheta(), 1)
	for p := 0; p < n; p++ {
		e.Move(p, cluster.CID(rng.Intn(1+n/3)))
	}
	return e, names
}

func wireQueries(v int, rng *stats.RNG) []attr.Set {
	qs := []attr.Set{{}, attr.NewSet(attr.ID(1 << 20))}
	for i := 0; i < 16; i++ {
		qs = append(qs, attr.NewSet(attr.ID(rng.Intn(v)), attr.ID(rng.Intn(v))))
	}
	return qs
}

func checkSameAnswers(t *testing.T, want, got *core.RoutingView, qs []attr.Set, label string) {
	t.Helper()
	var scW, scG core.RouteScratch
	for i, q := range qs {
		wantTotal, wantHits := want.Route(q, &scW)
		gotTotal, gotHits := got.Route(q, &scG)
		same := gotTotal == wantTotal && len(gotHits) == len(wantHits)
		for j := 0; same && j < len(wantHits); j++ {
			same = gotHits[j] == wantHits[j]
		}
		if !same {
			t.Fatalf("%s: query %d: (%d, %v) != (%d, %v)", label, i, gotTotal, gotHits, wantTotal, wantHits)
		}
	}
}

// TestWireFullRoundTrip pins the full-record path end to end: encode
// is deterministic, decode recovers header, terms and a view that
// answers every query exactly like the original — including across
// populations with unoccupied slots.
func TestWireFullRoundTrip(t *testing.T) {
	e, names := wireSystem(t, 24, 12, 97)
	e.RemovePeer(5)
	e.RemovePeer(17)
	v := e.BuildRoutingView(nil)

	enc := AppendFull(nil, 42, names, v.Export())
	if again := AppendFull(nil, 42, names, v.Export()); !bytes.Equal(enc, again) {
		t.Fatal("AppendFull is not deterministic for the same view")
	}

	rec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != KindFull || rec.Seq != 42 || rec.PopVersion != v.PopVersion() {
		t.Fatalf("header: kind %d seq %d pop %d, want full/42/%d", rec.Kind, rec.Seq, rec.PopVersion, v.PopVersion())
	}
	if len(rec.Terms) != len(names) {
		t.Fatalf("terms: %d != %d", len(rec.Terms), len(names))
	}
	for i := range names {
		if rec.Terms[i] != names[i] {
			t.Fatalf("term %d: %q != %q", i, rec.Terms[i], names[i])
		}
	}
	got, err := core.FromViewData(rec.View)
	if err != nil {
		t.Fatal(err)
	}
	if got.Live() != v.Live() || got.Slots() != v.Slots() {
		t.Fatalf("decoded view shape: live %d/%d slots %d/%d", got.Live(), v.Live(), got.Slots(), v.Slots())
	}
	checkSameAnswers(t, v, got, wireQueries(12, stats.NewRNG(7)), "decoded full record")
}

// TestWireDeltaRoundTrip pins the delta-record path, including the
// empty republish.
func TestWireDeltaRoundTrip(t *testing.T) {
	moves := []core.SlotMove{{Slot: 3, To: 0}, {Slot: 19, To: 7}, {Slot: 0, To: 2}}
	rec, err := Decode(AppendDelta(nil, 9, 4, moves))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != KindDelta || rec.Seq != 9 || rec.PopVersion != 4 || len(rec.Moves) != len(moves) {
		t.Fatalf("header: %+v", rec)
	}
	for i, m := range moves {
		if rec.Moves[i] != m {
			t.Fatalf("move %d: %v != %v", i, rec.Moves[i], m)
		}
	}
	if rec.BasePop != 4 || len(rec.Names) != 0 || len(rec.Changed) != 0 {
		t.Fatalf("relocation-only delta decoded a population section: %+v", rec)
	}
	rec, err = Decode(AppendDelta(nil, 10, 4, nil))
	if err != nil || len(rec.Moves) != 0 {
		t.Fatalf("empty delta: %v, %+v", err, rec)
	}

	// A population delta: two names, a join with content, a join without
	// any, a leave, and a relocation.
	d := core.ViewDelta{
		BasePop: 4, PopVersion: 9,
		Changed: []core.SlotChange{
			{Slot: 2, Cluster: 5, Items: []attr.Set{attr.NewSet(0, 7, 300), attr.NewSet(41)}},
			{Slot: 6, Cluster: 0, Items: []attr.Set{}},
			{Slot: 11, Cluster: cluster.None},
		},
		Moves: moves[:1],
	}
	names := []string{"novel", ""}
	enc := AppendViewDelta(nil, 11, names, d)
	rec, err = Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != KindDelta || rec.Seq != 11 || rec.BasePop != 4 || rec.PopVersion != 9 || !slices.Equal(rec.Names, names) {
		t.Fatalf("population delta header: %+v", rec)
	}
	got := rec.Delta()
	if len(got.Changed) != 3 || !slices.Equal(got.Moves, d.Moves) {
		t.Fatalf("population delta body: %+v", got)
	}
	for i, ch := range got.Changed {
		want := d.Changed[i]
		if ch.Slot != want.Slot || ch.Cluster != want.Cluster || !slices.EqualFunc(ch.Items, want.Items, attr.Set.Equal) {
			t.Fatalf("change %d: %+v != %+v", i, ch, want)
		}
	}
	if again := AppendViewDelta(nil, rec.Seq, rec.Names, got); !bytes.Equal(enc, again) {
		t.Fatal("re-encoding a decoded population delta changed its bytes")
	}
}

// TestWireDeltaCarriesFollower pins the protocol's point: a follower
// that applies a decoded delta to its decoded full view answers like
// the authoritative successor.
func TestWireDeltaCarriesFollower(t *testing.T) {
	e, names := wireSystem(t, 20, 10, 131)
	rng := stats.NewRNG(19)
	v1 := e.BuildRoutingView(nil)
	rec, err := Decode(AppendFull(nil, 1, names, v1.Export()))
	if err != nil {
		t.Fatal(err)
	}
	follower, err := core.FromViewData(rec.View)
	if err != nil {
		t.Fatal(err)
	}
	qs := wireQueries(10, rng)
	for step := 0; step < 6; step++ {
		for k := 0; k < 3; k++ {
			e.Move(rng.Intn(20), cluster.CID(rng.Intn(e.Config().Cmax())))
		}
		v2 := e.BuildRoutingView(v1)
		moves, ok := v2.DiffFrom(v1)
		if !ok {
			t.Fatalf("step %d: expected pure-relocation delta", step)
		}
		drec, err := Decode(AppendDelta(nil, uint64(2+step), v2.PopVersion(), moves))
		if err != nil {
			t.Fatal(err)
		}
		if drec.PopVersion != follower.PopVersion() {
			t.Fatalf("step %d: delta pop %d vs follower %d", step, drec.PopVersion, follower.PopVersion())
		}
		follower, err = follower.ApplyDelta(drec.Delta())
		if err != nil {
			t.Fatal(err)
		}
		checkSameAnswers(t, v2, follower, qs, "wire follower")
		v1 = v2
	}

	// Joins and leaves travel the same way: the follower applies each
	// decoded delta and then equals what a full record of the same view
	// decodes to.
	for step := 0; step < 6; step++ {
		if step%2 == 0 {
			pr := peer.New(-1)
			pr.SetItems([]attr.Set{attr.NewSet(attr.ID(rng.Intn(10)), attr.ID(rng.Intn(10)))})
			e.AddPeer(pr, []attr.Set{attr.NewSet(attr.ID(rng.Intn(10)))}, []int{1}, cluster.None)
		} else {
			e.RemovePeer(step)
		}
		e.Move(rng.Intn(4)+10, cluster.CID(rng.Intn(e.Config().Cmax())))
		v2 := e.BuildRoutingView(v1)
		d, ok := v2.DeltaFrom(v1)
		if !ok || len(d.Changed) != 1 {
			t.Fatalf("step %d: delta %+v (ok=%v), want one changed slot", step, d, ok)
		}
		drec, err := Decode(AppendViewDelta(nil, uint64(8+step), nil, d))
		if err != nil {
			t.Fatal(err)
		}
		if follower, err = follower.ApplyDelta(drec.Delta()); err != nil {
			t.Fatal(err)
		}
		frec, err := Decode(AppendFull(nil, uint64(8+step), names, v2.Export()))
		if err != nil {
			t.Fatal(err)
		}
		resynced, err := core.FromViewData(frec.View)
		if err != nil {
			t.Fatal(err)
		}
		if follower.PopVersion() != resynced.PopVersion() || follower.Live() != resynced.Live() || follower.Slots() != resynced.Slots() {
			t.Fatalf("step %d: follower at pop %d live %d slots %d, a full resync at %d/%d/%d", step,
				follower.PopVersion(), follower.Live(), follower.Slots(), resynced.PopVersion(), resynced.Live(), resynced.Slots())
		}
		checkSameAnswers(t, resynced, follower, qs, "population delta follower")
		v1 = v2
	}
}

// TestWireDecodeRejects pins the strict decoder: corrupt and
// truncated records are errors, never panics.
func TestWireDecodeRejects(t *testing.T) {
	e, names := wireSystem(t, 8, 6, 151)
	full := AppendFull(nil, 3, names, e.BuildRoutingView(nil).Export())
	delta := AppendDelta(nil, 4, 1, []core.SlotMove{{Slot: 1, To: 0}})

	join := AppendViewDelta(nil, 5, []string{"zz"}, core.ViewDelta{BasePop: 1, PopVersion: 2,
		Changed: []core.SlotChange{{Slot: 8, Cluster: 2, Items: []attr.Set{attr.NewSet(1, 6)}}, {Slot: 3, Cluster: cluster.None}}})

	// Every strict prefix of a valid record must fail cleanly.
	for _, rec := range [][]byte{full, delta, join} {
		for n := 0; n < len(rec); n++ {
			if _, err := Decode(rec[:n]); err == nil {
				t.Fatalf("decode accepted %d-byte truncation of a %d-byte record", n, len(rec))
			}
		}
	}

	corrupt := func(mutate func(b []byte) []byte) []byte {
		return mutate(append([]byte(nil), full...))
	}
	cases := map[string][]byte{
		"bad magic":      corrupt(func(b []byte) []byte { b[0] = 'X'; return b }),
		"bad version":    corrupt(func(b []byte) []byte { b[2] = 99; return b }),
		"unknown kind":   corrupt(func(b []byte) []byte { b[3] = 7; return b }),
		"trailing bytes": append(append([]byte(nil), delta...), 0),
		"huge count":     append(append([]byte(nil), delta[:len(delta)-3]...), 0xFF, 0xFF, 0x7F),
		// The records format version 1 wrote, layout and all.
		"version-1 delta": []byte("RV\x01\x02\x06\x02\x02\x00\x01\a\x00"),
		"version-1 full":  corrupt(func(b []byte) []byte { b[2] = 1; return b }),
		// Version 2 full records still carried sizes and posting lists.
		"version-2 full": corrupt(func(b []byte) []byte { b[2] = 2; return b }),
		// header | seq | pop | one name "a" | one slot: content, cluster+1
		"assigned empty slot":   {'R', 'V', FormatVersion, byte(KindFull), 1, 1, 1, 1, 'a', 1, 0, 1},
		"unassigned content":    {'R', 'V', FormatVersion, byte(KindFull), 1, 1, 1, 1, 'a', 1, 2, 1, 0, 0},
		"cluster id past int32": {'R', 'V', FormatVersion, byte(KindFull), 1, 1, 1, 1, 'a', 1, 2, 1, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
		// header | base_pop | pop | no names | one change: slot 1 ...
		"join without content":    {'R', 'V', FormatVersion, byte(KindDelta), 1, 1, 2, 0, 1, 1, 3, 0, 0},
		"non-increasing item ids": {'R', 'V', FormatVersion, byte(KindDelta), 1, 1, 2, 0, 1, 1, 3, 2, 2, 4, 0, 0},
		"change past int32":       {'R', 'V', FormatVersion, byte(KindDelta), 1, 1, 2, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0, 0},
		// A full record may only name attributes of its own term table.
		"item attribute past the terms": AppendFull(nil, 3, names[:2], e.BuildRoutingView(nil).Export()),
	}
	for name, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: decode accepted corrupt record", name)
		}
	}
}

// FuzzViewWire throws arbitrary bytes at the decoder and, whenever a
// record survives, at the full validation + re-encode cycle: nothing
// may panic, and decode(encode(decode(x))) must agree with decode(x).
func FuzzViewWire(f *testing.F) {
	e, names := wireSystem(f, 12, 8, 211)
	e.RemovePeer(4)
	v := e.BuildRoutingView(nil)
	f.Add(AppendFull(nil, 5, names, v.Export()))
	f.Add(AppendDelta(nil, 6, v.PopVersion(), []core.SlotMove{{Slot: 0, To: 1}, {Slot: 7, To: 0}}))
	f.Add(AppendDelta(nil, 7, v.PopVersion(), nil))
	f.Add(AppendViewDelta(nil, 8, []string{"i0"}, core.ViewDelta{BasePop: v.PopVersion(), PopVersion: v.PopVersion() + 2,
		Changed: []core.SlotChange{{Slot: 4, Cluster: 1, Items: []attr.Set{attr.NewSet(2, 8)}}, {Slot: 9, Cluster: cluster.None}},
		Moves:   []core.SlotMove{{Slot: 0, To: 1}}}))
	f.Add([]byte("RV"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := Decode(data)
		if err != nil {
			return
		}
		switch rec.Kind {
		case KindFull:
			view, err := core.FromViewData(rec.View)
			if err != nil {
				return // structurally valid wire bytes, semantically rejected
			}
			var sc core.RouteScratch
			view.Route(attr.NewSet(0, 3), &sc)
			reenc := AppendFull(nil, rec.Seq, rec.Terms, view.Export())
			rec2, err := Decode(reenc)
			if err != nil {
				t.Fatalf("re-encode of accepted record does not decode: %v", err)
			}
			if rec2.Seq != rec.Seq || rec2.PopVersion != rec.PopVersion ||
				len(rec2.Terms) != len(rec.Terms) || len(rec2.View.ClusterOf) != len(rec.View.ClusterOf) {
				t.Fatalf("re-encode changed the record: %+v vs %+v", rec2, rec)
			}
		case KindDelta:
			reenc := AppendViewDelta(nil, rec.Seq, rec.Names, rec.Delta())
			rec2, err := Decode(reenc)
			if err != nil || rec2.Seq != rec.Seq || rec2.BasePop != rec.BasePop || rec2.PopVersion != rec.PopVersion ||
				len(rec2.Names) != len(rec.Names) || len(rec2.Changed) != len(rec.Changed) || len(rec2.Moves) != len(rec.Moves) {
				t.Fatalf("delta re-encode diverged: %v, %+v vs %+v", err, rec2, rec)
			}
			// Whatever else it says, applying it to a view answers or
			// errs. (Attribute IDs are the applier's to bound, by its
			// vocabulary, before it sizes a posting table by them.)
			d := rec.Delta()
			d.BasePop = v.PopVersion()
			for _, ch := range d.Changed {
				for _, it := range ch.Items {
					if ids := it.IDs(); len(ids) > 0 && ids[len(ids)-1] > 1<<12 {
						return
					}
				}
			}
			if next, err := v.ApplyDelta(d); err == nil {
				var sc core.RouteScratch
				next.Route(attr.NewSet(0, 3), &sc)
			}
		}
	})
}
