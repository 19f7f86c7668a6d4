package workload

import (
	"testing"
	"testing/quick"

	"repro/internal/attr"
	"repro/internal/stats"
)

func TestAddAndCounts(t *testing.T) {
	w := New(3)
	q1 := attr.NewSet(1)
	q2 := attr.NewSet(2)
	w.Add(0, q1, 2)
	w.Add(0, q2, 1)
	w.Add(1, q1, 3)
	if w.NumQueries() != 2 {
		t.Fatalf("NumQueries=%d", w.NumQueries())
	}
	id1 := w.Intern(q1)
	if w.GlobalCount(id1) != 5 {
		t.Fatalf("global num(q1)=%d", w.GlobalCount(id1))
	}
	if w.PeerTotal(0) != 3 || w.PeerTotal(1) != 3 || w.PeerTotal(2) != 0 {
		t.Fatal("peer totals")
	}
	if w.Total() != 6 {
		t.Fatalf("total=%d", w.Total())
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInternDeduplicates(t *testing.T) {
	w := New(1)
	a := w.Intern(attr.NewSet(3, 1))
	b := w.Intern(attr.NewSet(1, 3))
	if a != b {
		t.Fatal("equal queries got different IDs")
	}
	if !w.Query(a).Equal(attr.NewSet(1, 3)) {
		t.Fatal("Query roundtrip")
	}
}

func TestAddMergesSamePeerSameQuery(t *testing.T) {
	w := New(1)
	q := attr.NewSet(5)
	w.Add(0, q, 2)
	w.Add(0, q, 3)
	entries := w.Peer(0)
	if len(entries) != 1 || entries[0].Count != 5 {
		t.Fatalf("entries=%v", entries)
	}
}

func TestClearAndReplacePeer(t *testing.T) {
	w := New(2)
	w.Add(0, attr.NewSet(1), 4)
	w.Add(1, attr.NewSet(1), 1)
	w.ClearPeer(0)
	if w.PeerTotal(0) != 0 || w.Total() != 1 {
		t.Fatal("ClearPeer accounting")
	}
	if w.GlobalCount(w.Intern(attr.NewSet(1))) != 1 {
		t.Fatal("global count after clear")
	}
	w.ReplacePeer(0, []attr.Set{attr.NewSet(2), attr.NewSet(3)}, []int{2, 3})
	if w.PeerTotal(0) != 5 || w.Total() != 6 {
		t.Fatal("ReplacePeer accounting")
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReplacePeerLengthMismatchPanics(t *testing.T) {
	w := New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	w.ReplacePeer(0, []attr.Set{attr.NewSet(1)}, []int{1, 2})
}

func TestAddValidation(t *testing.T) {
	w := New(1)
	for _, f := range []func(){
		func() { w.Add(0, attr.NewSet(1), 0) },
		func() { w.Add(5, attr.NewSet(1), 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		}()
	}
}

func TestCloneIsIndependent(t *testing.T) {
	w := New(2)
	w.Add(0, attr.NewSet(1), 2)
	cp := w.Clone()
	cp.Add(1, attr.NewSet(2), 5)
	cp.ClearPeer(0)
	if w.PeerTotal(0) != 2 || w.Total() != 2 || w.NumQueries() != 1 {
		t.Fatal("mutating clone affected original")
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCloneSharesInternTable pins the intern table a Clone shares: a
// compaction or a new query on either side, the clone's or the
// original's, copies the table first, so the other side neither loses a
// compacted query nor finds the new one. Each write comes first once.
func TestCloneSharesInternTable(t *testing.T) {
	for _, c := range []struct{ cloneWrites, compactFirst bool }{
		{true, true}, {true, false}, {false, true}, {false, false},
	} {
		cloneWrites := c.cloneWrites
		w := New(2) // six queries: the first new one fits the table
		for i := 0; i < 6; i++ {
			w.Add(i%2, set(attr.ID(i)), 1)
		}
		before := w.Clone() // a reference that nothing writes
		w2 := w.Clone()
		writer, other := w2, w
		if !cloneWrites {
			writer, other = w, w2
		}
		check := func(step string) {
			t.Helper()
			for i := 0; i < 6; i++ {
				q := set(attr.ID(i))
				id, ok := other.Lookup(q)
				if want, _ := before.Lookup(q); !ok || id != want || other.Intern(q) != want {
					t.Fatalf("cloneWrites=%v, after %s: query %d is %d (found %v) on the other side, want %d",
						cloneWrites, step, i, id, ok, want)
				}
			}
			for _, x := range []*Workload{writer, other, before} {
				if err := x.Validate(); err != nil {
					t.Fatalf("cloneWrites=%v, after %s: %v", cloneWrites, step, err)
				}
			}
		}
		compact := func() {
			writer.ClearPeer(1)
			if _, removed := writer.Compact(0); removed == 0 {
				t.Fatalf("cloneWrites=%v: Compact removed nothing", cloneWrites)
			}
			check("a compaction")
		}
		intern := func() {
			for i := 100; i < 200; i++ {
				writer.Add(0, set(attr.ID(i)), 1)
			}
			other.Add(1, set(7, 300), 1)
			if _, ok := writer.Lookup(set(7, 300)); ok {
				t.Fatalf("cloneWrites=%v: the writer finds the other side's new query", cloneWrites)
			}
			if _, ok := other.Lookup(set(150)); ok {
				t.Fatalf("cloneWrites=%v: the other side finds the writer's new query", cloneWrites)
			}
			check("new queries")
		}
		if c.compactFirst {
			compact()
			intern()
		} else {
			intern()
			compact()
		}
	}
}

func TestVersionBumpsOnMutation(t *testing.T) {
	w := New(1)
	v0 := w.Version()
	w.Add(0, attr.NewSet(1), 1)
	if w.Version() == v0 {
		t.Fatal("Add did not bump version")
	}
	v1 := w.Version()
	w.ClearPeer(0)
	if w.Version() == v1 {
		t.Fatal("ClearPeer did not bump version")
	}
}

func TestValidateUnderRandomOperations(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		w := New(4)
		for op := 0; op < 40; op++ {
			switch rng.Intn(3) {
			case 0:
				w.Add(rng.Intn(4), attr.NewSet(attr.ID(rng.Intn(6))), 1+rng.Intn(5))
			case 1:
				w.ClearPeer(rng.Intn(4))
			case 2:
				n := 1 + rng.Intn(3)
				qs := make([]attr.Set, n)
				cs := make([]int, n)
				for i := range qs {
					qs[i] = attr.NewSet(attr.ID(rng.Intn(6)), attr.ID(rng.Intn(6)))
					cs[i] = 1 + rng.Intn(4)
				}
				w.ReplacePeer(rng.Intn(4), qs, cs)
			}
			if err := w.Validate(); err != nil {
				t.Logf("seed %d op %d: %v", seed, op, err)
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
