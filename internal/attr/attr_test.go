package attr

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestVocabInternRoundtrip(t *testing.T) {
	v := NewVocab()
	a := v.Intern("alpha")
	b := v.Intern("beta")
	if a == b {
		t.Fatal("distinct names share an ID")
	}
	if v.Intern("alpha") != a {
		t.Fatal("re-intern changed ID")
	}
	if v.Name(a) != "alpha" || v.Name(b) != "beta" {
		t.Fatal("Name roundtrip failed")
	}
	if v.Len() != 2 {
		t.Fatalf("Len=%d", v.Len())
	}
	if id, ok := v.Lookup("alpha"); !ok || id != a {
		t.Fatal("Lookup failed")
	}
	if _, ok := v.Lookup("missing"); ok {
		t.Fatal("Lookup found missing name")
	}
}

func TestVocabZeroValueUsable(t *testing.T) {
	var v Vocab
	if v.Intern("x") != 0 {
		t.Fatal("zero-value vocab broken")
	}
}

func TestVocabNamePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Name(99) did not panic")
		}
	}()
	NewVocab().Name(99)
}

func TestVocabInternAll(t *testing.T) {
	v := NewVocab()
	ids := v.InternAll([]string{"a", "b", "a"})
	if len(ids) != 3 || ids[0] != ids[2] || ids[0] == ids[1] {
		t.Fatalf("InternAll ids: %v", ids)
	}
}

func frozenVocab(names ...string) *Vocab {
	v := NewVocab()
	v.InternAll(names)
	v.Freeze()
	return v
}

// TestVocabForkIsolated: a name interned into a fork shows neither in
// the frozen source nor in a sibling fork, each fork numbers its own
// new names from the source's length, and the source refuses new names.
func TestVocabForkIsolated(t *testing.T) {
	src := frozenVocab("a", "b")
	f1, f2 := src.Fork(), src.Fork()
	if f1.Intern("b") != 1 || f1.Len() != 2 || f1.Name(0) != "a" {
		t.Fatal("a fork does not start as a copy of its source")
	}
	if f1.Intern("x") != 2 || f2.Intern("y") != 2 || f2.Intern("z") != 3 {
		t.Fatal("forks do not number new names from the source's length")
	}
	for _, c := range []struct {
		v       *Vocab
		name    string
		missing []string
		len     int
	}{{src, "source", []string{"x", "y", "z"}, 2}, {f1, "fork 1", []string{"y", "z"}, 3}, {f2, "fork 2", []string{"x"}, 4}} {
		for _, n := range c.missing {
			if _, ok := c.v.Lookup(n); ok {
				t.Errorf("%s sees %q, interned into another vocabulary", c.name, n)
			}
		}
		if c.v.Len() != c.len || len(c.v.Names()) != c.len {
			t.Errorf("%s has %d names, want %d", c.name, c.v.Len(), c.len)
		}
	}
	if f1.Name(2) != "x" || f2.Name(2) != "y" || src.Names()[1] != "b" {
		t.Fatal("names moved under a fork's writes")
	}
	if src.Intern("a") != 0 {
		t.Fatal("a frozen vocabulary does not answer a known name")
	}
	for name, fn := range map[string]func(){
		"Intern of a new name on a frozen vocabulary": func() { src.Intern("w") },
		"Fork of a vocabulary that is not frozen":     func() { f1.Fork() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestVocabForkKnownInternAllocationFree: interning a known name into a
// fork is a lookup, before and after the fork has copied its index.
func TestVocabForkKnownInternAllocationFree(t *testing.T) {
	f := frozenVocab("a", "b", "c").Fork()
	if got := testing.AllocsPerRun(100, func() { f.Intern("b") }); got != 0 {
		t.Errorf("Intern of a known name on a fresh fork allocates %.1f times", got)
	}
	f.Intern("d")
	if got := testing.AllocsPerRun(100, func() { f.Intern("d") }); got != 0 {
		t.Errorf("Intern of a known name on a written fork allocates %.1f times", got)
	}
}

// TestVocabForksConcurrent: goroutines forking one frozen vocabulary and
// writing their forks share nothing they write. Run under -race.
func TestVocabForksConcurrent(t *testing.T) {
	src := frozenVocab("a", "b", "c")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := src.Fork()
			for i := 0; i < 50; i++ {
				if id := f.Intern(fmt.Sprintf("g%d-%d", g, i)); int(id) != 3+i {
					t.Errorf("goroutine %d: name %d got ID %d", g, i, id)
					return
				}
				if _, ok := src.Lookup("c"); !ok {
					t.Error("the source lost a name")
					return
				}
			}
		}()
	}
	wg.Wait()
	if src.Len() != 3 {
		t.Fatalf("the source grew to %d names", src.Len())
	}
}

func TestNewSetSortsAndDedups(t *testing.T) {
	s := NewSet(5, 1, 3, 1, 5)
	want := []ID{1, 3, 5}
	got := s.IDs()
	if len(got) != len(want) {
		t.Fatalf("ids %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ids %v want %v", got, want)
		}
	}
	if s.Len() != 3 || s.IsEmpty() {
		t.Fatal("bad Len/IsEmpty")
	}
	if !NewSet().IsEmpty() {
		t.Fatal("empty set not empty")
	}
}

func TestFromSortedValidation(t *testing.T) {
	FromSorted([]ID{1, 2, 3}) // must not panic
	defer func() {
		if recover() == nil {
			t.Fatal("FromSorted with duplicates did not panic")
		}
	}()
	FromSorted([]ID{1, 1})
}

func TestContains(t *testing.T) {
	s := NewSet(2, 4, 6)
	for _, id := range []ID{2, 4, 6} {
		if !s.Contains(id) {
			t.Errorf("missing %d", id)
		}
	}
	for _, id := range []ID{1, 3, 5, 7} {
		if s.Contains(id) {
			t.Errorf("spurious %d", id)
		}
	}
}

// toMap is the reference model for property tests.
func toMap(s Set) map[ID]bool {
	m := map[ID]bool{}
	for _, id := range s.IDs() {
		m[id] = true
	}
	return m
}

func fromRaw(raw []int16) Set {
	ids := make([]ID, len(raw))
	for i, r := range raw {
		ids[i] = ID(r)
	}
	return NewSet(ids...)
}

func TestSubsetOfMatchesModel(t *testing.T) {
	err := quick.Check(func(ra, rb []int16) bool {
		a, b := fromRaw(ra), fromRaw(rb)
		ma, mb := toMap(a), toMap(b)
		want := true
		for id := range ma {
			if !mb[id] {
				want = false
				break
			}
		}
		return a.SubsetOf(b) == want
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSetAlgebraMatchesModel(t *testing.T) {
	err := quick.Check(func(ra, rb []int16) bool {
		a, b := fromRaw(ra), fromRaw(rb)
		ma, mb := toMap(a), toMap(b)
		u, i, d := a.Union(b), a.Intersect(b), a.Diff(b)
		// Union.
		for id := range ma {
			if !u.Contains(id) {
				return false
			}
		}
		for id := range mb {
			if !u.Contains(id) {
				return false
			}
		}
		if u.Len() != len(ma)+len(mb)-i.Len() {
			return false
		}
		// Intersection.
		for _, id := range i.IDs() {
			if !ma[id] || !mb[id] {
				return false
			}
		}
		// Difference.
		for _, id := range d.IDs() {
			if !ma[id] || mb[id] {
				return false
			}
		}
		if d.Len() != len(ma)-i.Len() {
			return false
		}
		// Subset relations.
		return i.SubsetOf(a) && i.SubsetOf(b) && a.SubsetOf(u) && d.SubsetOf(a)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestKeyIdentifiesContent(t *testing.T) {
	err := quick.Check(func(ra, rb []int16) bool {
		a, b := fromRaw(ra), fromRaw(rb)
		return (a.Key() == b.Key()) == a.Equal(b)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if NewSet().Key() != "" {
		t.Fatal("empty key not empty")
	}
}

func TestStringAndNames(t *testing.T) {
	v := NewVocab()
	a := v.Intern("apple")
	b := v.Intern("pear")
	s := NewSet(b, a)
	if s.String() != "{0,1}" {
		t.Fatalf("String=%q", s.String())
	}
	names := s.Names(v)
	if len(names) != 2 || names[0] != "apple" || names[1] != "pear" {
		t.Fatalf("Names=%v", names)
	}
}

func TestEqual(t *testing.T) {
	if !NewSet(1, 2).Equal(NewSet(2, 1)) {
		t.Fatal("order-insensitive equality failed")
	}
	if NewSet(1).Equal(NewSet(1, 2)) || NewSet(1).Equal(NewSet(2)) {
		t.Fatal("unequal sets reported equal")
	}
}
