package peer

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/attr"
	"repro/internal/stats"
)

func TestResultCountSingleAttr(t *testing.T) {
	p := New(1)
	p.SetItems([]attr.Set{
		attr.NewSet(1, 2),
		attr.NewSet(2, 3),
		attr.NewSet(3),
	})
	cases := map[attr.ID]int{1: 1, 2: 2, 3: 2, 4: 0}
	for id, want := range cases {
		if got := p.ResultCount(attr.NewSet(id)); got != want {
			t.Errorf("ResultCount({%d})=%d want %d", id, got, want)
		}
	}
}

func TestResultCountMultiAttrSubsetSemantics(t *testing.T) {
	p := New(2)
	p.SetItems([]attr.Set{
		attr.NewSet(1, 2, 3),
		attr.NewSet(1, 2),
		attr.NewSet(2, 3),
	})
	if got := p.ResultCount(attr.NewSet(1, 2)); got != 2 {
		t.Errorf("q={1,2}: %d want 2", got)
	}
	if got := p.ResultCount(attr.NewSet(2, 3)); got != 2 {
		t.Errorf("q={2,3}: %d want 2", got)
	}
	if got := p.ResultCount(attr.NewSet(1, 2, 3)); got != 1 {
		t.Errorf("q={1,2,3}: %d want 1", got)
	}
	if got := p.ResultCount(attr.NewSet(1, 4)); got != 0 {
		t.Errorf("q={1,4}: %d want 0", got)
	}
}

func TestEmptyQueryMatchesEverything(t *testing.T) {
	p := New(3)
	p.SetItems([]attr.Set{attr.NewSet(1), attr.NewSet(2)})
	if got := p.ResultCount(attr.Set{}); got != 2 {
		t.Errorf("empty query: %d want 2", got)
	}
}

func TestResultCountMatchesBruteForce(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		p := New(0)
		items := make([]attr.Set, 1+rng.Intn(8))
		for i := range items {
			ids := make([]attr.ID, 1+rng.Intn(4))
			for j := range ids {
				ids[j] = attr.ID(rng.Intn(6))
			}
			items[i] = attr.NewSet(ids...)
		}
		p.SetItems(items)
		qids := make([]attr.ID, 1+rng.Intn(3))
		for j := range qids {
			qids[j] = attr.ID(rng.Intn(6))
		}
		q := attr.NewSet(qids...)
		want := 0
		for _, it := range items {
			if q.SubsetOf(it) {
				want++
			}
		}
		// Twice: the first call may build the index, the second reads it.
		return p.ResultCount(q) == want && p.ResultCount(q) == want
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestContentMutationInvalidatesCaches(t *testing.T) {
	p := New(4)
	p.SetItems([]attr.Set{attr.NewSet(1, 2)})
	q := attr.NewSet(1, 2)
	if p.ResultCount(q) != 1 {
		t.Fatal("setup")
	}
	v := p.Version()
	p.ReplaceItem(0, attr.NewSet(3))
	if p.Version() == v {
		t.Fatal("version did not bump")
	}
	if got := p.ResultCount(q); got != 0 {
		t.Fatalf("stale cache: %d", got)
	}
	p.AddItem(attr.NewSet(1, 2, 3))
	if got := p.ResultCount(q); got != 1 {
		t.Fatalf("after AddItem: %d", got)
	}
}

func TestReplaceItemPanicsOutOfRange(t *testing.T) {
	p := New(5)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	p.ReplaceItem(0, attr.NewSet(1))
}

func TestItemsReturnsCopy(t *testing.T) {
	p := New(6)
	p.SetItems([]attr.Set{attr.NewSet(1)})
	items := p.Items()
	items[0] = attr.NewSet(9)
	if p.ResultCount(attr.NewSet(1)) != 1 {
		t.Fatal("Items exposed internal state")
	}
}

func TestAttrFrequencies(t *testing.T) {
	p := New(7)
	p.SetItems([]attr.Set{attr.NewSet(1, 2), attr.NewSet(2), attr.NewSet(2, 3)})
	f := p.AttrFrequencies()
	if f[1] != 1 || f[2] != 3 || f[3] != 1 {
		t.Fatalf("frequencies: %v", f)
	}
}

func TestAttrsSortedDistinctAndRebuilt(t *testing.T) {
	p := New(7)
	p.SetItems([]attr.Set{attr.NewSet(9, 2), attr.NewSet(2), attr.NewSet(5, 2, 3)})
	if got := p.Attrs(); !slices.Equal(got, []attr.ID{2, 3, 5, 9}) {
		t.Fatalf("attrs: %v", got)
	}
	p.ReplaceItem(0, attr.NewSet(1))
	if got := p.Attrs(); !slices.Equal(got, []attr.ID{1, 2, 3, 5}) {
		t.Fatalf("attrs after a content edit: %v", got)
	}
	if got := New(8).Attrs(); len(got) != 0 {
		t.Fatalf("attrs of an empty peer: %v", got)
	}
}

func TestIDAndNumItems(t *testing.T) {
	p := New(42)
	if p.ID() != 42 || p.NumItems() != 0 {
		t.Fatal("basic accessors")
	}
	p.AddItem(attr.NewSet(1))
	if p.NumItems() != 1 {
		t.Fatal("NumItems after add")
	}
}

// TestResultCountROMatchesResultCount pins the read-only path to the
// caching path over random peers and queries, including the empty
// query, and checks it allocates nothing and tolerates concurrent
// readers alongside a cache-building writer.
func TestResultCountROMatchesResultCount(t *testing.T) {
	rng := stats.NewRNG(99)
	for trial := 0; trial < 30; trial++ {
		p := New(trial)
		items := make([]attr.Set, 0, 8)
		for i := 0; i < 2+rng.Intn(6); i++ {
			ids := make([]attr.ID, 0, 4)
			for k := 0; k < 1+rng.Intn(4); k++ {
				ids = append(ids, attr.ID(rng.Intn(9)))
			}
			items = append(items, attr.NewSet(ids...))
		}
		p.SetItems(items)
		p.Freeze()
		queries := []attr.Set{{}}
		for i := 0; i < 12; i++ {
			ids := make([]attr.ID, 0, 3)
			for k := 0; k < 1+rng.Intn(3); k++ {
				ids = append(ids, attr.ID(rng.Intn(10)))
			}
			queries = append(queries, attr.NewSet(ids...))
		}
		for _, q := range queries {
			if got, want := p.ResultCountRO(q), p.ResultCount(q); got != want {
				t.Fatalf("trial %d: ResultCountRO(%v)=%d, ResultCount=%d", trial, q, got, want)
			}
		}
		if avg := testing.AllocsPerRun(50, func() {
			for _, q := range queries {
				p.ResultCountRO(q)
			}
		}); avg != 0 {
			t.Fatalf("trial %d: ResultCountRO allocates %v per run, want 0", trial, avg)
		}
	}
}

func TestResultCountROPanicsBeforeFreeze(t *testing.T) {
	p := New(7)
	p.SetItems([]attr.Set{attr.NewSet(1)})
	defer func() {
		if recover() == nil {
			t.Fatal("ResultCountRO on an unfrozen peer did not panic")
		}
	}()
	p.ResultCountRO(attr.NewSet(1))
}

// A clone shares the built index with its source — it answers without
// rebuilding — until either side changes content; the change then
// leaves the other side's answers and attribute list intact.
func TestCloneSharesIndexUntilMutation(t *testing.T) {
	items := []attr.Set{attr.NewSet(1, 2), attr.NewSet(2, 3), attr.NewSet(3, 4)}
	queries := []attr.Set{attr.NewSet(1), attr.NewSet(2), attr.NewSet(3), attr.NewSet(2, 3), attr.NewSet(9), attr.NewSet()}
	answers := func(p *Peer) []int {
		out := make([]int, len(queries))
		for i, q := range queries {
			out[i] = p.ResultCount(q)
		}
		return out
	}

	src := New(7)
	src.SetItems(items)
	want, wantAttrs := answers(src), slices.Clone(src.Attrs())

	c := src.Clone()
	if c.ID() != src.ID() || c.Version() != src.Version() || c.NumItems() != src.NumItems() {
		t.Fatalf("clone is (id %d, version %d, %d items), source (id %d, version %d, %d items)",
			c.ID(), c.Version(), c.NumItems(), src.ID(), src.Version(), src.NumItems())
	}
	// ResultCountRO panics on a peer whose index is not built.
	for i, q := range queries {
		if got := c.ResultCountRO(q); got != want[i] {
			t.Errorf("clone ResultCountRO(%v)=%d want %d", q.IDs(), got, want[i])
		}
	}
	if &c.Attrs()[0] != &src.Attrs()[0] {
		t.Error("clone built its own attribute list instead of sharing the source's")
	}

	// The clone changes content: the source keeps its answers.
	c.ReplaceItem(0, attr.NewSet(5, 6))
	if got := answers(src); !slices.Equal(got, want) {
		t.Errorf("source answers %v after the clone changed, want %v", got, want)
	}
	if got := src.Attrs(); !slices.Equal(got, wantAttrs) {
		t.Errorf("source attrs %v after the clone changed, want %v", got, wantAttrs)
	}
	if got := src.Items()[0]; !got.Equal(items[0]) {
		t.Errorf("source item 0 is %v after the clone's ReplaceItem", got.IDs())
	}
	if got, want := answers(c), []int{0, 1, 2, 1, 0, 3}; !slices.Equal(got, want) {
		t.Errorf("changed clone answers %v, want %v", got, want)
	}
	if got, want := c.Attrs(), []attr.ID{2, 3, 4, 5, 6}; !slices.Equal(got, want) {
		t.Errorf("changed clone attrs %v, want %v", got, want)
	}

	// The source changes content: a clone taken before keeps its answers.
	c2 := src.Clone()
	src.ReplaceItem(2, attr.NewSet(1))
	if got := answers(c2); !slices.Equal(got, want) {
		t.Errorf("clone answers %v after the source changed, want %v", got, want)
	}
	if got := c2.Attrs(); !slices.Equal(got, wantAttrs) {
		t.Errorf("clone attrs %v after the source changed, want %v", got, wantAttrs)
	}
	if got, want := answers(src), []int{2, 2, 1, 1, 0, 3}; !slices.Equal(got, want) {
		t.Errorf("changed source answers %v, want %v", got, want)
	}
}

// bruteCount is result(q,p) by definition: a subset test per item.
func bruteCount(items []attr.Set, q attr.Set) int {
	n := 0
	for _, it := range items {
		if q.SubsetOf(it) {
			n++
		}
	}
	return n
}

// randomSet draws up to maxLen attributes from [lo, lo+span).
func randomSet(rng *stats.RNG, lo, span, maxLen int) attr.Set {
	ids := make([]attr.ID, rng.Intn(maxLen+1))
	for i := range ids {
		ids[i] = attr.ID(lo + rng.Intn(span))
	}
	return attr.NewSet(ids...)
}

// TestFlatPostingsMatchBruteForce holds the flat index to the
// definition of result(q,p): over random items and random queries (the
// empty query, attributes the peer does not hold, negative IDs), after
// each kind of content change and on both sides of a Clone one side of
// which is then changed, ResultCount, ResultCountRO and AttrFrequencies
// must equal a subset test per item.
func TestFlatPostingsMatchBruteForce(t *testing.T) {
	check := func(t *testing.T, what string, p *Peer, rng *stats.RNG) {
		t.Helper()
		items := p.Items()
		p.Freeze()
		queries := []attr.Set{{}, attr.NewSet(-7), attr.NewSet(1 << 20), attr.NewSet(-3, 4)}
		for i := 0; i < 40; i++ {
			// The range is wider than the items' so some attributes miss.
			queries = append(queries, randomSet(rng, -4, 24, 3))
		}
		for _, q := range queries {
			want := bruteCount(items, q)
			if got := p.ResultCountRO(q); got != want {
				t.Fatalf("%s: ResultCountRO(%v) = %d, want %d over %v", what, q, got, want, items)
			}
			// Twice: the first call on a changed peer builds the index,
			// the second reads it.
			for range 2 {
				if got := p.ResultCount(q); got != want {
					t.Fatalf("%s: ResultCount(%v) = %d, want %d over %v", what, q, got, want, items)
				}
			}
		}
		freq := make(map[attr.ID]int)
		for _, it := range items {
			for _, a := range it.IDs() {
				freq[a]++
			}
		}
		got := p.AttrFrequencies()
		if len(got) != len(freq) {
			t.Fatalf("%s: AttrFrequencies has %d attributes, want %d", what, len(got), len(freq))
		}
		for a, n := range freq {
			if got[a] != n {
				t.Fatalf("%s: AttrFrequencies[%d] = %d, want %d", what, a, got[a], n)
			}
		}
		attrs := p.Attrs()
		if len(attrs) != len(freq) || !slices.IsSorted(attrs) {
			t.Fatalf("%s: Attrs %v, want the %d distinct attributes ascending", what, attrs, len(freq))
		}
		for _, a := range slices.Concat(attrs, []attr.ID{-7, 1 << 20}) {
			var want []int32
			for i, it := range items {
				if it.Contains(a) {
					want = append(want, int32(i))
				}
			}
			if got := p.ItemsWith(a); !slices.Equal(got, want) {
				t.Fatalf("%s: ItemsWith(%d) = %v, want %v", what, a, got, want)
			}
		}
	}
	for seed := uint64(1); seed <= 50; seed++ {
		rng := stats.NewRNG(seed)
		item := func() attr.Set { return randomSet(rng, -2, 16, 6) }
		p := New(0)
		check(t, "no items", p, rng)
		items := make([]attr.Set, rng.Intn(10))
		for i := range items {
			items[i] = item()
		}
		p.SetItems(items)
		check(t, "SetItems", p, rng)
		p.AddItem(item())
		check(t, "AddItem", p, rng)
		p.ReplaceItem(rng.Intn(p.NumItems()), item())
		check(t, "ReplaceItem", p, rng)

		c := p.Clone()
		check(t, "clone", c, rng)
		c.ReplaceItem(rng.Intn(c.NumItems()), item())
		c.AddItem(item())
		check(t, "changed clone", c, rng)
		check(t, "source of a changed clone", p, rng)
		d := p.Clone()
		p.SetItems(items)
		check(t, "clone of a changed source", d, rng)
		check(t, "changed source", p, rng)
	}
}

// TestResultCountROAllocationFree pins the concurrent read path, which
// every routed query runs per candidate peer, at no allocation for
// empty, single-attribute, multi-attribute and unanswerable queries.
func TestResultCountROAllocationFree(t *testing.T) {
	p := New(0)
	p.SetItems([]attr.Set{attr.NewSet(1, 2, 3), attr.NewSet(2, 3, 5), attr.NewSet(3, 8)})
	p.Freeze()
	queries := []attr.Set{{}, attr.NewSet(3), attr.NewSet(2, 3), attr.NewSet(1, 8), attr.NewSet(9), attr.NewSet(2, 9)}
	if n := testing.AllocsPerRun(100, func() {
		for _, q := range queries {
			p.ResultCountRO(q)
		}
	}); n != 0 {
		t.Errorf("ResultCountRO allocates %v objects per run, want 0", n)
	}
}
