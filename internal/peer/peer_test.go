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
		// Twice: second hit exercises the memo cache.
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
