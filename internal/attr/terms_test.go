package attr

import (
	"fmt"
	"sync"
	"testing"
)

func termName(i int) string { return fmt.Sprintf("t%05d", i) }

// checkTable asserts t resolves exactly the first n names.
func checkTable(t *testing.T, tab *TermTable, n int, label string) {
	t.Helper()
	if tab.Len() != n || len(tab.Names()) != n {
		t.Fatalf("%s: covers %d names (%d listed), want %d", label, tab.Len(), len(tab.Names()), n)
	}
	for i := 0; i < n; i++ {
		if id, ok := tab.Lookup(termName(i)); !ok || id != ID(i) || tab.Names()[i] != termName(i) {
			t.Fatalf("%s: term %d resolves to (%d, %v), listed as %q", label, i, id, ok, tab.Names()[i])
		}
		if id, ok := tab.LookupBytes([]byte(termName(i))); !ok || id != ID(i) {
			t.Fatalf("%s: term %d resolves from bytes to (%d, %v)", label, i, id, ok)
		}
	}
	for _, unknown := range []string{termName(n), termName(n + termFoldAt), ""} {
		if id, ok := tab.Lookup(unknown); ok {
			t.Fatalf("%s: resolves %q, interned after it was taken, to %d", label, unknown, id)
		}
		if id, ok := tab.LookupBytes([]byte(unknown)); ok {
			t.Fatalf("%s: resolves %q from bytes to %d", label, unknown, id)
		}
	}
}

// TestTermTableGrow pins the table's contract across many growths,
// through several folds of the overlay into the base: every table ever
// returned keeps resolving exactly the names it was built over, a fold
// changes no answer, and a table grown step by step equals one built
// from scratch over the same names.
func TestTermTableGrow(t *testing.T) {
	names := make([]string, 3*termFoldAt+100)
	for i := range names {
		names[i] = termName(i)
	}
	tab := NewTermTable(names[:50])
	kept := map[int]*TermTable{50: tab}
	n := 50
	folds := 0
	for step := 0; n < len(names); step++ {
		add := 1 + step%7
		if n+add > len(names) {
			add = len(names) - n
		}
		next := tab.Grow(names[n : n+add])
		n += add
		if next.overlay == nil {
			folds++
			checkTable(t, tab, n-add, "the table before a fold")
			checkTable(t, next, n, "the table a fold produced")
		}
		if step%97 == 0 {
			kept[n] = next
		}
		tab = next
	}
	if folds < 3 {
		t.Fatalf("%d names folded the overlay %d times; the schedule no longer crosses the threshold", len(names), folds)
	}
	for n, old := range kept {
		checkTable(t, old, n, fmt.Sprintf("the table taken at %d names", n))
	}
	checkTable(t, NewTermTable(names), len(names), "a table built from scratch")
	checkTable(t, tab, len(names), "the table grown step by step")
	if tab.Grow(nil) != tab {
		t.Fatal("growing by nothing built a new table")
	}

	// Two successors of one table: the second must not see, or
	// overwrite, what the first appended.
	base := kept[50]
	a := base.Grow([]string{"left"})
	b := base.Grow([]string{"right"})
	if id, ok := a.Lookup("left"); !ok || id != 50 || a.Names()[50] != "left" {
		t.Fatalf("first successor lost its name: (%d, %v) %q", id, ok, a.Names()[50])
	}
	if id, ok := b.Lookup("right"); !ok || id != 50 || b.Names()[50] != "right" {
		t.Fatalf("second successor lost its name: (%d, %v) %q", id, ok, b.Names()[50])
	}
	if _, ok := b.Lookup("left"); ok {
		t.Fatal("second successor resolves the first one's name")
	}
}

// TestTermTableReadersDuringGrowth runs under -race: readers keep
// resolving against, and listing, tables they were handed while the
// one writer grows the chain past them.
func TestTermTableReadersDuringGrowth(t *testing.T) {
	tab := NewTermTable([]string{termName(0)})
	published := make(chan *TermTable, 8)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tab := range published {
				n := tab.Len()
				for i := 0; i < n; i += 1 + n/16 {
					if id, ok := tab.Lookup(termName(i)); !ok || id != ID(i) || tab.Names()[i] != termName(i) {
						t.Errorf("table of %d names: term %d resolves to (%d, %v)", n, i, id, ok)
						return
					}
				}
				if _, ok := tab.Lookup(termName(n)); ok {
					t.Errorf("table of %d names resolves the next one", n)
					return
				}
			}
		}()
	}
	for n := 1; n < termFoldAt+200; n++ {
		published <- tab
		tab = tab.Grow([]string{termName(n)})
	}
	close(published)
	wg.Wait()
}
