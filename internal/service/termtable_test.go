package service

import (
	"fmt"
	"net/http"
	"sync"
	"testing"

	"repro/internal/api"
)

// TestPublishedTermTable pins the term table a read view carries across
// vocabulary growth: a view published before a term was interned never
// resolves it and the first one published after does, and readers still
// answering from old views race with nothing while the writer interns
// and publishes (run with -race). (The router's table, which grows in
// place of being rebuilt, has TestRouterTermTableGrowth.)
func TestPublishedTermTable(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	novel := func(i int) string { return fmt.Sprintf("novel-%04d", i) }
	join := func(i int) {
		body := joinBody(i%3, i)
		body.Items = append(body.Items, []string{novel(i)})
		if code, out := do(h, "POST", "/v1/peers", body); code != http.StatusCreated {
			t.Fatalf("join %d: %d %s", i, code, out)
		}
	}
	// total answers one term from one view, as the data plane would.
	total := func(v *readView, term string) int {
		sc := api.GetScratch()
		defer api.PutScratch(sc)
		return api.Answer(v.terms, v.routing, nil, []string{term}, sc).Total
	}

	const joins = 80
	join(0)
	views := []*readView{s.loadView()}

	// Readers keep asking views they were handed, old ones included,
	// while the joins below grow the vocabulary under them.
	handed := make(chan int, joins)
	var mu sync.Mutex // guards views
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range handed {
				mu.Lock()
				old, cur := views[i/2], views[i]
				mu.Unlock()
				if n := total(cur, novel(i)); n != 1 {
					t.Errorf("view %d answers %d for its own newcomer's term", i, n)
				}
				if n := total(old, novel(i/2)); n != 1 {
					t.Errorf("view %d answers %d for term %d once view %d exists", i/2, n, i/2, i)
				}
				if i > 0 {
					if n := total(old, novel(i)); n != 0 {
						t.Errorf("view %d, published before term %d was interned, resolves it (total %d)", i/2, i, n)
					}
				}
			}
		}()
	}
	for i := 1; i < joins; i++ {
		before := s.loadView()
		join(i)
		after := s.loadView()
		if n := total(before, novel(i)); n != 0 {
			t.Fatalf("the view published before join %d resolves its term (total %d)", i, n)
		}
		if n := total(after, novel(i)); n != 1 {
			t.Fatalf("the view published after join %d answers %d for its term", i, n)
		}
		mu.Lock()
		views = append(views, after)
		mu.Unlock()
		handed <- i
	}
	close(handed)
	wg.Wait()

	// The last view answers every term as the view of a daemon restored
	// from its snapshot does.
	last := s.loadView()
	restored, err := NewFromSnapshot(Config{}, s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	ref := restored.loadView()
	if ref.terms.Len() != last.terms.Len() {
		t.Fatalf("restored vocabulary has %d terms, the grown one %d", ref.terms.Len(), last.terms.Len())
	}
	for _, name := range last.terms.Names() {
		if a, b := total(last, name), total(ref, name); a != b || a == 0 {
			t.Fatalf("term %q: grown table answers %d, rebuilt table %d", name, a, b)
		}
	}
}
