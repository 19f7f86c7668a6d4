package experiments

import (
	"sync"
	"testing"

	"repro/internal/stats"
)

// TestJoinPeerNovelStaysInItsSystem: the words JoinPeerNovel interns go
// into its own system's vocabulary only. A system built afterwards has
// the shape's canonical words and nothing else, and equals one built
// before.
func TestJoinPeerNovelStaysInItsSystem(t *testing.T) {
	p := fastParams()
	before := Build(p, SameCategory)
	sys := Build(p, SameCategory)
	eng := sys.NewEngine(sys.CategoryConfig())
	sys.JoinPeerNovel(eng, 0, 1, 2, stats.NewRNG(3))
	canon := p.Corpus.Categories*p.Corpus.VocabPerCategory + p.Corpus.SharedVocab
	if got := sys.Gen.Vocab().Len(); got != canon+2 {
		t.Fatalf("the joining system's vocabulary has %d words, want %d", got, canon+2)
	}
	after := Build(p, SameCategory)
	if got := after.Gen.Vocab().Len(); got != canon {
		t.Fatalf("a system built after the join has %d words, want C*V+S = %d", got, canon)
	}
	for _, v := range []*System{before, after} {
		if _, ok := v.Gen.Vocab().Lookup("novel!1"); ok {
			t.Fatal("another system's novel word shows in a separately built system")
		}
	}
	if d := diffSystems(before, after); d != "" {
		t.Fatalf("systems built before and after the join differ: %s", d)
	}
}

// TestConcurrentBuildsOfOneShape: Builds of a corpus shape no other test
// uses, on four goroutines at once, share its canonical vocabulary's
// first construction and each equal a serial Build. Run under -race.
func TestConcurrentBuildsOfOneShape(t *testing.T) {
	p := fastParams()
	p.Corpus.VocabPerCategory = 1999
	systems := make([]*System, 4)
	var wg sync.WaitGroup
	for i := range systems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			systems[i] = Build(p, Scenario(i%3))
		}()
	}
	wg.Wait()
	for i, sys := range systems {
		if d := diffSystems(sys, Build(p, Scenario(i%3))); d != "" {
			t.Fatalf("concurrent build %d differs from a serial one: %s", i, d)
		}
	}
}
