package corpus

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/attr"
	"repro/internal/stats"
	"repro/internal/textproc"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.VocabPerCategory = 100
	cfg.WordsPerDoc = 25
	return cfg
}

func TestVocabularyIsPreprocessingStable(t *testing.T) {
	// Every canonical word and every morphological variant must
	// normalize back to the canonical form under the full pipeline.
	for cat := 0; cat < 10; cat++ {
		for k := 0; k < 200; k++ {
			w := CategoryWord(cat, k)
			if textproc.Stem(w) != w {
				t.Fatalf("word %q not a stemmer fixed point", w)
			}
			for v := range morphVariants {
				if got := textproc.Stem(inflect(w, v)); got != w {
					t.Fatalf("variant %q of %q stems to %q", inflect(w, v), w, got)
				}
			}
		}
	}
	for k := 0; k < 100; k++ {
		w := SharedWord(k)
		if textproc.Stem(w) != w {
			t.Fatalf("shared word %q not stable", w)
		}
	}
}

func TestVocabularyDisjointness(t *testing.T) {
	seen := map[string][2]int{}
	for cat := 0; cat < 10; cat++ {
		for k := 0; k < 300; k++ {
			w := CategoryWord(cat, k)
			if prev, dup := seen[w]; dup {
				t.Fatalf("word %q collides: cat%d/k%d and cat%d/k%d", w, prev[0], prev[1], cat, k)
			}
			seen[w] = [2]int{cat, k}
		}
	}
	for k := 0; k < 100; k++ {
		w := SharedWord(k)
		if _, dup := seen[w]; dup {
			t.Fatalf("shared word %q collides with a category word", w)
		}
		if !strings.HasPrefix(w, "zu") {
			t.Fatalf("shared word %q lacks the reserved prefix", w)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(testConfig(), 5)
	b := NewGenerator(testConfig(), 5)
	for i := 0; i < 20; i++ {
		da := a.Document(i % 10)
		db := b.Document(i % 10)
		if da.Text != db.Text {
			t.Fatalf("doc %d diverged", i)
		}
		if !da.Terms.Equal(db.Terms) {
			t.Fatalf("doc %d terms diverged", i)
		}
	}
}

func TestDocumentTermsBelongToCategory(t *testing.T) {
	cfg := testConfig()
	cfg.SharedFraction = 0
	g := NewGenerator(cfg, 7)
	for cat := 0; cat < cfg.Categories; cat++ {
		doc := g.Document(cat)
		if doc.Category != cat {
			t.Fatalf("doc category %d want %d", doc.Category, cat)
		}
		if doc.Terms.Len() == 0 {
			t.Fatalf("empty document for category %d", cat)
		}
		for _, id := range doc.Terms.IDs() {
			c, ok := g.CategoryOf(id)
			if !ok || c != cat {
				t.Fatalf("category-%d doc contains foreign term %q (cat %d, ok=%v)",
					cat, g.Vocab().Name(id), c, ok)
			}
		}
	}
}

func TestSharedFractionIntroducesSharedTerms(t *testing.T) {
	cfg := testConfig()
	cfg.SharedFraction = 0.5
	g := NewGenerator(cfg, 9)
	sharedSeen := false
	for i := 0; i < 10 && !sharedSeen; i++ {
		doc := g.Document(0)
		for _, id := range doc.Terms.IDs() {
			if _, ok := g.CategoryOf(id); !ok {
				sharedSeen = true
				break
			}
		}
	}
	if !sharedSeen {
		t.Fatal("no shared-vocabulary term in 10 documents at fraction 0.5")
	}
}

func TestRawTextExercisesPipeline(t *testing.T) {
	cfg := testConfig()
	cfg.StopNoise = 2 // heavy stop-word salting
	cfg.MorphNoise = 1
	g := NewGenerator(cfg, 11)
	doc := g.Document(3)
	toks := textproc.Tokenize(doc.Text)
	stops, inflected := 0, 0
	for _, tok := range toks {
		if textproc.IsStopword(tok) {
			stops++
		} else if textproc.Stem(tok) != tok {
			inflected++
		}
	}
	if stops == 0 {
		t.Error("no stop words in raw text despite StopNoise")
	}
	if inflected == 0 {
		t.Error("no inflected forms in raw text despite MorphNoise")
	}
}

func TestQueryWordRNGInVocabulary(t *testing.T) {
	g := NewGenerator(testConfig(), 13)
	rng := stats.NewRNG(1)
	for i := 0; i < 100; i++ {
		id := g.QueryWordRNG(4, rng)
		c, ok := g.CategoryOf(id)
		if !ok || c != 4 {
			t.Fatalf("query word from wrong category: %v %v", c, ok)
		}
	}
}

func TestWordRank(t *testing.T) {
	g := NewGenerator(testConfig(), 15)
	if g.Vocab().Name(g.WordRank(2, 0)) != CategoryWord(2, 0) {
		t.Fatal("WordRank mismatch")
	}
}

func TestNewGeneratorValidation(t *testing.T) {
	cases := []Config{
		{Categories: 0, VocabPerCategory: 10, WordsPerDoc: 5},
		{Categories: 100, VocabPerCategory: 10, WordsPerDoc: 5},
		{Categories: 5, VocabPerCategory: 0, WordsPerDoc: 5},
		{Categories: 5, VocabPerCategory: 10, WordsPerDoc: 0},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			NewGenerator(cfg, 1)
		}()
	}
}

func TestCategoryOfSharedWord(t *testing.T) {
	g := NewGenerator(testConfig(), 17)
	rng := stats.NewRNG(2)
	doc := g.DocumentRNG(0, rng)
	_ = doc
	id := g.sharedWord(0)
	if _, ok := g.CategoryOf(id); ok {
		t.Fatal("shared word attributed to a category")
	}
	if g.Vocab().Name(id) != SharedWord(0) {
		t.Fatalf("shared word 0 has ID %d, which names %q", id, g.Vocab().Name(id))
	}
}

// TestCategoryOfNovelWord: a word interned into the generator's
// vocabulary after construction (JoinPeerNovel's "novel!N") belongs to
// no category, whatever letter it starts with. Read off the name, 'n'
// made it a category-9 word.
func TestCategoryOfNovelWord(t *testing.T) {
	cfg := testConfig()
	g := NewGenerator(cfg, 19)
	for _, name := range []string{"novel!0", "ba", "zu", CategoryWord(9, cfg.VocabPerCategory)} {
		id := g.Vocab().Intern(name)
		if c, ok := g.CategoryOf(id); ok {
			t.Errorf("%q, interned after construction, reports as a category-%d word", name, c)
		}
	}
	if _, ok := g.CategoryOf(-1); ok {
		t.Error("a negative ID reports a category")
	}
	for c := 0; c < cfg.Categories; c++ {
		for _, k := range []int{0, cfg.VocabPerCategory - 1} {
			if got, ok := g.CategoryOf(g.WordRank(c, k)); !ok || got != c {
				t.Errorf("word %d of category %d reports (%d, %v)", k, c, got, ok)
			}
		}
	}
}

// TestCanonicalVocabularyLayout: a generator's vocabulary holds exactly
// the canonical words of its shape, category c's k-th word under ID
// c*V+k and shared word k under C*V+k, and the frozen vocabulary it
// forks is the one every generator of the shape forks.
func TestCanonicalVocabularyLayout(t *testing.T) {
	cfg := testConfig()
	g := NewGenerator(cfg, 27)
	C, V, S := cfg.Categories, cfg.VocabPerCategory, cfg.SharedVocab
	v := g.Vocab()
	if v.Len() != C*V+S {
		t.Fatalf("vocabulary of %d words, want %d", v.Len(), C*V+S)
	}
	for c := 0; c < C; c++ {
		for k := 0; k < V; k++ {
			if id := g.WordRank(c, k); int(id) != c*V+k || v.Name(id) != CategoryWord(c, k) {
				t.Fatalf("word %d of category %d: ID %d names %q", k, c, id, v.Name(id))
			}
		}
	}
	for k := 0; k < S; k++ {
		if id, ok := v.Lookup(SharedWord(k)); !ok || int(id) != C*V+k {
			t.Fatalf("shared word %d: ID %d, %v", k, id, ok)
		}
	}
	if canonicalVocab(cfg) != canonicalVocab(cfg) {
		t.Fatal("one shape has two canonical vocabularies")
	}
}

// TestGeneratorVocabulariesIndependent: a word interned into one
// generator's vocabulary shows neither in another generator of the same
// shape, made before or after, nor in the canonical vocabulary.
func TestGeneratorVocabulariesIndependent(t *testing.T) {
	cfg := testConfig()
	before := NewGenerator(cfg, 29)
	g := NewGenerator(cfg, 29)
	want := cfg.Categories*cfg.VocabPerCategory + cfg.SharedVocab
	if id := g.Vocab().Intern("novel!1"); int(id) != want {
		t.Fatalf("first novel word got ID %d, want %d", id, want)
	}
	after := NewGenerator(cfg, 29)
	for name, v := range map[string]*attr.Vocab{"earlier generator": before.Vocab(), "later generator": after.Vocab(), "canonical vocabulary": canonicalVocab(cfg)} {
		if _, ok := v.Lookup("novel!1"); ok || v.Len() != want {
			t.Errorf("the %s sees another generator's novel word (%d words)", name, v.Len())
		}
	}
	if after.Vocab().Intern("novel!2") != attr.ID(want) {
		t.Error("a later generator does not number its own novel words from the shape's size")
	}
}

// TestNewGeneratorReusesCanonicalVocabulary: once a shape's vocabulary
// is built, a generator of that shape costs its samplers and a fork,
// not one allocation per word.
func TestNewGeneratorReusesCanonicalVocabulary(t *testing.T) {
	cfg := testConfig()
	NewGenerator(cfg, 31)
	if got := testing.AllocsPerRun(20, func() { NewGenerator(cfg, 31) }); got > 10 {
		t.Errorf("NewGenerator of a built shape allocates %.0f times, want at most 10", got)
	}
}

// pipelineConfigs are three corners of the generator: half the words
// shared, every word inflected, two stop words per content word.
func pipelineConfigs() map[string]Config {
	shared, morph, stop := testConfig(), testConfig(), testConfig()
	shared.SharedFraction = 0.5
	morph.MorphNoise = 1
	stop.StopNoise = 2
	return map[string]Config{"SharedFraction=0.5": shared, "MorphNoise=1": morph, "StopNoise=2": stop}
}

// TestDocumentTermsMatchPipeline: the term set of a document is what
// the pipeline's frequency-sorted view of its raw text interns to, the
// way the generator computed it before it kept IDs only.
func TestDocumentTermsMatchPipeline(t *testing.T) {
	for name, cfg := range pipelineConfigs() {
		g := NewGenerator(cfg, 21)
		for i := 0; i < 200; i++ {
			doc := g.Document(i % cfg.Categories)
			var ids []attr.ID
			for _, term := range textproc.UniqueTerms(doc.Text) {
				id, ok := g.Vocab().Lookup(term)
				if !ok {
					t.Fatalf("%s, document %d: term %q of the text is not in the vocabulary", name, i, term)
				}
				ids = append(ids, id)
			}
			if want := attr.NewSet(ids...); !doc.Terms.Equal(want) {
				t.Fatalf("%s, document %d: Terms %v, the pipeline over Text gives %v", name, i, doc.Terms, want)
			}
		}
	}
}

// TestDocumentRNGConcurrent: forks of one System share their generator
// and generate documents at the same time (Fig 3's cells), so eight
// goroutines on one generator, each with its own stream, must produce
// what the same streams produce one after another. Run under -race.
func TestDocumentRNGConcurrent(t *testing.T) {
	const streams, docs = 8, 50
	cfg := testConfig()
	g := NewGenerator(cfg, 23)
	generate := func(s int) []Document {
		rng := stats.NewRNG(uint64(100 + s))
		out := make([]Document, docs)
		for i := range out {
			out[i] = g.DocumentRNG((s+i)%cfg.Categories, rng)
		}
		return out
	}
	serial := make([][]Document, streams)
	for s := range serial {
		serial[s] = generate(s)
	}
	concurrent := make([][]Document, streams)
	var wg sync.WaitGroup
	for s := range concurrent {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[s] = generate(s)
		}()
	}
	wg.Wait()
	for s := range serial {
		for i := range serial[s] {
			a, b := serial[s][i], concurrent[s][i]
			if a.Category != b.Category || a.Text != b.Text || !a.Terms.Equal(b.Terms) {
				t.Fatalf("stream %d document %d differs between the serial and the concurrent run", s, i)
			}
		}
	}
}

// TestGenerationAllocations pins what a document costs the heap: its
// text and its term set (105 allocations before the generator wrote
// from its word table into local scratch), with slack for a document
// that outgrows the scratch. Verifying a canonical word costs nothing.
func TestGenerationAllocations(t *testing.T) {
	for name, cfg := range pipelineConfigs() {
		g := NewGenerator(cfg, 25)
		rng := stats.NewRNG(3)
		i := 0
		if got := testing.AllocsPerRun(200, func() {
			g.DocumentRNG(i%cfg.Categories, rng)
			i++
		}); got > 6 {
			t.Errorf("%s: DocumentRNG allocates %.1f times a document, want at most 6", name, got)
		}
	}
	w := CategoryWord(3, 77)
	if got := testing.AllocsPerRun(200, func() { verifyStable(w) }); got != 0 {
		t.Errorf("verifyStable allocates %.1f times a word, want 0", got)
	}
}
