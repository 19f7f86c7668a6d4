package corpus

import (
	"fmt"

	"repro/internal/attr"
	"repro/internal/stats"
	"repro/internal/textproc"
)

// Config parametrizes the synthetic collection.
type Config struct {
	// Categories is the number of topical categories (the paper uses 10).
	Categories int
	// VocabPerCategory is the number of distinct canonical words per
	// category.
	VocabPerCategory int
	// SharedVocab is the number of canonical words shared across all
	// categories (topic-neutral vocabulary). May be zero.
	SharedVocab int
	// WordsPerDoc is the number of content words sampled per document.
	WordsPerDoc int
	// TermZipfS is the Zipf exponent of term frequencies within a
	// category vocabulary.
	TermZipfS float64
	// SharedFraction is the probability that a sampled content word is
	// drawn from the shared vocabulary instead of the category one.
	SharedFraction float64
	// MorphNoise is the probability a word appears inflected
	// (plural, -ing, -ed, -ly) in the raw text.
	MorphNoise float64
	// StopNoise is the expected number of stop words inserted per
	// content word in the raw text.
	StopNoise float64
}

// DefaultConfig mirrors the paper's setting: 10 categories, a few
// hundred words each, moderately skewed term frequencies.
func DefaultConfig() Config {
	return Config{
		Categories:       10,
		VocabPerCategory: 200,
		SharedVocab:      50,
		WordsPerDoc:      60,
		TermZipfS:        0.9,
		SharedFraction:   0.1,
		MorphNoise:       0.3,
		StopNoise:        0.5,
	}
}

// Document is one synthetic article.
type Document struct {
	// Category is the topical category the document was generated from.
	Category int
	// Text is the raw text, pre-preprocessing (contains stop words and
	// inflected forms).
	Text string
	// Terms is the document's attribute set after the full textproc
	// pipeline, interned against the generator's vocabulary.
	Terms attr.Set
}

// Generator produces documents and query words deterministically from a
// seed. It owns the attr.Vocab all its documents are interned against:
// a fork of its shape's canonical vocabulary, so category c's k-th word
// (sorted by decreasing expected frequency, rank order) has ID
// c*VocabPerCategory + k and the shared words follow the last category.
// Sampling, WordRank and CategoryOf work on that layout, not on names.
type Generator struct {
	cfg     Config
	vocab   *attr.Vocab
	rng     *stats.RNG
	catDist *stats.Zipf
	shDist  *stats.Zipf
}

// NewGenerator validates cfg and returns a generator over a fork of the
// canonical vocabulary of cfg's shape. The first generator of a shape
// in a process builds and verifies that vocabulary; every later one
// only forks it, and interning into one generator's vocabulary never
// shows in another's (see the package doc).
func NewGenerator(cfg Config, seed uint64) *Generator {
	if cfg.Categories <= 0 || cfg.Categories > len(wordConsonants) {
		panic(fmt.Sprintf("corpus: Categories=%d outside [1,%d]", cfg.Categories, len(wordConsonants)))
	}
	if cfg.VocabPerCategory <= 0 || cfg.VocabPerCategory > syllableSpace*syllableSpace {
		panic(fmt.Sprintf("corpus: VocabPerCategory=%d out of range", cfg.VocabPerCategory))
	}
	if cfg.WordsPerDoc <= 0 {
		panic("corpus: WordsPerDoc must be positive")
	}
	g := &Generator{
		cfg:     cfg,
		vocab:   canonicalVocab(cfg).Fork(),
		rng:     stats.NewRNG(seed),
		catDist: stats.NewZipf(cfg.VocabPerCategory, cfg.TermZipfS),
	}
	if cfg.SharedVocab > 0 {
		g.shDist = stats.NewZipf(cfg.SharedVocab, cfg.TermZipfS)
	}
	return g
}

// Vocab returns the vocabulary shared by all generated documents.
func (g *Generator) Vocab() *attr.Vocab { return g.vocab }

// Config returns the generator configuration.
func (g *Generator) Config() Config { return g.cfg }

// Document generates one article of the given category using the
// generator's own RNG stream.
func (g *Generator) Document(category int) Document {
	return g.DocumentRNG(category, g.rng)
}

// DocumentRNG generates one article of the given category using rng,
// allowing callers to carve independent deterministic streams.
func (g *Generator) DocumentRNG(category int, rng *stats.RNG) Document {
	if category < 0 || category >= g.cfg.Categories {
		panic(fmt.Sprintf("corpus: category %d out of range [0,%d)", category, g.cfg.Categories))
	}
	// The scratch is local, not the generator's: forks of one System
	// share their generator and call this concurrently. It is sized for
	// a document several times the paper's 30 words and stays on the
	// stack; a longer document grows past it onto the heap.
	raw := make([]byte, 0, 1024)
	stopP := g.cfg.StopNoise / (1 + g.cfg.StopNoise)
	for i := 0; i < g.cfg.WordsPerDoc; i++ {
		var id attr.ID
		if g.shDist != nil && rng.Bool(g.cfg.SharedFraction) {
			id = g.sharedWord(g.shDist.Sample(rng))
		} else {
			id = g.WordRank(category, g.catDist.Sample(rng))
		}
		if i > 0 {
			raw = append(raw, ' ')
		}
		raw = append(raw, g.vocab.Name(id)...)
		if rng.Bool(g.cfg.MorphNoise) {
			raw = append(raw, morphVariants[1+rng.Intn(len(morphVariants)-1)]...)
		}
		// Salt with stop words so the pipeline's filter has work to do.
		for rng.Bool(stopP) {
			raw = append(raw, ' ')
			raw = append(raw, textproc.StopwordAt(rng.Intn(textproc.StopwordCount()))...)
		}
	}
	text := string(raw)
	var termBuf [192]string
	var idBuf [128]attr.ID
	ids := idBuf[:0]
	for _, t := range textproc.AppendProcessed(termBuf[:0], text) {
		// Every canonical word is in the vocabulary; anything
		// unseen would indicate pipeline drift, which we want loudly.
		id, ok := g.vocab.Lookup(t)
		if !ok {
			panic(fmt.Sprintf("corpus: processed term %q missing from vocabulary", t))
		}
		ids = append(ids, id)
	}
	return Document{Category: category, Text: text, Terms: attr.NewSet(ids...)}
}

// QueryWordRNG samples a category word with the same Zipf skew used for
// document generation — the paper generates queries "by choosing a
// random word from the texts", so frequent words are queried more.
func (g *Generator) QueryWordRNG(category int, rng *stats.RNG) attr.ID {
	return g.WordRank(category, g.catDist.Sample(rng))
}

// WordRank returns the interned ID of category cat's rank-k word
// (rank 0 = most frequent). It panics outside the shape.
func (g *Generator) WordRank(cat, k int) attr.ID {
	if cat < 0 || cat >= g.cfg.Categories || k < 0 || k >= g.cfg.VocabPerCategory {
		panic(fmt.Sprintf("corpus: word %d of category %d outside %d x %d", k, cat, g.cfg.Categories, g.cfg.VocabPerCategory))
	}
	return attr.ID(cat*g.cfg.VocabPerCategory + k)
}

// sharedWord returns the interned ID of the rank-k shared word.
func (g *Generator) sharedWord(k int) attr.ID {
	return attr.ID(g.cfg.Categories*g.cfg.VocabPerCategory + k)
}

// CategoryOf returns the category owning id and true, or 0,false for
// every other attribute: a shared-vocabulary word, or one interned
// into the generator's vocabulary after construction.
func (g *Generator) CategoryOf(id attr.ID) (int, bool) {
	if id < 0 || int(id) >= g.cfg.Categories*g.cfg.VocabPerCategory {
		return 0, false
	}
	return int(id) / g.cfg.VocabPerCategory, true
}
