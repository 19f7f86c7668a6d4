// Package corpus generates the synthetic document collection that
// stands in for the Newsgroup articles of the paper's evaluation (§4).
//
// The paper's experiments depend on three properties of the collection:
// (1) documents belong to one of 10 categories and words of a category
// co-occur on peers holding that category, (2) term frequencies are
// skewed (the paper sorts words by frequency after preprocessing), and
// (3) texts pass through a preprocessing pipeline (stop-word removal and
// lemmatization). The generator reproduces all three: each category has
// a disjoint synthetic vocabulary with Zipf-distributed term
// frequencies, plus an optional shared vocabulary, and raw texts are
// salted with stop words and morphological variants so the textproc
// pipeline does real work. Generation is fully deterministic per seed.
//
// A document's term set is what that pipeline makes of its raw text,
// every time: the text is written out byte for byte, tokenized, stop
// words dropped, every remaining token stemmed and looked up in the
// vocabulary, and an unknown term panics. A sampled word is copied from
// the vocabulary's name table, not spelled from its syllables again;
// the terms go into the set by ID, which orders them, so they are not
// counted and sorted as strings first; and the scratch for all of it
// is local to the call, because forks of one System share their
// generator across goroutines.
//
// The canonical vocabulary is a pure function of the corpus shape
// (Categories, VocabPerCategory, SharedVocab): category c's k-th word
// has ID c*VocabPerCategory+k and shared word k has ID
// Categories*VocabPerCategory+k. A process builds it once per shape,
// the first time a generator of that shape is made: every word is
// spelled, checked to be a fixed point of the pipeline and to be new,
// and interned, and the vocabulary is frozen. Every generator then
// starts from an attr.Vocab Fork of it, which shares the frozen tables
// until something interns a word the shape does not have (the
// long-haul sweep's novel query words); only that generator's fork
// then copies the index, and no other generator sees the word.
package corpus

import (
	"fmt"
	"sync"

	"repro/internal/attr"
	"repro/internal/textproc"
)

// Word construction: purely alphabetic tokens built from
// consonant-vowel syllables, ending in a consonant that the stemmer
// leaves alone, so that canonical words are fixed points of the
// preprocessing pipeline while their morphological variants (word+"s",
// word+"ing", ...) normalize back to them.
const (
	wordConsonants = "bcdfghjkmnpqrtvw" // no 'l','s','z' to dodge stemmer edge rules
	wordVowels     = "aeiou"
)

// categoryConsonant gives each category a distinct leading consonant,
// guaranteeing category vocabularies are disjoint.
func categoryConsonant(cat int) byte {
	return wordConsonants[cat%len(wordConsonants)]
}

// syllable encodes i as a consonant-vowel pair; there are 16*5 = 80
// distinct syllables.
func syllable(i int) (consonant, vowel byte) {
	nc, nv := len(wordConsonants), len(wordVowels)
	return wordConsonants[(i/nv)%nc], wordVowels[i%nv]
}

const syllableSpace = 80 // len(wordConsonants) * len(wordVowels)

// canonicalWord spells word index k behind a two-letter prefix: two
// syllables and a closing 'x'.
func canonicalWord(p0, p1 byte, k int) string {
	c1, v1 := syllable(k % syllableSpace)
	c2, v2 := syllable((k / syllableSpace) % syllableSpace)
	return string([]byte{p0, p1, c1, v1, c2, v2, 'x'})
}

// CategoryWord returns the canonical form of word index k of category
// cat. Words are fixed points of textproc.Stem by construction (a test
// asserts this for the whole vocabulary).
func CategoryWord(cat, k int) string {
	return canonicalWord(categoryConsonant(cat), 'a', k)
}

// SharedWord returns the canonical form of shared-vocabulary word k.
// Shared words start with the reserved prefix "zu" (the letter 'z' is
// excluded from category consonants), so they never collide with any
// category word.
func SharedWord(k int) string {
	return canonicalWord('z', 'u', k)
}

// morphVariants lists suffixes used to inflect canonical words in raw
// text; the textproc stemmer maps every variant back to the canonical
// word (asserted by tests).
var morphVariants = []string{"", "s", "ing", "ed", "ly"}

// inflect applies variant v to word w.
func inflect(w string, v int) string {
	return w + morphVariants[v%len(morphVariants)]
}

// verifyStable panics if w is not a fixed point of the preprocessing
// pipeline; canonicalVocab runs it on every word of a shape to validate
// the configuration up front rather than corrupting an experiment
// silently. The passing path allocates nothing: the inflected forms it
// stems never leave the stack, and the message is only put together
// once a check has failed.
func verifyStable(w string) {
	if textproc.Stem(w) != w || textproc.IsStopword(w) {
		panic(fmt.Sprintf("corpus: word %q is not preprocessing-stable", w))
	}
	for v := range morphVariants {
		if textproc.Stem(inflect(w, v)) != w {
			panic(fmt.Sprintf("corpus: variant %q of %q stems to %q", inflect(w, v), w, textproc.Stem(inflect(w, v))))
		}
	}
}

// shape is what the canonical vocabulary is a function of.
type shape struct{ categories, perCategory, shared int }

// canonical holds the frozen canonical vocabulary of every shape the
// process has made a generator of. It memoizes a pure function: an
// entry is frozen and never replaced, so no caller, test or not, can
// tell whether another built it first.
var canonical struct {
	sync.Mutex
	byShape map[shape]*attr.Vocab
}

// canonicalVocab returns the frozen canonical vocabulary of cfg's shape
// (see the package doc), building and verifying it on the first call
// for that shape. Later calls, from any goroutine, return the same
// vocabulary; a build that panics stores nothing.
func canonicalVocab(cfg Config) *attr.Vocab {
	key := shape{cfg.Categories, cfg.VocabPerCategory, cfg.SharedVocab}
	canonical.Lock()
	defer canonical.Unlock()
	if v, ok := canonical.byShape[key]; ok {
		return v
	}
	v := attr.NewVocabSized(key.categories*key.perCategory + key.shared)
	for c := 0; c < key.categories; c++ {
		for k := 0; k < key.perCategory; k++ {
			internNext(v, CategoryWord(c, k))
		}
	}
	for k := 0; k < key.shared; k++ {
		internNext(v, SharedWord(k))
	}
	v.Freeze()
	if canonical.byShape == nil {
		canonical.byShape = make(map[shape]*attr.Vocab)
	}
	canonical.byShape[key] = v
	return v
}

// internNext verifies canonical word w and gives it the next dense ID.
func internNext(v *attr.Vocab, w string) {
	verifyStable(w)
	if next := attr.ID(v.Len()); v.Intern(w) != next {
		panic(fmt.Sprintf("corpus: canonical word %q generated twice", w))
	}
}
