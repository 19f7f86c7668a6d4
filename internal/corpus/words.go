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
// vocabulary, and an unknown term panics. What the generator does only
// once is the work whose result it already holds. A sampled word is
// copied from the vocabulary's name table, not spelled from its
// syllables again; the terms go into the set by ID, which orders them,
// so they are not counted and sorted as strings first; and the scratch
// for all of it is local to the call, because forks of one System share
// their generator across goroutines.
package corpus

import (
	"fmt"

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
// pipeline; used by the generator constructor to validate configuration
// up front rather than corrupting an experiment silently. The
// constructor runs it on every word, so the passing path allocates
// nothing: the inflected forms it stems never leave the stack, and the
// message is only put together once a check has failed.
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
