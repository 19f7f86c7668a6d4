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
// but the generator does not run the pipeline to get it: it keeps the
// IDs it samples as it writes their words out, inflected or not, with
// stop words between them. The two agree because the pipeline works
// token by token over the space-separated text and the first generator
// of a shape checks every token such a text can hold: the pipeline
// gives back each word from each of its inflections, and drops each
// stop word. A sampled word is spelled from its rank straight into the
// text, as the vocabulary spelled it, not copied out of the name
// table, whose tens of thousands of strings miss the cache; and the
// scratch is local to the call, because forks of one System share
// their generator across goroutines.
//
// The canonical vocabulary is a pure function of the corpus shape
// (Categories, VocabPerCategory, SharedVocab): category c's k-th word
// has ID c*VocabPerCategory+k and shared word k has ID
// Categories*VocabPerCategory+k. A process builds it once per shape,
// the first time a generator of that shape is made: the stop words are
// checked, every word is spelled, checked in each of its inflections
// and to be new, and interned, and the vocabulary is frozen. Every
// generator then starts from an attr.Vocab Fork of it, which shares
// the frozen tables until something interns a word the shape does not
// have (the long-haul sweep's novel query words); only that
// generator's fork then copies the index, and no other generator sees
// the word.
package corpus

import (
	"fmt"
	"slices"
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

// appendWord appends word index k spelled behind a two-letter prefix:
// two syllables and a closing 'x'.
func appendWord(dst []byte, p0, p1 byte, k int) []byte {
	c1, v1 := syllable(k % syllableSpace)
	c2, v2 := syllable((k / syllableSpace) % syllableSpace)
	return append(dst, p0, p1, c1, v1, c2, v2, 'x')
}

// CategoryWord returns the canonical form of word index k of category
// cat. Words are fixed points of textproc.Stem by construction
// (verifyStable checks every word of a shape).
func CategoryWord(cat, k int) string {
	return string(appendCategoryWord(make([]byte, 0, 7), cat, k))
}

// appendCategoryWord appends CategoryWord(cat, k) to dst.
func appendCategoryWord(dst []byte, cat, k int) []byte {
	return appendWord(dst, categoryConsonant(cat), 'a', k)
}

// SharedWord returns the canonical form of shared-vocabulary word k.
// Shared words start with the reserved prefix "zu" (the letter 'z' is
// excluded from category consonants), so they never collide with any
// category word.
func SharedWord(k int) string {
	return string(appendSharedWord(make([]byte, 0, 7), k))
}

// appendSharedWord appends SharedWord(k) to dst.
func appendSharedWord(dst []byte, k int) []byte {
	return appendWord(dst, 'z', 'u', k)
}

// morphVariants lists suffixes used to inflect canonical words in raw
// text; the textproc pipeline maps every variant back to the canonical
// word (verifyStable checks it for every word of a shape).
var morphVariants = []string{"", "s", "ing", "ed", "ly"}

// inflect applies variant v to word w.
func inflect(w string, v int) string {
	return w + morphVariants[v%len(morphVariants)]
}

// verifyStable panics unless the preprocessing pipeline makes exactly
// [w] of every morphological variant of w, the bare word included: the
// variant is one token, neither it nor its stem is a stop word, and it
// stems to w. buildVocab runs it on every word of a shape to validate
// the configuration up front rather than corrupting an experiment
// silently. Only the inflected forms it hands the pipeline allocate;
// the message is put together once a check has failed.
func verifyStable(w string) {
	var buf [2]string
	for v := range morphVariants {
		form := inflect(w, v)
		if got := textproc.AppendProcessed(buf[:0], form); len(got) != 1 || got[0] != w {
			panic(fmt.Sprintf("corpus: the pipeline makes %q of %q, want [%q]", slices.Clone(got), form, w))
		}
	}
}

// verifyStopwords panics unless the pipeline makes nothing of every
// stop word the generator salts its texts with.
func verifyStopwords() {
	var buf [1]string
	for i := 0; i < textproc.StopwordCount(); i++ {
		if w := textproc.StopwordAt(i); len(textproc.AppendProcessed(buf[:0], w)) != 0 {
			panic(fmt.Sprintf("corpus: the pipeline keeps stop word %q", w))
		}
	}
}

// shape is what the canonical vocabulary is a function of.
type shape struct{ categories, perCategory, shared int }

func (c Config) shape() shape { return shape{c.Categories, c.VocabPerCategory, c.SharedVocab} }

// canonical holds the frozen canonical vocabulary of every shape the
// process has made a generator of. It memoizes a pure function: an
// entry is frozen and never replaced, so no caller, test or not, can
// tell whether another built it first.
var canonical struct {
	sync.Mutex
	byShape map[shape]*attr.Vocab
}

// canonicalVocab returns the frozen canonical vocabulary of cfg's shape
// (see the package doc), building it on the first call for that shape.
// Later calls, from any goroutine, return the same vocabulary; a build
// that panics stores nothing.
func canonicalVocab(cfg Config) *attr.Vocab {
	key := cfg.shape()
	canonical.Lock()
	defer canonical.Unlock()
	if v, ok := canonical.byShape[key]; ok {
		return v
	}
	v := buildVocab(key)
	if canonical.byShape == nil {
		canonical.byShape = make(map[shape]*attr.Vocab)
	}
	canonical.byShape[key] = v
	return v
}

// buildVocab spells, verifies and interns every word of shape key, and
// checks that the pipeline drops every stop word. Together the checks
// prove that the pipeline over a document's text gives back the words
// DocumentRNG sampled: the text is those words, inflected or not, and
// stop words, separated by spaces, and the pipeline works token by
// token.
func buildVocab(key shape) *attr.Vocab {
	verifyStopwords()
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
	return v
}

// internNext verifies canonical word w and gives it the next dense ID.
func internNext(v *attr.Vocab, w string) {
	verifyStable(w)
	if next := attr.ID(v.Len()); v.Intern(w) != next {
		panic(fmt.Sprintf("corpus: canonical word %q generated twice", w))
	}
}
