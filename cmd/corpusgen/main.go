// Command corpusgen generates a synthetic article collection and
// reports its statistics: vocabulary coverage, document-frequency
// skew, category purity of the term space, and a sample document
// before/after preprocessing. Useful for eyeballing the corpus knobs
// that stand in for the paper's Newsgroup collection.
package main

import (
	"flag"
	"fmt"
	"sort"

	"repro/internal/attr"
	"repro/internal/corpus"
	"repro/internal/stats"
	"repro/internal/textproc"
)

func main() {
	seed := flag.Uint64("seed", 1, "generator seed")
	docs := flag.Int("docs", 100, "documents per category")
	categories := flag.Int("categories", 10, "number of categories")
	vocab := flag.Int("vocab", 2000, "vocabulary size per category")
	wordsPerDoc := flag.Int("words", 30, "content words per document")
	zipf := flag.Float64("zipf", 0.7, "term frequency Zipf exponent")
	shared := flag.Float64("shared", 0, "shared vocabulary fraction")
	flag.Parse()

	cfg := corpus.Config{
		Categories:       *categories,
		VocabPerCategory: *vocab,
		SharedVocab:      50,
		WordsPerDoc:      *wordsPerDoc,
		TermZipfS:        *zipf,
		SharedFraction:   *shared,
		MorphNoise:       0.3,
		StopNoise:        0.5,
	}
	gen := corpus.NewGenerator(cfg, *seed)
	rng := stats.NewRNG(*seed ^ 0xdeadbeef)

	df := make(map[attr.ID]int)
	termsPerDoc := make([]float64, 0, *docs**categories)
	var sample corpus.Document
	for c := 0; c < *categories; c++ {
		for d := 0; d < *docs; d++ {
			doc := gen.DocumentRNG(c, rng)
			if c == 0 && d == 0 {
				sample = doc
			}
			termsPerDoc = append(termsPerDoc, float64(doc.Terms.Len()))
			for _, id := range doc.Terms.IDs() {
				df[id]++
			}
		}
	}

	fmt.Printf("generated %d documents across %d categories\n", *docs**categories, *categories)
	fmt.Printf("distinct terms observed: %d (vocabulary %d per category)\n", len(df), *vocab)
	fmt.Printf("terms per document: %s\n", stats.Summarize(termsPerDoc))

	counts := make([]float64, 0, len(df))
	for _, c := range df {
		counts = append(counts, float64(c))
	}
	fmt.Printf("document frequency: %s\n", stats.Summarize(counts))
	sort.Float64s(counts)
	ones := 0
	for _, c := range counts {
		if c == 1 {
			ones++
		}
	}
	fmt.Printf("terms appearing in exactly one document: %d (%.1f%%)\n",
		ones, 100*float64(ones)/float64(len(counts)))

	h := stats.NewHistogram(0, counts[len(counts)-1]+1, 12)
	for _, c := range counts {
		h.Observe(c)
	}
	fmt.Println("\ndocument-frequency histogram:")
	fmt.Print(h.String())

	fmt.Println("\nsample raw text (category 0, truncated):")
	raw := sample.Text
	if len(raw) > 300 {
		raw = raw[:300] + "..."
	}
	fmt.Println(" ", raw)
	fmt.Println("\nsample after preprocessing (stopwords removed, stemmed, frequency-sorted):")
	terms := textproc.UniqueTerms(sample.Text)
	if len(terms) > 15 {
		terms = terms[:15]
	}
	fmt.Println(" ", terms)
}
