package benchsuite

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/stats"
)

// BuildSystem times experiments.Build: the vocabulary, every peer's
// documents and the workload. Every experiment driver, benchmark
// set-up and test pays it at least once; an evaluation of Table 1 and
// Figs 1-4 pays it seven times.
func BuildSystem(p experiments.Params) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			experiments.Build(p, experiments.SameCategory)
		}
	}
}

// CorpusDocument times one document of p's corpus: sampling its words,
// writing the raw text, the textproc pipeline over it and the
// vocabulary lookups. Its allocs/op are the text and the term set.
func CorpusDocument(p experiments.Params) func(b *testing.B) {
	return func(b *testing.B) {
		gen := corpus.NewGenerator(p.Corpus, p.Seed)
		rng := stats.NewRNG(p.Seed)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gen.DocumentRNG(i%p.Corpus.Categories, rng)
		}
	}
}
