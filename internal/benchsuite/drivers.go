package benchsuite

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/stats"
)

// driver is a body that runs a whole experiment driver at the Small
// parameters once an iteration: the same code paths `reform -exp` runs
// at the paper's 200 peers.
func driver(run func(p experiments.Params)) func(f *Fixtures) func(b *testing.B) {
	return func(f *Fixtures) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run(f.Small)
			}
		}
	}
}

// table1 is Table 1 on a pool of workers (0: one per CPU). Workers=1
// pins the single-core cost; the ratio is the harness's multicore
// scaling.
func table1(workers int) func(f *Fixtures) func(b *testing.B) {
	return driver(func(p experiments.Params) {
		p.Workers = workers
		experiments.RunTable1(p)
	})
}

// scenarioRun is one cell of Table 1: the selfish protocol from
// singletons to quiescence over one built system of scenario sc.
func scenarioRun(sc experiments.Scenario) func(f *Fixtures) func(b *testing.B) {
	return func(f *Fixtures) func(b *testing.B) {
		sys := experiments.Build(f.Small, sc)
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				experiments.RunProtocol(sys, experiments.InitSingletons, core.NewSelfish(), f.Small.Seed)
			}
		}
	}
}

// nashCheck is the §2.3 counterexample's exhaustive verification.
func nashCheck(*Fixtures) func(b *testing.B) {
	inst := core.NewTwoPeerInstance(1)
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := inst.VerifyNoNash(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// kmeansRecluster is the centralized baseline the paper argues against:
// k-means over every peer's content.
func kmeansRecluster(f *Fixtures) func(b *testing.B) {
	sys := f.base.sys
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			baseline.KMeans(sys.Peers, f.Small.Categories, 50, stats.NewRNG(uint64(i)))
		}
	}
}

// corpusDocument times one document of the Small corpus: sampling its
// words, writing the raw text with its inflections and stop words, and
// ordering the sampled IDs into the term set. Its allocs/op are the
// text and the term set.
func corpusDocument(f *Fixtures) func(b *testing.B) {
	p := f.Small
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
