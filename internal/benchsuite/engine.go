package benchsuite

import (
	"math"
	"testing"

	"repro/internal/core"
)

// Rebuild times Engine.Rebuild at steady state: storage warm, the query
// index built, every peer's postings and result cache filled. It is
// what a daemon start, a follower's catch-up install and a content
// update pay; the harnesses run it at paper scale (Rebuild) and over
// `-peers` singletons (RebuildLarge).
func Rebuild(eng *core.Engine) func(b *testing.B) {
	return func(b *testing.B) {
		eng.Rebuild()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Rebuild()
		}
	}
}

// DecideRoundSingletons times one phase-1 decide round in which every
// peer runs the full cluster scan, over an engine whose peers each sit
// in their own cluster: the most clusters a population can have, and
// the first rounds of the paper's initial configuration (i). The
// evaluator is exhaustive, so no iteration replays a cached decision.
// Nothing moves; eng is left as it was found.
func DecideRoundSingletons(eng *core.Engine) func(b *testing.B) {
	return func(b *testing.B) {
		strat := core.NewSelfish()
		ev := eng.NewEvaluator()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.PrepareDecide()
			for p := 0; p < eng.NumSlots(); p++ {
				strat.DecideEval(ev, p, math.NaN(), true)
			}
		}
	}
}
