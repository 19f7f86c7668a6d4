package benchsuite

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/peer"
	"repro/internal/protocol"
	"repro/internal/stats"
)

// protocolRound times one round of the reformulation protocol from a
// random configuration, serial or with the phase-1 decide scan fanned
// over all cores (byte-identical outcomes; the ratio is the decide
// parallelization's multicore scaling).
func protocolRound(parallel bool) func(f *Fixtures) func(b *testing.B) {
	return func(f *Fixtures) func(b *testing.B) {
		sys, workers := f.base.sys, 0
		if parallel {
			workers = runtime.GOMAXPROCS(0)
		}
		eng := sys.NewEngine(sys.InitialConfig(experiments.InitRandomM, stats.NewRNG(4)))
		runner := sys.NewRunnerWorkers(eng, core.NewSelfish(), true, workers)
		return func(b *testing.B) {
			b.ReportAllocs()
			runner.BeginPeriod()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runner.RunRound(i + 1)
			}
		}
	}
}

// quiescent converges runner's system, warms the period storage and
// returns a body that drives one whole quiescent maintenance period
// through the stepped Begin/Step state machine (budget 8) an iteration:
// the per-tick cost a serving daemon pays to verify the overlay is
// converged.
func quiescent(runner *protocol.Runner) func(b *testing.B) {
	mustConverge(runner)
	period := func() {
		for per := runner.Begin(); !per.Step(8); {
		}
	}
	period()
	period()
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			period()
		}
	}
}

// reformStep starts from singletons, which converge at every scale (the
// random-m initialization can oscillate forever in heavily scaled
// systems).
func reformStep(f *Fixtures) func(b *testing.B) {
	sys := f.base.sys
	eng := sys.NewEngine(sys.InitialConfig(experiments.InitSingletons, stats.NewRNG(4)))
	return quiescent(sys.NewRunner(eng, core.NewSelfish(), true))
}

// reformStepLarge is the same tick at scale, over the maintained system
// converged again after ProtocolRoundLarge's churn.
func reformStepLarge(f *Fixtures) func(b *testing.B) {
	return quiescent(f.maintained.runner)
}

// protocolRoundLarge times one round after localized churn on the
// maintained system: four leaves, each followed by a join admitted
// straight into the vacated peer's cluster (the maintenance admission
// path: a granted newcomer lands in the cluster that admitted it), dirty
// a few clusters' aggregates while the rest of the population stays
// clean. The churn is the workload's setup, not the measured path: the
// timer runs (and allocations count) for the round only, and newcomer
// materials are drawn before the loop so the corpus generator's cost
// doesn't drown the phase-1 signal.
func protocolRoundLarge(f *Fixtures) func(b *testing.B) {
	m, lp := f.maintained, f.Large
	// Nobody has left the maintained system yet: every slot is live.
	live := make([]int, m.eng.NumSlots())
	for pid := range live {
		live[pid] = pid
	}
	catOf := slices.Clone(m.sys.DataCat)
	type kit struct {
		items, queries []attr.Set
		counts         []int
	}
	const kitsPerCat = 4
	rng := stats.NewRNG(11)
	kits := make([][]kit, lp.Categories)
	for c := range kits {
		for i := 0; i < kitsPerCat; i++ {
			items, queries, counts := m.sys.NewcomerMaterials(c, c, 0, rng)
			kits[c] = append(kits[c], kit{items, queries, counts})
		}
	}
	kitSeq, round := 0, lp.MaxRounds
	churn := func() {
		for k := 0; k < 4; k++ {
			j := rng.Intn(len(live))
			victim := live[j]
			cat := catOf[victim]
			to := m.eng.Config().ClusterOf(victim)
			m.eng.RemovePeer(victim)
			kit := kits[cat][kitSeq%kitsPerCat]
			kitSeq++
			pr := peer.New(-1)
			pr.SetItems(kit.items)
			pid := m.eng.AddPeer(pr, kit.queries, kit.counts, to)
			live[j] = pid
			for len(catOf) <= pid {
				catOf = append(catOf, 0)
			}
			catOf[pid] = cat
		}
	}
	// Warm the slot free list, index rebuilds and runner scratch so the
	// first timed iteration isn't a one-off cold outlier (cold churn is
	// ~100ms; at b.N=1 it would be the whole estimate).
	for i := 0; i < 2; i++ {
		churn()
		round++
		m.runner.RunRound(round)
	}
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			churn()
			b.StartTimer()
			round++
			m.runner.RunRound(round)
		}
	}
}
