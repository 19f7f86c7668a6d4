package benchsuite

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/stats"
)

// Rebuild times Engine.Rebuild at steady state: storage warm, the query
// index built, and no peer changed since the last one, so every result
// list is kept and what is timed is summing them and laying out, filling
// and summing the aggregates. It is the floor of what a content or
// workload update pays (UpdateLevel times one with its edits;
// ColdRestore times a first build, which asks every peer everything);
// the harnesses run it at paper scale (Rebuild) and over `-peers`
// singletons (RebuildLarge).
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

// singletons builds an engine over sys with every peer its own
// cluster: Cmax = |P|, the paper's initial configuration (i).
func singletons(sys *experiments.System) *core.Engine {
	return sys.NewEngine(sys.InitialConfig(experiments.InitSingletons, nil))
}

// HeapHeldBy returns how many bytes of live heap only eng keeps
// reachable: the live heap with it less the live heap without it. The
// caller must hold no other reference to eng past the call; the peers,
// workload and configuration it was built over stay with their owner.
func HeapHeldBy(eng *core.Engine) float64 {
	var held, dropped runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&held)
	runtime.KeepAlive(eng)
	runtime.GC()
	runtime.ReadMemStats(&dropped)
	return float64(held.HeapAlloc) - float64(dropped.HeapAlloc)
}

// RebuildLarge is Rebuild over sys's peers as singletons, and reports
// what the restored engine alone keeps on the heap as heap-B/peer.
func RebuildLarge(sys *experiments.System) func(b *testing.B) {
	return func(b *testing.B) {
		eng := singletons(sys)
		Rebuild(eng)(b)
		b.StopTimer()
		peers := eng.NumPeers()
		b.ReportMetric(HeapHeldBy(eng)/float64(peers), "heap-B/peer")
	}
}

// FirstJoinAfterRestore times the first AddPeer on a freshly built
// engine over singletons: the join that builds the content indexes and
// appends the first new peer and cluster slot, where aggregates laid
// out by cluster slot had to be laid out again. Every iteration forks
// sys and builds its engine with the timer stopped; sys itself only
// gains the joiner's terms in its query pools.
func FirstJoinAfterRestore(sys *experiments.System) func(b *testing.B) {
	return func(b *testing.B) {
		sys.Warm()
		pr, queries, counts := newcomer(sys)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			eng := singletons(sys.Fork())
			b.StartTimer()
			eng.AddPeer(pr, queries, counts, cluster.None)
		}
	}
}

// DecideRoundSingletons times one phase-1 decide round in which every
// peer runs the full cluster scan, over an engine whose peers each sit
// in their own cluster: the most clusters a population can have, and
// the first rounds of the paper's initial configuration (i). The
// evaluator is exhaustive, so no iteration replays a cached decision.
// Nothing moves.
func DecideRoundSingletons(sys *experiments.System) func(b *testing.B) {
	return func(b *testing.B) {
		eng := singletons(sys)
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

// ColdRestore times what a daemon start or a follower's catch-up
// install pays that RebuildLarge does not: an engine built over peers
// that have answered nothing yet, so every inverted index is built on
// the way, and the first view published from it, which builds the
// content index. Every iteration forks sys and drops the fork's peer
// indexes with the timer stopped.
func ColdRestore(sys *experiments.System) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cold := sys.Fork()
			for _, pr := range cold.Peers {
				pr.SetItems(pr.Items())
			}
			cfg := cold.InitialConfig(experiments.InitSingletons, nil)
			b.StartTimer()
			cold.NewEngine(cfg).BuildRoutingView(nil)
		}
	}
}

// EngineClone times Engine.Clone: what every cell of the paper's
// evaluation pays where it used to pay core.New (146 clones an
// evaluation against 16 engines built). eng is only read.
func EngineClone(eng *core.Engine) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.Clone()
		}
	}
}

// UpdateLevel times what one perturbation level of Fig 2 costs before
// any protocol runs: clone the base engine, redirect the whole workload
// of one cluster's peers to another category on a fork over the clone,
// Rebuild. The Rebuild asks the peers nothing they already answered:
// only the queries the redirection interned. sys and eng are only read.
func UpdateLevel(sys *experiments.System, eng *core.Engine) func(b *testing.B) {
	return func(b *testing.B) {
		members := eng.Config().Members(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			level := eng.Clone()
			fork := sys.ForkOnto(level)
			rng := stats.NewRNG(9)
			for _, pid := range members {
				fork.RedirectWorkload(pid, 1, 1, rng)
			}
			level.Rebuild()
		}
	}
}
