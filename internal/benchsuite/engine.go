package benchsuite

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/stats"
)

// hotPath is a body over the shared hot engine and the Small population:
// run makes b.N calls of one of the cost engine's hot paths.
func hotPath(run func(eng *core.Engine, peers, n int)) func(f *Fixtures) func(b *testing.B) {
	return func(f *Fixtures) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			run(f.hot.eng, f.Small.Peers, b.N)
		}
	}
}

// churnCycle times one churn event (join + leave) on the incremental
// membership path (AddRemovePeer), or with compact one full
// unbounded-uptime cycle: a joiner interning a novel query, its departure
// stranding it, and an in-place workload compaction reclaiming the row
// (CompactCycle).
func churnCycle(seed uint64, compact bool) func(f *Fixtures) func(b *testing.B) {
	return func(f *Fixtures) func(b *testing.B) {
		eng := f.hot.eng
		pr, queries, counts := newcomer(f.hot.sys, seed)
		if compact {
			queries = append(queries, attr.NewSet(attr.ID(1<<20)))
			counts = append(counts, 1)
		}
		cycle := func() {
			eng.RemovePeer(eng.AddPeer(pr, queries, counts, cluster.None))
			if compact {
				eng.Compact(0)
			}
		}
		return func(b *testing.B) {
			b.ReportAllocs()
			cycle() // warm indexes and capacities
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
		}
	}
}

// rebuild times Engine.Rebuild at steady state: storage warm, the query
// index built, and no peer changed since the last one, so every result
// list is kept and what is timed is summing them and laying out, filling
// and summing the aggregates. It is the floor of what a content or
// workload update pays (UpdateLevel times one with its edits;
// ColdRestore times a first build, which asks every peer everything);
// the table runs it at paper scale (Rebuild) and over Large singletons
// (RebuildLarge).
func rebuild(eng *core.Engine) func(b *testing.B) {
	return func(b *testing.B) {
		eng.Rebuild()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Rebuild()
		}
	}
}

// The four singleton entries: restore, the first join after it and the
// first decide rounds of the paper's initial configuration (i). All
// must cost what is non-zero, not the peers x queries x cluster-slots
// grid.

// singletons builds an engine over sys with every peer its own
// cluster: Cmax = |P|.
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

// rebuildLarge is rebuild over singletons, and reports what the restored
// engine alone keeps on the heap as heap-B/peer.
func rebuildLarge(f *Fixtures) func(b *testing.B) {
	sys := f.restore
	return func(b *testing.B) {
		eng := singletons(sys)
		rebuild(eng)(b)
		b.StopTimer()
		peers := eng.NumPeers()
		b.ReportMetric(HeapHeldBy(eng)/float64(peers), "heap-B/peer")
	}
}

// coldRestore times what a daemon start or a follower's catch-up
// install pays that rebuildLarge does not: an engine built over peers
// that have answered nothing yet, so every inverted index is built on
// the way, and the first view published from it, which builds the
// content index. Every iteration forks the system and drops the fork's
// peer indexes with the timer stopped.
func coldRestore(f *Fixtures) func(b *testing.B) {
	sys := f.restore
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

// firstJoinAfterRestore times the first AddPeer on a freshly built
// engine over singletons: the join that builds the content indexes and
// appends the first new peer and cluster slot. Every iteration forks the
// system and builds its engine with the timer stopped.
func firstJoinAfterRestore(f *Fixtures) func(b *testing.B) {
	sys := f.restore
	sys.Warm()
	pr, queries, counts := newcomer(sys, 6)
	return func(b *testing.B) {
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

// decideRoundSingletons times one phase-1 decide round in which every
// peer scans every cluster, over the most clusters a population can
// have. Nothing moves.
func decideRoundSingletons(f *Fixtures) func(b *testing.B) {
	sys := f.restore
	return func(b *testing.B) {
		eng := singletons(sys)
		strat := core.NewSelfish()
		ev := eng.NewEvaluator()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.PrepareDecide()
			for p := 0; p < eng.NumSlots(); p++ {
				strat.Decide(ev, p, math.NaN(), true)
			}
		}
	}
}

// What a cell of the paper's evaluation pays for its engine.

// engineClone times Engine.Clone, 134 of them an evaluation. A clone
// copies the configuration, the cells and the scalar costs, and shares
// the rest with the engine it was cloned from until either writes it.
func engineClone(f *Fixtures) func(b *testing.B) {
	eng := f.base.eng
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.Clone()
		}
	}
}

// updateLevel times what one perturbation level of Fig 2 costs before
// any protocol runs: clone the base engine, redirect the whole workload
// of one cluster's peers to another category on a fork over the clone,
// Rebuild. The Rebuild asks the peers nothing they already answered:
// only the queries the redirection interned. It copies the per-peer and
// per-query aggregates and the query index it writes, which the clone
// shared with the base until then.
func updateLevel(f *Fixtures) func(b *testing.B) {
	u := f.base
	return func(b *testing.B) {
		members := u.eng.Config().Members(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			level := u.eng.Clone()
			fork := u.sys.ForkOnto(level)
			rng := stats.NewRNG(9)
			for _, pid := range members {
				fork.RedirectWorkload(pid, 1, 1, rng)
			}
			level.Rebuild()
		}
	}
}
