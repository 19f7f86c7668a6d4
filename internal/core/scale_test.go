package core_test

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/benchsuite"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/peer"
	"repro/internal/stats"
)

// TestFirstJoinBytesStayLinear is the structural form of "the first
// join after a restore is not a cliff": over singleton clusters (Cmax =
// |P|, the paper's initial configuration) it builds an engine and
// admits one peer, at 2000 and at 10 000 peers, and holds the bytes
// that first join allocates to at most linear growth. Linear is the
// floor: the join builds the content indexes and grows every
// slot-indexed table once, by amortized doubling. Anything laid out
// queries x cluster slots grows with the square of the population here
// (658 MB at 2000 peers when the aggregates were) and fails. The log
// line is the record: 3.9 MB at 2000 peers and 13.2 MB at 10 000 with
// the content indexes carved out of one arena each (9.7 and 26.7 MB
// when they were maps of appended lists).
func TestFirstJoinBytesStayLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10 000-peer system")
	}
	firstJoin := func(n int) float64 {
		p := experiments.DefaultParams()
		p.Peers, p.TotalQueries = n, 4*n
		p.Categories, p.Corpus.Categories = 16, 16
		sys := experiments.Build(p, experiments.SameCategory)
		items, queries, counts := sys.NewcomerMaterials(0, 0, 0, stats.NewRNG(6))
		joiner := peer.New(-1)
		joiner.SetItems(items)
		sys.Warm()

		eng := sys.NewEngine(sys.InitialConfig(experiments.InitSingletons, nil))
		var built, joined runtime.MemStats
		runtime.ReadMemStats(&built)
		eng.AddPeer(joiner, queries, counts, cluster.None)
		runtime.ReadMemStats(&joined)
		bytes := float64(joined.TotalAlloc - built.TotalAlloc)
		t.Logf("%5d peers: first join allocates %.1f MB (%.0f B/peer); engine heap %.0f B/peer",
			n, bytes/1e6, bytes/float64(n), benchsuite.HeapHeldBy(eng)/float64(n))
		return bytes / float64(n)
	}
	small, large := firstJoin(2000), firstJoin(10000)
	if large > 2*small {
		t.Errorf("first join allocates %.0f B/peer at 10000 peers, %.0f at 2000: more than linear growth", large, small)
	}
}

// TestCloneRunsLikeOriginal pins Engine.Clone end to end: after joins
// and leaves, the same protocol run on an engine and on its clone
// yields the same report, round for round, the same final assignment
// and the same cost bits, for every strategy.
func TestCloneRunsLikeOriginal(t *testing.T) {
	p := experiments.DefaultParams().Scaled(4)
	p.MaxRounds = 40
	strategies := []func() core.Strategy{
		func() core.Strategy { return core.NewSelfish() },
		func() core.Strategy { return core.NewAltruistic() },
		func() core.Strategy { return core.NewHybrid(0.5) },
	}
	for i, strat := range strategies {
		sys := experiments.Build(p, experiments.Scenario(i%3))
		rng := stats.NewRNG(uint64(i) + 7)
		eng := sys.NewEngine(sys.InitialConfig(experiments.InitRandomM, rng))
		first := sys.JoinPeer(eng, 1, 2, rng)
		sys.JoinPeer(eng, 0, 0, rng)
		sys.LeavePeer(eng, 3)
		sys.LeavePeer(eng, first)
		sys.JoinPeer(eng, 2, 1, rng)

		clone := eng.Clone()
		got := sys.NewRunner(clone, strat(), true).Run()
		want := sys.NewRunner(eng, strat(), true).Run()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: run on the clone reports %+v, on the original %+v", strat().Name(), got, want)
		}
		if !slices.Equal(clone.Config().Assignment(), eng.Config().Assignment()) {
			t.Errorf("%s: final assignments differ", strat().Name())
		}
		if a, b := clone.SCost(), eng.SCost(); math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%s: SCost after the run: clone %v, original %v", strat().Name(), a, b)
		}
	}
}
