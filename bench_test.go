package reform

import (
	"runtime"
	"testing"

	"repro/internal/baseline"
	"repro/internal/benchsuite"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/peer"
	"repro/internal/sim"
	"repro/internal/stats"
)

// benchParams is the paper's setting shrunk 4x (50 peers) so each
// bench iteration regenerates a full experiment in tens of
// milliseconds. cmd/reform runs the full 200-peer evaluation; the
// benches measure the same code paths end to end.
func benchParams() experiments.Params {
	p := experiments.DefaultParams().Scaled(4)
	p.MaxRounds = 150
	return p
}

// --- One benchmark per paper table/figure -------------------------------

func BenchmarkTable1(b *testing.B) {
	// Default Workers (one per CPU): measures the parallel harness.
	p := benchParams()
	for i := 0; i < b.N; i++ {
		res := experiments.RunTable1(p)
		if len(res.Cells) != 24 {
			b.Fatal("incomplete table")
		}
	}
}

func BenchmarkTable1Serial(b *testing.B) {
	// Workers=1 pins the single-core cost; the ratio to BenchmarkTable1
	// is the harness's multicore scaling.
	p := benchParams()
	p.Workers = 1
	for i := 0; i < b.N; i++ {
		res := experiments.RunTable1(p)
		if len(res.Cells) != 24 {
			b.Fatal("incomplete table")
		}
	}
}

func BenchmarkTable1SameCategory(b *testing.B) {
	benchScenarioRun(b, experiments.SameCategory)
}

func BenchmarkTable1DifferentCategory(b *testing.B) {
	benchScenarioRun(b, experiments.DifferentCategory)
}

func BenchmarkTable1Uniform(b *testing.B) {
	benchScenarioRun(b, experiments.Uniform)
}

func benchScenarioRun(b *testing.B, sc experiments.Scenario) {
	p := benchParams()
	sys := experiments.Build(p, sc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rpt := experiments.RunProtocol(sys, experiments.InitSingletons, core.NewSelfish(), p.Seed)
		_ = rpt.FinalSCost
	}
}

func BenchmarkFig1(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig1(p, 10)
		if r.SCost.Len() != 11 {
			b.Fatal("bad series")
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig2(p)
		if r.UpdatedPeers.Len() != 11 {
			b.Fatal("bad series")
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig3(p)
		if r.UpdatedData.Len() != 11 {
			b.Fatal("bad series")
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig4(p, nil)
		if r.Len() != 11 {
			b.Fatal("bad series")
		}
	}
}

// --- Ablations and extensions -------------------------------------------

func BenchmarkNashCheck(b *testing.B) {
	inst := core.NewTwoPeerInstance(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.VerifyNoNash(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThetaAblation(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		experiments.RunThetaAblation(p)
	}
}

func BenchmarkEpsilonAblation(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		experiments.RunEpsilonAblation(p)
	}
}

func BenchmarkHybrid(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		experiments.RunHybridComparison(p)
	}
}

func BenchmarkPairedDemandAblation(b *testing.B) {
	p := benchParams()
	p.MaxRounds = 60 // the chain variant never converges; bound it
	for i := 0; i < b.N; i++ {
		experiments.RunPairedDemandAblation(p)
	}
}

func BenchmarkAsync(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		experiments.RunAsyncComparison(p)
	}
}

func BenchmarkBaseline(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		experiments.RunBaselineComparison(p)
	}
}

func BenchmarkChurn(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		experiments.RunChurn(p, 5, 0.05)
	}
}

func BenchmarkLookupCost(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		experiments.RunLookupCost(p)
	}
}

// --- Microbenchmarks of the hot paths ------------------------------------

// Restore and the full-scan decide round (see internal/benchsuite,
// which `reform bench` also runs over its -peers singletons).

func BenchmarkEngineRebuild(b *testing.B) {
	sys := experiments.Build(benchParams(), experiments.SameCategory)
	benchsuite.Rebuild(sys.NewEngine(sys.CategoryConfig()))(b)
}

// What a cell of the paper's evaluation pays for its engine (see
// internal/benchsuite, which `reform bench` also runs): a clone, and
// for a perturbation level of Figs 2-4 a clone, the perturbation and a
// Rebuild that re-asks only what changed.
func BenchmarkEngineClone(b *testing.B) {
	sys := experiments.Build(benchParams(), experiments.SameCategory)
	benchsuite.EngineClone(sys.NewEngine(sys.CategoryConfig()))(b)
}

func BenchmarkUpdateLevel(b *testing.B) {
	sys := experiments.Build(benchParams(), experiments.SameCategory)
	benchsuite.UpdateLevel(sys, sys.NewEngine(sys.CategoryConfig()))(b)
}

func BenchmarkRebuildLarge(b *testing.B) {
	benchsuite.RebuildLarge(experiments.Build(benchParams(), experiments.SameCategory))(b)
}

func BenchmarkColdRestore(b *testing.B) {
	benchsuite.ColdRestore(experiments.Build(benchParams(), experiments.SameCategory))(b)
}

func BenchmarkFirstJoinAfterRestore(b *testing.B) {
	benchsuite.FirstJoinAfterRestore(experiments.Build(benchParams(), experiments.SameCategory))(b)
}

func BenchmarkDecideRoundSingletons(b *testing.B) {
	benchsuite.DecideRoundSingletons(experiments.Build(benchParams(), experiments.SameCategory))(b)
}

func BenchmarkEvaluateMoves(b *testing.B) {
	p := benchParams()
	sys := experiments.Build(p, experiments.SameCategory)
	rng := stats.NewRNG(1)
	eng := sys.NewEngine(sys.InitialConfig(experiments.InitRandomM, rng))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.EvaluateMoves(i % p.Peers)
	}
}

func BenchmarkPeerCost(b *testing.B) {
	p := benchParams()
	sys := experiments.Build(p, experiments.SameCategory)
	rng := stats.NewRNG(5)
	eng := sys.NewEngine(sys.InitialConfig(experiments.InitRandomM, rng))
	cfg := eng.Config()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pid := i % p.Peers
		eng.PeerCost(pid, cfg.ClusterOf(pid))
	}
}

func BenchmarkEvaluateContribution(b *testing.B) {
	p := benchParams()
	sys := experiments.Build(p, experiments.SameCategory)
	rng := stats.NewRNG(2)
	eng := sys.NewEngine(sys.InitialConfig(experiments.InitRandomM, rng))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.EvaluateContribution(i % p.Peers)
	}
}

func BenchmarkEngineMove(b *testing.B) {
	p := benchParams()
	sys := experiments.Build(p, experiments.SameCategory)
	rng := stats.NewRNG(3)
	eng := sys.NewEngine(sys.InitialConfig(experiments.InitRandomM, rng))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Move(i%p.Peers, cluster.CID(i%10))
	}
}

func BenchmarkSCost(b *testing.B) {
	p := benchParams()
	sys := experiments.Build(p, experiments.SameCategory)
	eng := sys.NewEngine(sys.CategoryConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eng.SCostNormalized()
	}
}

func BenchmarkAddRemovePeer(b *testing.B) {
	// One full churn event (join + leave) through the incremental
	// membership path; contrast with BenchmarkEngineRebuild, the price
	// the pre-membership engine paid per churn event.
	p := benchParams()
	sys := experiments.Build(p, experiments.SameCategory)
	eng := sys.NewEngine(sys.CategoryConfig())
	items, queries, counts := sys.NewcomerMaterials(0, 0, 0, stats.NewRNG(6))
	pr := peer.New(-1)
	pr.SetItems(items)
	id := eng.AddPeer(pr, queries, counts, cluster.None) // warm indexes/capacities
	eng.RemovePeer(id)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := eng.AddPeer(pr, queries, counts, cluster.None)
		eng.RemovePeer(id)
	}
}

// The two halves of making a join visible (see internal/benchsuite,
// which `reform bench` runs at its -peers population).

func BenchmarkBuildViewAfterJoin(b *testing.B) {
	sys := experiments.Build(benchParams(), experiments.SameCategory)
	benchsuite.BuildViewAfterJoin(sys, sys.NewEngine(sys.CategoryConfig()))(b)
}

func BenchmarkRouterApplyJoinDelta(b *testing.B) {
	sys := experiments.Build(benchParams(), experiments.SameCategory)
	benchsuite.RouterApplyJoinDelta(sys, sys.NewEngine(sys.CategoryConfig()))(b)
}

func BenchmarkFlashCrowd(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		experiments.RunFlashCrowd(p, []int{10})
	}
}

func BenchmarkProtocolRound(b *testing.B) {
	p := benchParams()
	sys := experiments.Build(p, experiments.SameCategory)
	rng := stats.NewRNG(4)
	eng := sys.NewEngine(sys.InitialConfig(experiments.InitRandomM, rng))
	runner := sys.NewRunner(eng, core.NewSelfish(), true)
	runner.BeginPeriod()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner.RunRound(i + 1)
	}
}

func BenchmarkProtocolRoundParallel(b *testing.B) {
	// One protocol round with the phase-1 decide scan fanned over all
	// cores (byte-identical outcomes to BenchmarkProtocolRound; the
	// ratio is the decide parallelization's multicore scaling).
	p := benchParams()
	sys := experiments.Build(p, experiments.SameCategory)
	rng := stats.NewRNG(4)
	eng := sys.NewEngine(sys.InitialConfig(experiments.InitRandomM, rng))
	runner := sys.NewRunnerWorkers(eng, core.NewSelfish(), true, runtime.GOMAXPROCS(0))
	runner.BeginPeriod()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner.RunRound(i + 1)
	}
}

func BenchmarkReformStep(b *testing.B) {
	// A full quiescent maintenance period driven through the stepped
	// Begin/Step state machine (budget 8): the per-tick cost a serving
	// daemon pays to verify the overlay is converged. Steady state
	// must allocate nothing — the report storage is runner-recycled.
	p := benchParams()
	sys := experiments.Build(p, experiments.SameCategory)
	rng := stats.NewRNG(4)
	eng := sys.NewEngine(sys.InitialConfig(experiments.InitRandomM, rng))
	runner := sys.NewRunner(eng, core.NewSelfish(), true)
	runner.Run() // converge, then warm the period storage
	for i := 0; i < 2; i++ {
		per := runner.Begin()
		for !per.Step(8) {
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		per := runner.Begin()
		for !per.Step(8) {
		}
	}
}

func BenchmarkActorSimPeriod(b *testing.B) {
	p := benchParams()
	p.Peers = 30 // message volume is quadratic
	p.TotalQueries = 120
	sys := experiments.Build(p, experiments.SameCategory)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := stats.NewRNG(uint64(i))
		cfg := sys.InitialConfig(experiments.InitRandomM, rng)
		s := sim.New(sys.Peers, sys.WL, cfg, sim.Options{
			Alpha: p.Alpha, Theta: p.Theta, Epsilon: p.Epsilon,
			MaxRounds: 30, Strategy: sim.Selfish,
		})
		s.RunPeriod()
	}
}

func BenchmarkKMeansRecluster(b *testing.B) {
	p := benchParams()
	sys := experiments.Build(p, experiments.SameCategory)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.KMeans(sys.Peers, p.Categories, 50, stats.NewRNG(uint64(i)))
	}
}

// What producing a system costs, and one document of it (see
// internal/benchsuite, which `reform bench` also runs).

func BenchmarkSystemBuild(b *testing.B) {
	benchsuite.BuildSystem(benchParams())(b)
}

func BenchmarkCorpusDocument(b *testing.B) {
	benchsuite.CorpusDocument(benchParams())(b)
}
