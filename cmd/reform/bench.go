package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/attr"
	"repro/internal/benchsuite"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/peer"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/stats"
	"repro/internal/viewwire"
	"repro/internal/workload"
)

// benchResult is one microbenchmark measurement in BENCH.json. Peers
// and Scale record the system the entry measured: the small class
// shares the report-level scale, the maintenance-at-scale class runs
// at -peers regardless of -scale.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Peers       int     `json:"peers,omitempty"`
	Scale       int     `json:"scale,omitempty"`
	// Extra holds what the benchmark reported through b.ReportMetric.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// benchReport is the BENCH.json schema: the engine microbenchmarks
// plus one macrobenchmark per worker setting, so the perf trajectory
// of the hot paths is tracked across PRs. The runner class (GOOS,
// GOARCH, CPU model) is recorded so the comparator knows whether
// ns/op numbers from two reports are comparable at all.
type benchReport struct {
	Scale      int           `json:"scale"`
	Peers      int           `json:"peers"`
	GOOS       string        `json:"goos,omitempty"`
	GOARCH     string        `json:"goarch,omitempty"`
	CPU        string        `json:"cpu,omitempty"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// cpuModel best-effort identifies the CPU for the runner class. An
// empty string means "unknown" and disables same-class ns/op gating.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, val, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(val)
			}
		}
	}
	return ""
}

// sameRunnerClass reports whether two reports were produced on
// comparable hardware, making their ns/op numbers comparable.
func sameRunnerClass(a, b benchReport) bool {
	return a.GOARCH != "" && a.CPU != "" && a.GOOS == b.GOOS && a.GOARCH == b.GOARCH && a.CPU == b.CPU
}

// gatedBenchmarks are the pinned hot-path benchmarks the regression
// gate compares: a fresh run whose ns/op exceeds the baseline by more
// than benchRegressionTolerance — or whose allocs/op grew at all —
// fails the gate. Macrobenchmarks (Table1*) are tracked but not gated:
// their wall-clock depends on CI core counts. Nor is ColdRestore, which
// allocates a couple of dozen objects more or fewer from run to run
// (1189 to 1210 at 50 peers), and the allocs/op gate has no tolerance.
// BuildSystem is a macrobenchmark too, tracked for its trajectory.
// CorpusDocument is here for its allocs/op: a document costs its text
// and its term set, two objects. So are EngineClone and UpdateLevel: a
// clone costs two objects a peer (the peer.Clone and its item list) plus
// some fifty whatever the population, so a structure that goes back to
// being cloned list by list instead of out of one arena shows there.
var gatedBenchmarks = []string{
	"EvaluateMoves", "EvaluateContribution", "PeerCost", "Move", "SCost", "Rebuild", "AddRemovePeer",
	"CompactCycle", "QueryServe", "QueryServeHot", "QueryServeZipf", "QueryServeParallel",
	"RouteRarest", "RouterServe", "BuildViewAfterJoin", "RouterApplyJoinDelta",
	"ProtocolRound", "ProtocolRoundParallel", "ReformStep",
	"ProtocolRoundLarge", "ReformStepLarge",
	"RebuildLarge", "FirstJoinAfterRestore", "DecideRoundSingletons",
	"CorpusDocument", "EngineClone", "UpdateLevel",
}

// zeroAllocBenchmarks must report exactly 0 allocs/op in the fresh
// run, independent of any baseline: the per-query read path is
// allocation-free by contract — on the daemon (RouteScratch owns
// every buffer) and on a router replica (api.Scratch ditto) — as is
// a quiescent stepped maintenance period (runner-recycled report and
// scratch storage) and a steady-state Rebuild (every aggregate, index
// and scratch array is engine-owned and reused), and the gate holds
// them there.
// (QueryServeHot's rare collision-miss inserts amortize to 0 under
// AllocsPerOp's integer division; QueryServeZipf misses by design and
// is gated on ns/op only.)
var zeroAllocBenchmarks = []string{"QueryServe", "QueryServeHot", "QueryServeParallel", "RouteRarest", "RouterServe", "ReformStep", "ReformStepLarge", "Rebuild", "RebuildLarge"}

// benchRegressionTolerance is the allowed ns/op growth factor.
const benchRegressionTolerance = 1.25

// runBenchCommand implements `reform bench`: it runs the cost-engine
// microbenchmarks and the Table 1 macrobenchmark through
// testing.Benchmark and writes the results as JSON, for CI to archive
// and compare across commits. With -baseline it additionally diffs
// the fresh results against a stored report and exits nonzero on a
// hot-path regression — the same comparator the CI gate runs.
func runBenchCommand(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	out := fs.String("o", "BENCH.json", "output path; - writes to stdout")
	scale := fs.Int("scale", 4, "shrink factor for the benchmark system (matches bench_test.go at 4)")
	peers := fs.Int("peers", 1000, "population for the maintenance-at-scale benchmarks (unaffected by -scale)")
	baseline := fs.String("baseline", "", "baseline BENCH.json to diff against; >25% ns/op or any allocs/op growth on the pinned hot paths fails")
	fs.Parse(args)

	p := experiments.DefaultParams().Scaled(*scale)
	p.MaxRounds = 150

	sys := experiments.Build(p, experiments.SameCategory)
	rng := stats.NewRNG(1)
	eng := sys.NewEngine(sys.InitialConfig(experiments.InitRandomM, rng))

	report := benchReport{
		Scale:  *scale,
		Peers:  p.Peers,
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		CPU:    cpuModel(),
	}
	recordSized := func(name string, benchPeers, benchScale int, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		report.Benchmarks = append(report.Benchmarks, benchResult{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Peers:       benchPeers,
			Scale:       benchScale,
			Extra:       r.Extra,
		})
	}
	record := func(name string, fn func(b *testing.B)) {
		recordSized(name, p.Peers, *scale, fn)
	}

	// What the sys above cost to produce, and one document of it.
	record("BuildSystem", benchsuite.BuildSystem(p))
	record("CorpusDocument", benchsuite.CorpusDocument(p))
	record("EvaluateMoves", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.EvaluateMoves(i % p.Peers)
		}
	})
	record("EvaluateContribution", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.EvaluateContribution(i % p.Peers)
		}
	})
	record("PeerCost", func(b *testing.B) {
		b.ReportAllocs()
		cfg := eng.Config()
		for i := 0; i < b.N; i++ {
			pid := i % p.Peers
			eng.PeerCost(pid, cfg.ClusterOf(pid))
		}
	})
	record("Move", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.Move(i%p.Peers, cluster.CID(i%10))
		}
	})
	record("SCost", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = eng.SCostNormalized()
		}
	})
	record("Rebuild", benchsuite.Rebuild(eng))
	// What a cell of the paper's evaluation pays for its engine: a clone
	// of its driver's base engine, and for a perturbation level of
	// Figs 2-4 the clone, the perturbation and the Rebuild after it,
	// over the good configuration §4.2 starts from. A private System
	// that the membership benchmarks below never touch.
	usys := experiments.Build(p, experiments.SameCategory)
	ueng := usys.NewEngine(usys.CategoryConfig())
	record("EngineClone", benchsuite.EngineClone(ueng))
	record("UpdateLevel", benchsuite.UpdateLevel(usys, ueng))
	record("AddRemovePeer", func(b *testing.B) {
		// One churn event (join + leave) on the incremental membership
		// path; compare with Rebuild, the old per-churn price.
		b.ReportAllocs()
		items, queries, counts := sys.NewcomerMaterials(0, 0, 0, stats.NewRNG(6))
		pr := peer.New(-1)
		pr.SetItems(items)
		id := eng.AddPeer(pr, queries, counts, cluster.None)
		eng.RemovePeer(id)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := eng.AddPeer(pr, queries, counts, cluster.None)
			eng.RemovePeer(id)
		}
	})
	record("CompactCycle", func(b *testing.B) {
		// One full unbounded-uptime cycle: a joiner interning a novel
		// query, its departure stranding it, and an in-place workload
		// compaction reclaiming the row.
		b.ReportAllocs()
		items, queries, counts := sys.NewcomerMaterials(0, 0, 0, stats.NewRNG(8))
		queries = append(queries, attr.NewSet(attr.ID(1<<20)))
		counts = append(counts, 1)
		pr := peer.New(-1)
		pr.SetItems(items)
		id := eng.AddPeer(pr, queries, counts, cluster.None)
		eng.RemovePeer(id)
		eng.Compact(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := eng.AddPeer(pr, queries, counts, cluster.None)
			eng.RemovePeer(id)
			eng.Compact(0)
		}
	})
	// Parameters of the at-scale benchmark class: the serving-tier read
	// path below and the maintenance-at-scale benchmarks further down
	// both run at -peers regardless of -scale, because both measure
	// paths whose cost structure only shows at a real population (long
	// posting lists, many clusters, localized churn).
	lp := experiments.DefaultParams()
	lp.Peers = *peers
	// Scale the cluster count with the population as far as the corpus
	// allows (its word scheme supports at most 16 topical categories).
	lp.Categories = lp.Peers / 16
	if lp.Categories < 10 {
		lp.Categories = 10
	}
	if lp.Categories > 16 {
		lp.Categories = 16
	}
	lp.Corpus.Categories = lp.Categories
	lp.TotalQueries = 4 * lp.Peers
	lp.MaxRounds = 600

	// The serving daemon's per-query read path: Route over a published
	// immutable view, caller-owned scratch, no locks, at the -peers
	// population (a -scale-shrunk system's posting lists are a few
	// entries long, which flatters nothing and hides everything).
	// QueryServe is the single-goroutine cost; QueryServeParallel
	// spreads the same replay over all cores, which is the whole point
	// of publishing views.
	ssys := experiments.Build(lp, experiments.SameCategory)
	seng := ssys.NewEngine(ssys.InitialConfig(experiments.InitRandomM, stats.NewRNG(2)))
	view := seng.BuildRoutingView(nil)
	wl := seng.Workload()
	queries := make([]attr.Set, 0, min(wl.NumQueries(), 256))
	for q := 0; q < cap(queries); q++ {
		queries = append(queries, wl.Query(workload.QID(q)))
	}
	recordServe := func(name string, fn func(b *testing.B)) {
		recordSized(name, lp.Peers, 1, fn)
	}
	recordServe("QueryServe", func(b *testing.B) {
		b.ReportAllocs()
		var sc core.RouteScratch
		for _, q := range queries {
			view.Route(q, &sc)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			view.Route(queries[i%len(queries)], &sc)
		}
	})
	recordServe("QueryServeParallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			var sc core.RouteScratch
			i := 0
			for pb.Next() {
				view.Route(queries[i%len(queries)], &sc)
				i++
			}
		})
	})
	// The hot-query fast path. QueryServeHot is the cache-hit cost:
	// the same replay as QueryServe but through a warmed view-epoch
	// RouteCache, so every lookup hits — the ISSUE's >= 3x contract is
	// QueryServe ns/op vs this number. QueryServeZipf is the realistic
	// blend: Zipf(1.1)-skewed ranks over the workload through a cache
	// smaller than the query population, so hot heads hit and the tail
	// misses through to Route.
	hotCache := core.NewRouteCache(4096)
	recordServe("QueryServeHot", func(b *testing.B) {
		b.ReportAllocs()
		var sc core.RouteScratch
		for _, q := range queries {
			view.RouteCached(q, hotCache, &sc)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			view.RouteCached(queries[i%len(queries)], hotCache, &sc)
		}
	})
	zipfCache := core.NewRouteCache(1024)
	zipfRanks := stats.NewZipf(len(queries), 1.1)
	zipfRNG := stats.NewRNG(7)
	zipfOrder := make([]int, 4096)
	for i := range zipfOrder {
		zipfOrder[i] = zipfRanks.Sample(zipfRNG)
	}
	recordServe("QueryServeZipf", func(b *testing.B) {
		b.ReportAllocs()
		var sc core.RouteScratch
		for i := 0; i < b.N; i++ {
			view.RouteCached(queries[zipfOrder[i%len(zipfOrder)]], zipfCache, &sc)
		}
	})
	// RouteRarest pins the rarest-attribute scan's win on the shape it
	// exists for: a hand-built view where every slot holds one hugely
	// popular attribute plus one of 8 rare ones, queried with
	// {popular, rare}. The scan drives from the rare list (32 slots),
	// not the popular one (256) — the first-attribute order would do
	// 8x the work.
	const rareSlots = 256
	rareItems := make([][]attr.Set, rareSlots)
	rareAssign := make([]cluster.CID, rareSlots)
	rarePostings := make([][]int32, 1+8) // the popular attribute 0 and the rare 1..8
	for i := 0; i < rareSlots; i++ {
		a := attr.ID(1 + i%8)
		rareItems[i] = []attr.Set{attr.NewSet(0, a)}
		rareAssign[i] = cluster.CID(i % 8)
		rarePostings[0] = append(rarePostings[0], int32(i))
		rarePostings[a] = append(rarePostings[a], int32(i))
	}
	rareView, err := core.FromViewData(core.ViewData{
		PopVersion: 1, Items: rareItems, ClusterOf: rareAssign, Postings: rarePostings,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: RouteRarest view:", err)
		os.Exit(1)
	}
	rareQuery := attr.NewSet(0, 3)
	record("RouteRarest", func(b *testing.B) {
		b.ReportAllocs()
		var sc core.RouteScratch
		rareView.Route(rareQuery, &sc)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rareView.Route(rareQuery, &sc)
		}
	})
	// The router tier's per-query path: a replica synchronized from one
	// full wire record answers raw term queries through the same shared
	// code as the daemon (term resolution + Route + response assembly),
	// allocation-free by the same contract. Its RouteCache is disabled
	// so this keeps measuring the uncached resolve+Route pipeline
	// (QueryServeHot owns the cached number).
	vocab := ssys.Gen.Vocab()
	names := vocab.Names()
	rawQueries := make([][]string, len(queries))
	for i, q := range queries {
		rawQueries[i] = q.Names(vocab)
	}
	rt := router.New(router.Config{Upstream: "unused", RouteCache: -1})
	rec, err := viewwire.Decode(viewwire.AppendFull(nil, 1, names, view.Export()))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: RouterServe record:", err)
		os.Exit(1)
	}
	if err := rt.ApplyRecord(rec); err != nil {
		fmt.Fprintln(os.Stderr, "bench: RouterServe sync:", err)
		os.Exit(1)
	}
	recordServe("RouterServe", func(b *testing.B) {
		b.ReportAllocs()
		var sc api.Scratch
		for _, q := range rawQueries {
			rt.AnswerQuery(q, &sc)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.AnswerQuery(rawQueries[i%len(rawQueries)], &sc)
		}
	})
	// What one join costs to make visible, on the daemon (the view
	// build that publishes it) and on a router (applying its delta
	// record), at the -peers population: both must stay proportional to
	// the newcomer's footprint, not to the system.
	recordServe("BuildViewAfterJoin", benchsuite.BuildViewAfterJoin(ssys, seng))
	recordServe("RouterApplyJoinDelta", benchsuite.RouterApplyJoinDelta(ssys, seng))
	// Restore, the first join after it and the first decide rounds of
	// the paper's initial configuration (i), every peer its own cluster:
	// a steady-state Rebuild, a cold one (peer indexes unbuilt, first
	// view published), the first AddPeer on a fresh engine, and one round
	// in which every peer scans every cluster. All four must cost what
	// is non-zero, not the peers x queries x cluster-slots grid. A
	// private System, for the reason given below.
	rsys := experiments.Build(lp, experiments.SameCategory)
	recordServe("RebuildLarge", benchsuite.RebuildLarge(rsys))
	recordServe("ColdRestore", benchsuite.ColdRestore(rsys))
	recordServe("FirstJoinAfterRestore", benchsuite.FirstJoinAfterRestore(rsys))
	recordServe("DecideRoundSingletons", benchsuite.DecideRoundSingletons(rsys))
	// The reformulation protocol's hot paths: one round serial, one
	// round with the phase-1 decide scan fanned over all cores, and a
	// quiescent stepped period (the steady-state maintenance tick of
	// the serving daemon, pinned allocation-free). They run over a
	// private System: the membership benches above mutate the shared
	// workload's slots, which a fresh engine build would reject.
	psys := experiments.Build(p, experiments.SameCategory)
	protoEng := psys.NewEngine(psys.InitialConfig(experiments.InitRandomM, stats.NewRNG(4)))
	protoRunner := psys.NewRunner(protoEng, core.NewSelfish(), true)
	record("ProtocolRound", func(b *testing.B) {
		b.ReportAllocs()
		protoRunner.BeginPeriod()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			protoRunner.RunRound(i + 1)
		}
	})
	parEng := psys.NewEngine(psys.InitialConfig(experiments.InitRandomM, stats.NewRNG(4)))
	parRunner := psys.NewRunnerWorkers(parEng, core.NewSelfish(), true, runtime.GOMAXPROCS(0))
	record("ProtocolRoundParallel", func(b *testing.B) {
		b.ReportAllocs()
		parRunner.BeginPeriod()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			parRunner.RunRound(i + 1)
		}
	})
	// ReformStep measures the quiescent steady state, so it starts
	// from singletons, which converge at every scale (the random-m
	// initialization can oscillate forever in heavily scaled systems).
	stepEng := psys.NewEngine(psys.InitialConfig(experiments.InitSingletons, stats.NewRNG(4)))
	stepRunner := psys.NewRunner(stepEng, core.NewSelfish(), true)
	if rpt := stepRunner.Run(); !rpt.Converged {
		fmt.Fprintln(os.Stderr, "bench: ReformStep system did not converge; steady-state numbers would lie")
		os.Exit(1)
	}
	for i := 0; i < 2; i++ {
		per := stepRunner.Begin()
		for !per.Step(8) {
		}
	}
	record("ReformStep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			per := stepRunner.Begin()
			for !per.Step(8) {
			}
		}
	})
	// Maintenance at scale: a population far past the paper's 200, with
	// the cluster count growing with it (SameCategory converges to
	// roughly one cluster per category) and localized churn between
	// rounds — a handful of leaves, plus joins admitted straight into
	// the vacated peer's cluster (the maintenance admission path: a
	// granted newcomer lands in the cluster that admitted it), dirty a
	// few clusters' aggregates while the rest of the population stays
	// clean. Newcomer materials are pre-generated outside the timed
	// loop so the corpus generator's cost doesn't drown the phase-1
	// signal. ProtocolRoundLarge times one round after such a churn;
	// ReformStepLarge pins the quiescent stepped period (and its 0-alloc
	// contract) at scale.
	lsys := experiments.Build(lp, experiments.SameCategory)
	leng := lsys.NewEngine(lsys.InitialConfig(experiments.InitSingletons, stats.NewRNG(4)))
	lrunner := protocol.NewRunner(leng, core.NewSelfish(), protocol.Options{
		Epsilon:          lp.Epsilon,
		MaxRounds:        lp.MaxRounds,
		AllowNewClusters: true,
	})
	if rpt := lrunner.Run(); !rpt.Converged {
		fmt.Fprintf(os.Stderr, "bench: %d-peer system did not converge\n", lp.Peers)
		os.Exit(1)
	}
	liveSlots := func(eng *core.Engine) []int {
		live := make([]int, 0, lp.Peers)
		for pid := 0; pid < eng.NumSlots(); pid++ {
			if eng.IsLive(pid) {
				live = append(live, pid)
			}
		}
		return live
	}
	type newcomerKit struct {
		items   []attr.Set
		queries []attr.Set
		counts  []int
	}
	const kitsPerCat = 4
	newKits := func(sys *experiments.System, rng *stats.RNG) [][]newcomerKit {
		kits := make([][]newcomerKit, lp.Categories)
		for c := range kits {
			for i := 0; i < kitsPerCat; i++ {
				items, queries, counts := sys.NewcomerMaterials(c, c, 0, rng)
				kits[c] = append(kits[c], newcomerKit{items, queries, counts})
			}
		}
		return kits
	}
	largeRound := func(sys *experiments.System, eng *core.Engine, runner *protocol.Runner) func(b *testing.B) {
		live := liveSlots(eng)
		catOf := make([]int, eng.NumSlots())
		for _, pid := range live {
			catOf[pid] = pid % lp.Categories // Build assigns category i%C in slot order
		}
		rng := stats.NewRNG(11)
		kits := newKits(sys, rng)
		kitSeq := 0
		round := lp.MaxRounds
		churn := func() {
			for k := 0; k < 4; k++ {
				j := rng.Intn(len(live))
				victim := live[j]
				cat := catOf[victim]
				to := eng.Config().ClusterOf(victim)
				eng.RemovePeer(victim)
				kit := kits[cat][kitSeq%kitsPerCat]
				kitSeq++
				pr := peer.New(-1)
				pr.SetItems(kit.items)
				pid := eng.AddPeer(pr, kit.queries, kit.counts, to)
				live[j] = pid
				for len(catOf) <= pid {
					catOf = append(catOf, 0)
				}
				catOf[pid] = cat
			}
		}
		// Warm the slot free list, index rebuilds and runner scratch so
		// the first timed iteration isn't a one-off cold outlier (cold
		// churn is ~100ms; at b.N=1 it would be the whole estimate).
		for i := 0; i < 2; i++ {
			churn()
			round++
			runner.RunRound(round)
		}
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// The churn is the workload's setup, not the measured
				// path: time (and count allocations for) the round only.
				b.StopTimer()
				churn()
				b.StartTimer()
				round++
				runner.RunRound(round)
			}
		}
	}
	recordSized("ProtocolRoundLarge", lp.Peers, 1, largeRound(lsys, leng, lrunner))
	// Re-converge the large system after its churn, then step
	// quiescent periods — the daemon's steady-state maintenance tick at
	// scale.
	if rpt := lrunner.Run(); !rpt.Converged {
		fmt.Fprintln(os.Stderr, "bench: large system did not re-converge; steady-state numbers would lie")
		os.Exit(1)
	}
	for i := 0; i < 2; i++ {
		per := lrunner.Begin()
		for !per.Step(8) {
		}
	}
	recordSized("ReformStepLarge", lp.Peers, 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			per := lrunner.Begin()
			for !per.Step(8) {
			}
		}
	})
	record("Table1Serial", func(b *testing.B) {
		b.ReportAllocs()
		pp := p
		pp.Workers = 1
		for i := 0; i < b.N; i++ {
			experiments.RunTable1(pp)
		}
	})
	record("Table1Workers", func(b *testing.B) {
		b.ReportAllocs()
		pp := p
		pp.Workers = 0 // one worker per CPU
		for i := 0; i < b.N; i++ {
			experiments.RunTable1(pp)
		}
	})

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: encode:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench: write:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(report.Benchmarks))
	}

	if *baseline != "" {
		// The gate table goes to stderr so `-o -` keeps stdout pure JSON.
		if err := compareBaseline(*baseline, report, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
}

// compareBaseline diffs the fresh report against a stored baseline
// over the pinned hot-path benchmarks and returns an error when any
// regresses. Allocs/op are gated unconditionally: they are
// deterministic, so any increase is a real regression on any
// hardware. Ns/op is hardware-relative, so it is gated (beyond the
// tolerance) only when the baseline was produced on the same runner
// class — same GOOS/GOARCH/CPU model — and degrades to a warning
// otherwise (a baseline from a dev container must not flake CI whose
// runners have different silicon). Names present on only one side are
// reported but never gated, so adding a benchmark does not require
// regenerating every baseline first.
func compareBaseline(path string, fresh benchReport, w io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base benchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	index := func(r benchReport) map[string]benchResult {
		m := make(map[string]benchResult, len(r.Benchmarks))
		for _, b := range r.Benchmarks {
			m[b.Name] = b
		}
		return m
	}
	bm, fm := index(base), index(fresh)

	gateNs := sameRunnerClass(base, fresh)
	if gateNs {
		fmt.Fprintf(w, "bench gate vs %s (same runner class %s/%s %q: tolerance %.0f%% ns/op, 0 allocs/op growth):\n",
			path, base.GOOS, base.GOARCH, base.CPU, (benchRegressionTolerance-1)*100)
	} else {
		fmt.Fprintf(w, "bench gate vs %s (baseline class %s/%s %q vs fresh %s/%s %q: ns/op informational only, 0 allocs/op growth gated):\n",
			path, base.GOOS, base.GOARCH, base.CPU, fresh.GOOS, fresh.GOARCH, fresh.CPU)
	}
	var failures []string
	for _, name := range gatedBenchmarks {
		b, okB := bm[name]
		f, okF := fm[name]
		switch {
		case !okB:
			fmt.Fprintf(w, "  %-22s not in baseline (skipped)\n", name)
			continue
		case !okF:
			fmt.Fprintf(w, "  %-22s not in fresh run (skipped)\n", name)
			continue
		}
		var verdicts []string
		if f.NsPerOp > b.NsPerOp*benchRegressionTolerance {
			if gateNs {
				verdicts = append(verdicts, "NS/OP REGRESSION")
				failures = append(failures, fmt.Sprintf("%s ns/op %.1f -> %.1f (%.0f%%)",
					name, b.NsPerOp, f.NsPerOp, 100*(f.NsPerOp/b.NsPerOp-1)))
			} else {
				verdicts = append(verdicts, "ns/op grew (not gated: runner class differs)")
			}
		}
		if f.AllocsPerOp > b.AllocsPerOp {
			verdicts = append(verdicts, "ALLOCS REGRESSION")
			failures = append(failures, fmt.Sprintf("%s allocs/op %d -> %d",
				name, b.AllocsPerOp, f.AllocsPerOp))
		}
		verdict := "ok"
		if len(verdicts) > 0 {
			verdict = strings.Join(verdicts, " + ")
		}
		fmt.Fprintf(w, "  %-22s ns/op %10.1f -> %10.1f  allocs/op %d -> %d  %s\n",
			name, b.NsPerOp, f.NsPerOp, b.AllocsPerOp, f.AllocsPerOp, verdict)
	}
	for _, name := range zeroAllocBenchmarks {
		f, ok := fm[name]
		if !ok {
			continue
		}
		if f.AllocsPerOp != 0 {
			fmt.Fprintf(w, "  %-22s allocs/op %d, contract demands 0  ALLOC CONTRACT VIOLATION\n", name, f.AllocsPerOp)
			failures = append(failures, fmt.Sprintf("%s allocs/op %d, want 0 (0-alloc contract)", name, f.AllocsPerOp))
		} else {
			fmt.Fprintf(w, "  %-22s allocs/op 0 (0-alloc contract holds)\n", name)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench regression gate failed: %v", failures)
	}
	return nil
}
