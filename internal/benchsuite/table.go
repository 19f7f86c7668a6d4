// Package benchsuite is the one place a micro-benchmark exists. Table
// lists every body with the population it runs at and what the
// allocation gate, TestAllocGate, holds it to; `reform bench` runs the
// table through testing.Benchmark and `go test -bench Suite` through
// b.Run, over the same Fixtures, so a benchmark is defined once.
package benchsuite

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
)

// Class is the population an entry runs at.
type Class int

const (
	// Small entries run at the paper's setting shrunk by Scale.
	Small Class = iota
	// Large entries run at a population of their own (LargePeers, or
	// `reform bench -peers`): their cost structure only shows at a real
	// population (long posting lists, many clusters, localized churn).
	Large
)

// Gate is what TestAllocGate holds an entry to against
// BENCH_BASELINE.json. Only allocs/op is ever judged: it is equal from
// run to run, where ns/op swings by half on a shared box and B/op by a
// few bytes.
type Gate int

const (
	// GateNone entries are recorded for the trajectory only: the
	// macro-benchmarks and ProtocolRoundParallel, whose allocations depend
	// on the CPU count (0, 6 and 10 a round at GOMAXPROCS 1, 2 and 4), and
	// ColdRestore, which allocates a couple of dozen objects more or fewer
	// from run to run.
	GateNone Gate = iota
	// GateAllocs entries fail the gate when allocs/op grew past the
	// baseline's.
	GateAllocs
	// GateZeroAlloc entries are GateAllocs and must also report exactly 0
	// allocs/op whatever the baseline says: the per-query read path (the
	// caller's scratch owns every buffer), a quiescent stepped period
	// (report storage is runner-recycled) and a steady-state Rebuild
	// (every aggregate and index is engine-owned and reused).
	GateZeroAlloc
)

// Entry is one benchmark. New builds the body over f, whose systems are
// built once a run and shared with the entries before it.
type Entry struct {
	Name  string
	Class Class
	Gate  Gate
	New   func(f *Fixtures) func(b *testing.B)
}

// LargePeers is the default population of the Large class.
const LargePeers = 1000

// Table is every benchmark, in the order the harnesses run them. The
// order matters where entries share a fixture: see Fixtures.
var Table = []Entry{
	// What every experiment driver, benchmark set-up and test pays at
	// least once: the vocabulary, every peer's documents, the workload.
	{"BuildSystem", Small, GateNone, driver(func(p experiments.Params) { experiments.Build(p, experiments.SameCategory) })},
	// A document costs its text and its term set, two objects.
	{"CorpusDocument", Small, GateAllocs, corpusDocument},
	{"EvaluateMoves", Small, GateAllocs, hotPath(func(eng *core.Engine, peers, n int) {
		for i := 0; i < n; i++ {
			eng.EvaluateMoves(i % peers)
		}
	})},
	{"EvaluateContribution", Small, GateAllocs, hotPath(func(eng *core.Engine, peers, n int) {
		for i := 0; i < n; i++ {
			eng.EvaluateContribution(i % peers)
		}
	})},
	{"PeerCost", Small, GateAllocs, hotPath(func(eng *core.Engine, peers, n int) {
		cfg := eng.Config()
		for i := 0; i < n; i++ {
			eng.PeerCost(i%peers, cfg.ClusterOf(i%peers))
		}
	})},
	{"Move", Small, GateAllocs, hotPath(func(eng *core.Engine, peers, n int) {
		for i := 0; i < n; i++ {
			eng.Move(i%peers, cluster.CID(i%10))
		}
	})},
	{"SCost", Small, GateAllocs, hotPath(func(eng *core.Engine, _, n int) {
		for i := 0; i < n; i++ {
			_ = eng.SCostNormalized()
		}
	})},
	{"Rebuild", Small, GateZeroAlloc, func(f *Fixtures) func(b *testing.B) { return rebuild(f.hot.eng) }},
	// A clone costs two objects a peer (the peer.Clone and its item
	// list) plus some fifty whatever the population, so a structure that
	// goes back to being cloned list by list instead of out of one arena
	// shows in these two.
	{"EngineClone", Small, GateAllocs, engineClone},
	{"UpdateLevel", Small, GateAllocs, updateLevel},
	{"AddRemovePeer", Small, GateAllocs, churnCycle(6, false)},
	{"CompactCycle", Small, GateAllocs, churnCycle(8, true)},
	{"QueryServe", Large, GateZeroAlloc, queryServe(0)},
	{"QueryServeParallel", Large, GateZeroAlloc, queryServeParallel},
	// Both cached entries amortize their misses' inserts to 0 under
	// AllocsPerOp's integer division. QueryServeHot warms its cache, so
	// only a rare collision misses. QueryServeZipf's tail misses a cache
	// smaller than its order: 1 allocs/op at 100-200 iterations, 0 at
	// 2000, which is why the gate runs it at 2000.
	{"QueryServeHot", Large, GateZeroAlloc, queryServe(4096)},
	{"QueryServeZipf", Large, GateAllocs, queryServeZipf},
	{"RouteRarest", Small, GateZeroAlloc, routeRarest},
	{"RouterServe", Large, GateZeroAlloc, routerServe},
	// The same reads through the HTTP handlers, and one join as the
	// control-plane counterpart: decode, answer, encode, Instrument.
	{"HandlerQuery", Large, GateAllocs, handlerQuery},
	{"HandlerQueryBatch", Large, GateAllocs, handlerQueryBatch},
	{"RouterHandlerQuery", Large, GateAllocs, routerHandlerQuery},
	{"HandlerJoin", Large, GateAllocs, handlerJoin},
	{"BuildViewAfterJoin", Large, GateAllocs, buildViewAfterJoin},
	{"RouterApplyJoinDelta", Large, GateAllocs, routerApplyJoinDelta},
	{"RebuildLarge", Large, GateZeroAlloc, rebuildLarge},
	{"ColdRestore", Large, GateNone, coldRestore},
	{"FirstJoinAfterRestore", Large, GateAllocs, firstJoinAfterRestore},
	{"DecideRoundSingletons", Large, GateAllocs, decideRoundSingletons},
	{"ProtocolRound", Small, GateAllocs, protocolRound(false)},
	{"ProtocolRoundParallel", Small, GateNone, protocolRound(true)},
	{"ReformStep", Small, GateZeroAlloc, reformStep},
	{"ProtocolRoundLarge", Large, GateAllocs, protocolRoundLarge},
	{"ReformStepLarge", Large, GateZeroAlloc, reformStepLarge},

	// One macro-benchmark per table and figure of the paper, then the
	// ablations and extensions: whole experiment drivers, end to end.
	{"Table1Serial", Small, GateNone, table1(1)},
	{"Table1Workers", Small, GateNone, table1(0)}, // one worker per CPU
	{"Table1SameCategory", Small, GateNone, scenarioRun(experiments.SameCategory)},
	{"Table1DifferentCategory", Small, GateNone, scenarioRun(experiments.DifferentCategory)},
	{"Table1Uniform", Small, GateNone, scenarioRun(experiments.Uniform)},
	{"Fig1", Small, GateNone, driver(func(p experiments.Params) { experiments.RunFig1(p, 10) })},
	{"Fig2", Small, GateNone, driver(func(p experiments.Params) { experiments.RunFig2(p) })},
	{"Fig3", Small, GateNone, driver(func(p experiments.Params) { experiments.RunFig3(p) })},
	{"Fig4", Small, GateNone, driver(func(p experiments.Params) { experiments.RunFig4(p, nil) })},
	{"NashCheck", Small, GateNone, nashCheck},
	{"ThetaAblation", Small, GateNone, driver(func(p experiments.Params) { experiments.RunThetaAblation(p) })},
	{"EpsilonAblation", Small, GateNone, driver(func(p experiments.Params) { experiments.RunEpsilonAblation(p) })},
	{"Hybrid", Small, GateNone, driver(func(p experiments.Params) { experiments.RunHybridComparison(p) })},
	{"PairedDemandAblation", Small, GateNone, driver(func(p experiments.Params) {
		p.MaxRounds = 60 // the chain variant never converges; bound it
		experiments.RunPairedDemandAblation(p)
	})},
	{"Async", Small, GateNone, driver(func(p experiments.Params) { experiments.RunAsyncComparison(p) })},
	{"Baseline", Small, GateNone, driver(func(p experiments.Params) { experiments.RunBaselineComparison(p) })},
	{"Churn", Small, GateNone, driver(func(p experiments.Params) { experiments.RunChurn(p, 5, 0.05) })},
	{"LookupCost", Small, GateNone, driver(func(p experiments.Params) { experiments.RunLookupCost(p) })},
	{"FlashCrowd", Small, GateNone, driver(func(p experiments.Params) { experiments.RunFlashCrowd(p, []int{10}) })},
	{"KMeansRecluster", Small, GateNone, kmeansRecluster},
}
