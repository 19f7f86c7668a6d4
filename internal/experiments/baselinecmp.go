package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// RunBaselineComparison quantifies the paper's §1 motivation: after a
// workload drift (half of one cluster's peers change interest), local
// reformulation should restore quality at a fraction of the
// communication cost of re-clustering the whole network from scratch
// with global knowledge. Compared responses:
//
//	none        — leave the stale clustering in place
//	selfish     — the paper's protocol, selfish strategy
//	altruistic  — the paper's protocol, altruistic strategy
//	kmeans      — centralized cosine k-means over all peer vectors
//	flood       — collapse to a single cluster (no clustering)
//	singletons  — no cooperation at all
func RunBaselineComparison(p Params) *metrics.Table {
	t := metrics.NewTable("Extension: maintenance responses after workload drift",
		"response", "SCost", "WCost", "#clusters", "purity", "messages")

	base := updateBase(p)
	build := func() (*System, []int) {
		sys := base.Fork()
		cfg := sys.CategoryConfig()
		members := cfg.Members(0)
		rng := stats.NewRNG(p.Seed ^ 0x94d049bb)
		half := members[:len(members)/2]
		for _, pid := range half {
			sys.RedirectWorkload(pid, 1, 1, rng)
		}
		return sys, half
	}

	row := func(name string, sys *System, eng *core.Engine, msgs int) []string {
		return []string{name,
			metrics.F(eng.SCostNormalized(), 3),
			metrics.F(eng.WCostNormalized(), 3),
			metrics.I(eng.Config().NumNonEmpty()),
			metrics.F(baseline.CategoryPurity(eng.Config(), sys.DataCat), 3),
			metrics.I(msgs)}
	}

	// One independent cell per maintenance response, each over its own
	// freshly forked and drifted system.
	responses := []func() []string{
		func() []string { // no maintenance
			sys, _ := build()
			eng := sys.NewEngine(sys.CategoryConfig())
			return row("none", sys, eng, 0)
		},
		func() []string {
			sys, _ := build()
			eng := sys.NewEngine(sys.CategoryConfig())
			strat := core.NewSelfish()
			rpt := sys.NewRunner(eng, strat, false).Run()
			return row(strat.Name(), sys, eng, rpt.Messages)
		},
		func() []string {
			sys, _ := build()
			eng := sys.NewEngine(sys.CategoryConfig())
			strat := core.NewAltruistic()
			rpt := sys.NewRunner(eng, strat, false).Run()
			return row(strat.Name(), sys, eng, rpt.Messages)
		},
		func() []string { // global k-means re-clustering (k = categories)
			sys, _ := build()
			km := baseline.KMeans(sys.Peers, p.Categories, 50, stats.NewRNG(p.Seed^0xbf58476d))
			eng := sys.NewEngine(km.Config)
			return row(fmt.Sprintf("kmeans(k=%d)", p.Categories), sys, eng, km.Messages)
		},
		func() []string { // flood: one giant cluster
			sys, _ := build()
			eng := sys.NewEngine(baseline.SingleCluster(p.Peers))
			return row("flood", sys, eng, 0)
		},
		func() []string { // no cooperation at all
			sys, _ := build()
			eng := sys.NewEngine(baseline.Singletons(p.Peers))
			return row("singletons", sys, eng, 0)
		},
	}
	for _, r := range p.runRows(len(responses), func(i int) []string { return responses[i]() }) {
		t.AddRow(r...)
	}
	return t
}

// RunKMeansDiscovery contrasts cluster discovery from scratch: the
// selfish protocol from singletons (the paper's §4.1 conclusion that
// the strategies double as a discovery mechanism) versus centralized
// k-means, on clustering purity and communication.
func RunKMeansDiscovery(p Params) *metrics.Table {
	t := metrics.NewTable("Extension: decentralized discovery vs centralized k-means (same-category scenario)",
		"method", "#clusters", "SCost", "purity", "messages")
	sys := Build(p, SameCategory)
	if p.workerCount() > 1 {
		sys.Warm()
	}
	for _, r := range p.runRows(2, func(i int) []string {
		if i == 0 {
			rng := stats.NewRNG(p.Seed ^ 0x2545f4914f6cdd1d)
			cfg := sys.InitialConfig(InitSingletons, rng)
			eng := sys.NewEngine(cfg)
			rpt := sys.NewRunner(eng, core.NewSelfish(), true).Run()
			return []string{"selfish protocol", metrics.I(rpt.FinalClusters),
				metrics.F(rpt.FinalSCost, 3),
				metrics.F(baseline.CategoryPurity(eng.Config(), sys.DataCat), 3),
				metrics.I(rpt.Messages)}
		}
		km := baseline.KMeans(sys.Peers, p.Categories, 50, stats.NewRNG(p.Seed^0x9e3779b9))
		eng := sys.NewEngine(km.Config)
		return []string{fmt.Sprintf("kmeans(k=%d)", p.Categories), metrics.I(km.Config.NumNonEmpty()),
			metrics.F(eng.SCostNormalized(), 3),
			metrics.F(baseline.CategoryPurity(km.Config, sys.DataCat), 3),
			metrics.I(km.Messages)}
	}) {
		t.AddRow(r...)
	}
	return t
}
