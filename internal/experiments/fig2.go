package experiments

import (
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// updateBase builds the one system the §4.2 experiments perturb: the
// same-category scenario with the total workload assigned uniformly to
// peers, as §4.2 prescribes.
func updateBase(p Params) *System {
	p.DemandZipfS = 0
	return buildBase(p, SameCategory)
}

// paperStrategies are the two relocation strategies the paper's
// evaluation compares, in the order its tables and figures list them.
var paperStrategies = []func() core.Strategy{
	func() core.Strategy { return core.NewSelfish() },
	func() core.Strategy { return core.NewAltruistic() },
}

// updateExperiment factors the shared shape of Figs. 2 and 3: start
// from a good configuration of the same-category scenario (uniform
// demand split, per §4.2), perturb the peers of one cluster, run the
// reformulation protocol with a fixed cluster count (new-cluster
// creation disabled, per the paper), and record the final normalized
// social cost per strategy.
//
// base is the unperturbed system (updateBase) and baseEng an engine
// over its good configuration (CategoryConfig); neither is changed, so
// the panels of a figure share them. apply perturbs a fork of base
// whose peers and workload a clone of baseEng evaluates: it receives
// the fork, the members of the updated cluster c_cur, the perturbation
// level x in [0,1], and a deterministic RNG.
func updateExperiment(base *System, baseEng *core.Engine, title, xlabel string, levels []float64,
	apply func(sys *System, members []int, x float64, rng *stats.RNG)) *metrics.Series {

	p := base.Params
	out := metrics.NewSeries(title, xlabel)
	out.AddColumn("selfish")
	out.AddColumn("altruistic")
	// no-reform is the counterfactual: the social cost right after the
	// update if no reformulation ran. The gap between it and the
	// strategy curves is what the protocol recovers.
	out.AddColumn("no-reform")

	// One independent unit of work per level: the level's perturbation
	// is applied once, with the level's RNG, to a clone of the base
	// engine, and the Rebuild re-asks only the peers it touched. Every
	// strategy then starts from that one perturbed state on an engine of
	// its own: the last on the level's engine, the others on clones.
	rows := make([][]float64, len(levels))
	runIndexed(p.workerCount(), len(levels), func(li int) {
		x := levels[li]
		eng := baseEng.Clone()
		sys := base.ForkOnto(eng)
		// c_cur is the cluster of category 0.
		members := eng.Config().Members(0)
		rng := stats.NewRNG(p.Seed ^ 0x5bd1e995 ^ uint64(x*1e6))
		apply(sys, members, x, rng)
		eng.Rebuild()
		noReform := eng.SCostNormalized()
		engines := cellEngines(eng, len(paperStrategies))
		ys := make([]float64, 0, len(paperStrategies)+1)
		for si, strat := range paperStrategies {
			e := engines[si]
			sys.NewRunner(e, strat(), false).Run()
			ys = append(ys, e.SCostNormalized())
		}
		rows[li] = append(ys, noReform)
	})
	for li, x := range levels {
		out.AddPoint(x, rows[li]...)
	}
	return out
}

// Levels01 is the x axis of Figs. 2-4: 0 to 1 in steps of 0.1.
func Levels01() []float64 {
	out := make([]float64, 0, 11)
	for i := 0; i <= 10; i++ {
		out = append(out, float64(i)/10)
	}
	return out
}

// Fig2Result holds both panels of Fig. 2.
type Fig2Result struct {
	// UpdatedPeers: fraction of c_cur's peers whose workload moved
	// entirely to the data of another cluster (left panel).
	UpdatedPeers *metrics.Series
	// UpdatedWorkload: fraction of every c_cur peer's workload that
	// moved (right panel).
	UpdatedWorkload *metrics.Series
}

// RunFig2 reproduces Fig. 2 (workload updates). The new interest of
// updated peers is category 1, whose data lives in cluster c_new = 1.
func RunFig2(p Params) *Fig2Result { return runFig2(updateBase(p)) }

// runFig2 is RunFig2 over a built updateBase, which it leaves unchanged.
func runFig2(base *System) *Fig2Result {
	const toCat = 1
	baseEng := base.NewEngine(base.CategoryConfig())
	left := updateExperiment(base, baseEng,
		"Fig 2 (left): social cost vs percentage of updated peers",
		"updated-peers",
		Levels01(),
		func(sys *System, members []int, x float64, rng *stats.RNG) {
			k := int(x*float64(len(members)) + 0.5)
			for _, pid := range members[:k] {
				sys.RedirectWorkload(pid, toCat, 1, rng)
			}
		})
	right := updateExperiment(base, baseEng,
		"Fig 2 (right): social cost vs percentage of updated workload",
		"updated-workload",
		Levels01(),
		func(sys *System, members []int, x float64, rng *stats.RNG) {
			for _, pid := range members {
				sys.RedirectWorkload(pid, toCat, x, rng)
			}
		})
	return &Fig2Result{UpdatedPeers: left, UpdatedWorkload: right}
}

// Fig3Result holds both panels of Fig. 3.
type Fig3Result struct {
	// UpdatedPeers: fraction of c_cur's peers whose data was replaced
	// by another category (left panel).
	UpdatedPeers *metrics.Series
	// UpdatedData: fraction of every c_cur peer's items replaced
	// (right panel).
	UpdatedData *metrics.Series
}

// RunFig3 reproduces Fig. 3 (content updates): the data of c_cur's
// peers is replaced by documents of category 1. Selfish peers have no
// motive to move (their queries are unchanged and the lost category-0
// data exists in no other cluster), while altruistic peers follow
// their new content to the cluster that demands it.
func RunFig3(p Params) *Fig3Result { return runFig3(updateBase(p)) }

// runFig3 is RunFig3 over a built updateBase, which it leaves unchanged.
func runFig3(base *System) *Fig3Result {
	const toCat = 1
	baseEng := base.NewEngine(base.CategoryConfig())
	left := updateExperiment(base, baseEng,
		"Fig 3 (left): social cost vs percentage of updated peers",
		"updated-peers",
		Levels01(),
		func(sys *System, members []int, x float64, rng *stats.RNG) {
			k := int(x*float64(len(members)) + 0.5)
			for _, pid := range members[:k] {
				sys.ReplaceData(pid, toCat, 1, rng)
			}
		})
	right := updateExperiment(base, baseEng,
		"Fig 3 (right): social cost vs percentage of updated data",
		"updated-data",
		Levels01(),
		func(sys *System, members []int, x float64, rng *stats.RNG) {
			for _, pid := range members {
				sys.ReplaceData(pid, toCat, x, rng)
			}
		})
	return &Fig3Result{UpdatedPeers: left, UpdatedData: right}
}
