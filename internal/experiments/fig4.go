package experiments

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// RunFig4 reproduces Fig. 4 (influence of α): a single selfish peer's
// individual cost as its query workload gradually shifts toward
// content held in a larger cluster, for α ∈ {0, 1, 2}.
//
// Setup: same-category scenario under a uniform demand split; the good
// category clustering, except that categories 1 and 2 are merged into
// one double-size cluster c_new. The subject peer (category 0) shifts
// a fraction x of its workload to category-1 words. Because c_new has
// more members than the subject's current cluster, a larger α demands
// a larger workload shift before the move pays off — the peer's cost
// curve rises with x until the crossover, then drops as the selfish
// move is taken; the crossover shifts right as α grows.
func RunFig4(p Params, alphas []float64) *metrics.Series { return runFig4(updateBase(p), alphas) }

// runFig4 is RunFig4 over a built updateBase, which it leaves unchanged.
func runFig4(base *System, alphas []float64) *metrics.Series {
	if len(alphas) == 0 {
		alphas = []float64{0, 1, 2}
	}
	p := base.Params
	out := metrics.NewSeries("Fig 4: individual cost vs percentage of changing workload", "changed-workload")
	for _, a := range alphas {
		out.AddColumn(fmt.Sprintf("alpha=%g", a))
	}

	// Merge category 2 into category 1's cluster to create the larger
	// c_new; one engine over that configuration serves every level.
	assign := base.CategoryConfig().Assignment()
	for pid, c := range assign {
		if c == 2 {
			assign[pid] = 1
		}
	}
	baseEng := base.NewEngine(cluster.FromAssignment(assign))
	// The subject is the lowest-ID category-0 peer.
	subject := slices.Index(base.DataCat, 0)

	// One independent unit of work per level: the subject's workload is
	// redirected once on a clone of the base engine, and every α reads
	// its point off an engine of its own over that one perturbed state
	// (α only scales the membership term, so SetAlpha needs no Rebuild).
	levels := Levels01()
	rows := make([][]float64, len(levels))
	runIndexed(p.workerCount(), len(levels), func(li int) {
		x := levels[li]
		eng := baseEng.Clone()
		sys := base.ForkOnto(eng)
		rng := stats.NewRNG(p.Seed ^ 0xc2b2ae3d ^ uint64(x*1e6))
		sys.RedirectWorkload(subject, 1, x, rng)
		eng.Rebuild()
		engines := cellEngines(eng, len(alphas))
		ys := make([]float64, 0, len(alphas))
		for ai, a := range alphas {
			e := engines[ai]
			e.SetAlpha(a)
			// The subject applies the selfish strategy: move to the
			// cost-minimizing cluster if it beats staying by more than ε.
			ev := e.EvaluateMoves(subject)
			if ev.Gain() > p.Epsilon {
				e.Move(subject, ev.Best)
			}
			ys = append(ys, e.PeerCost(subject, e.Config().ClusterOf(subject)))
		}
		rows[li] = ys
	})
	for li, x := range levels {
		out.AddPoint(x, rows[li]...)
	}
	return out
}
