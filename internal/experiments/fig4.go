package experiments

import (
	"fmt"

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
func RunFig4(p Params, alphas []float64) *metrics.Series {
	if len(alphas) == 0 {
		alphas = []float64{0, 1, 2}
	}
	base := updateBase(p)
	out := metrics.NewSeries("Fig 4: individual cost vs percentage of changing workload", "changed-workload")
	for _, a := range alphas {
		out.AddColumn(fmt.Sprintf("alpha=%g", a))
	}

	// One independent cell per (level, alpha), each perturbing a
	// private fork of the base; cells run on the Params.Workers pool and
	// are assembled in a fixed order.
	levels := Levels01()
	ys := make([]float64, len(levels)*len(alphas))
	runIndexed(p.workerCount(), len(ys), func(i int) {
		x := levels[i/len(alphas)]
		a := alphas[i%len(alphas)]
		sys := base.Fork()
		// Merge category 2 into category 1's cluster to create the
		// larger c_new.
		assign := sys.CategoryConfig().Assignment()
		for pid, c := range assign {
			if c == 2 {
				assign[pid] = 1
			}
		}
		cfg := cluster.FromAssignment(assign)
		// The subject is the lowest-ID category-0 peer.
		subject := -1
		for pid, c := range sys.DataCat {
			if c == 0 {
				subject = pid
				break
			}
		}
		rng := stats.NewRNG(p.Seed ^ 0xc2b2ae3d ^ uint64(x*1e6))
		sys.RedirectWorkload(subject, 1, x, rng)
		params := sys.Params
		params.Alpha = a
		sys.Params = params
		eng := sys.NewEngine(cfg)
		// The subject applies the selfish strategy: move to the
		// cost-minimizing cluster if it beats staying by more than ε.
		ev := eng.EvaluateMoves(subject)
		if ev.Gain() > sys.Params.Epsilon {
			eng.Move(subject, ev.Best)
		}
		ys[i] = eng.PeerCost(subject, eng.Config().ClusterOf(subject))
	})
	for li, x := range levels {
		out.AddPoint(x, ys[li*len(alphas):(li+1)*len(alphas)]...)
	}
	return out
}
