package experiments

import (
	"math"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
)

// RunRoutingAblation quantifies §3.1's remark that the observed
// cluster recall "depends on the routing algorithm used": peers that
// probe only k remote clusters per period act on partial observations.
// The table reports, per probe budget, the observation message volume,
// the mean absolute error of the locally estimated individual costs
// against the exact engine, and the social cost the selfish protocol
// reaches when driven by those estimates.
func RunRoutingAblation(p Params) *metrics.Table {
	t := metrics.NewTable("Extension: probe budget vs estimate quality (same-category scenario, random m=M init, selfish)",
		"probe-clusters", "query-messages", "mean-abs-pcost-error", "final-SCost", "converged")

	budgets := []int{1, 2, 4, 8, 0} // 0 = flood all clusters
	// One independent cell per probe budget (the actor sim exercises
	// the peers' lazy query indexes, so each cell forks the base).
	base := buildBase(p, SameCategory)
	for _, r := range p.runRows(len(budgets), func(i int) []string {
		k := budgets[i]
		sys := base.Fork()
		rng := stats.NewRNG(p.Seed ^ 0x8ebc6af09c88c6e3)
		cfg := sys.InitialConfig(InitRandomM, rng)
		exact := sys.NewEngine(cfg.Clone())
		s := sim.New(sys.Peers, sys.WL, cfg, sim.Options{
			Alpha: p.Alpha, Theta: p.Theta, Epsilon: p.Epsilon,
			MaxRounds: p.MaxRounds, Strategy: sim.Selfish,
			ProbeClusters: k, ProbeSeed: p.Seed,
		})
		before := s.Messages()
		s.QueryPhase()
		observationMsgs := int(s.Messages() - before)

		// Estimation error over every (peer, non-empty cluster) pair.
		var errSum float64
		n := 0
		for pid := 0; pid < p.Peers; pid++ {
			for _, c := range exact.Config().NonEmpty() {
				errSum += math.Abs(s.EstimatedPeerCost(pid, c) - exact.PeerCost(pid, c))
				n++
			}
		}

		rpt := s.RunPeriod()
		// Judge the reached configuration with exact costs.
		final := sys.NewEngine(s.Config().Clone())
		label := metrics.I(k)
		if k == 0 {
			label = "all"
		}
		return []string{label,
			metrics.I(observationMsgs),
			metrics.F(errSum/float64(n), 4),
			metrics.F(final.SCostNormalized(), 3),
			metrics.I(boolToInt(rpt.Converged))}
	}) {
		t.AddRow(r...)
	}
	return t
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// RunMultiClusterAnalysis evaluates the unrestricted game of Eq. 1
// (strategies s ⊆ C): after the selfish protocol converges under
// single-cluster strategies, how much would each peer gain by joining
// several clusters? The table reports, per strategy size k, the mean
// individual cost of greedy k-cluster strategies — the diminishing
// return that justifies the paper's single-cluster restriction.
func RunMultiClusterAnalysis(p Params, maxK int) *metrics.Table {
	if maxK <= 0 {
		maxK = 4
	}
	t := metrics.NewTable("Extension: multi-cluster strategies (Eq. 1, greedy, after selfish convergence)",
		"clusters-joined", "mean-pcost", "mean-gain-vs-single", "peers-improved")
	sys := Build(p, SameCategory)
	rng := stats.NewRNG(p.Seed ^ 0x589965cc75374cc3)
	cfg := sys.InitialConfig(InitSingletons, rng)
	eng := sys.NewEngine(cfg)
	sys.NewRunner(eng, core.NewSelfish(), true).Run()

	sums := make([]float64, maxK)
	improved := make([]int, maxK)
	var singleSum float64
	for pid := 0; pid < p.Peers; pid++ {
		me := eng.BestMultiStrategy(pid, maxK)
		singleSum += me.SingleCost
		for k := 0; k < maxK; k++ {
			cost := me.Trajectory[minInt(k, len(me.Trajectory)-1)]
			sums[k] += cost
			if k < len(me.Trajectory) && cost < me.SingleCost-1e-12 {
				improved[k]++
			}
		}
	}
	n := float64(p.Peers)
	for k := 0; k < maxK; k++ {
		t.AddRow(metrics.I(k+1),
			metrics.F(sums[k]/n, 4),
			metrics.F(singleSum/n-sums[k]/n, 4),
			metrics.I(improved[k]))
	}
	return t
}
