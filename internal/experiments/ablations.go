package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// RunThetaAblation compares the cluster participation cost functions θ
// discussed in §2.1 (linear for fully connected clusters, logarithmic
// for structured overlays, plus sqrt and constant controls) on the
// same-category scenario from singletons. Cheaper membership growth
// supports larger clusters at equilibrium. One independent cell per θ.
func RunThetaAblation(p Params) *metrics.Table {
	t := metrics.NewTable("Ablation: theta function (same-category scenario, singleton init, selfish)",
		"theta", "rounds", "converged", "#clusters", "mean-size", "SCost", "WCost")
	thetas := []cluster.Theta{
		cluster.LinearTheta(), cluster.LogTheta(), cluster.SqrtTheta(), cluster.ConstTheta(),
	}
	for _, row := range p.runRows(len(thetas), func(i int) []string {
		th := thetas[i]
		pp := p
		pp.Theta = th
		sys := Build(pp, SameCategory)
		rng := stats.NewRNG(pp.Seed ^ 0x7f4a7c15)
		cfg := sys.InitialConfig(InitSingletons, rng)
		eng := sys.NewEngine(cfg)
		rpt := sys.NewRunner(eng, core.NewSelfish(), true).Run()
		sizes := eng.Config().Sizes()
		mean := 0.0
		for _, s := range sizes {
			mean += float64(s)
		}
		if len(sizes) > 0 {
			mean /= float64(len(sizes))
		}
		return []string{th.Name, metrics.I(rpt.EffectiveRounds()), fmt.Sprint(rpt.Converged),
			metrics.I(rpt.FinalClusters), metrics.F(mean, 1),
			metrics.F(rpt.FinalSCost, 3), metrics.F(rpt.FinalWCost, 3)}
	}) {
		t.AddRow(row...)
	}
	return t
}

// RunEpsilonAblation sweeps the protocol's stop threshold ε: larger
// thresholds terminate earlier at the price of residual cost. One
// independent cell per ε.
func RunEpsilonAblation(p Params) *metrics.Table {
	t := metrics.NewTable("Ablation: stop threshold epsilon (same-category scenario, random m=M init, selfish)",
		"epsilon", "rounds", "converged", "#clusters", "SCost", "messages")
	epsilons := []float64{0.0001, 0.001, 0.01, 0.05, 0.1}
	for _, row := range p.runRows(len(epsilons), func(i int) []string {
		eps := epsilons[i]
		pp := p
		pp.Epsilon = eps
		sys := Build(pp, SameCategory)
		rng := stats.NewRNG(pp.Seed ^ 0x2545f491)
		cfg := sys.InitialConfig(InitRandomM, rng)
		eng := sys.NewEngine(cfg)
		rpt := sys.NewRunner(eng, core.NewSelfish(), true).Run()
		return []string{metrics.F(eps, 4), metrics.I(rpt.EffectiveRounds()), fmt.Sprint(rpt.Converged),
			metrics.I(rpt.FinalClusters), metrics.F(rpt.FinalSCost, 3), metrics.I(rpt.Messages)}
	}) {
		t.AddRow(row...)
	}
	return t
}

// RunHybridComparison sweeps the λ mix of the hybrid strategy the paper
// lists as future work (§6): λ = 1 is pure selfish, λ = 0 pure
// altruistic. Cells share one warmed System per scenario.
func RunHybridComparison(p Params) *metrics.Table {
	t := metrics.NewTable("Extension: hybrid strategy lambda sweep (singleton init)",
		"scenario", "lambda", "rounds", "converged", "#clusters", "SCost")
	scenarios := []Scenario{SameCategory, DifferentCategory}
	lambdas := []float64{0, 0.25, 0.5, 0.75, 1}
	systems := buildSystems(p, scenarios, p.workerCount())
	for _, row := range p.runRows(len(scenarios)*len(lambdas), func(i int) []string {
		sc := scenarios[i/len(lambdas)]
		lambda := lambdas[i%len(lambdas)]
		sys := systems[i/len(lambdas)]
		rng := stats.NewRNG(p.Seed ^ 0x85ebca6b)
		cfg := sys.InitialConfig(InitSingletons, rng)
		eng := sys.NewEngine(cfg)
		rpt := sys.NewRunner(eng, core.NewHybrid(lambda), true).Run()
		return []string{sc.String(), metrics.F(lambda, 2), metrics.I(rpt.EffectiveRounds()),
			fmt.Sprint(rpt.Converged), metrics.I(rpt.FinalClusters), metrics.F(rpt.FinalSCost, 3)}
	}) {
		t.AddRow(row...)
	}
	return t
}

// RunPairedDemandAblation contrasts the different-category scenario
// with and without reciprocal interests. With paired demand the
// selfish game settles into many small clusters (the paper's Table 1
// shape); without it the demand graph is an open chain and selfish
// reformulation churns in a few giant clusters without converging —
// consistent with the non-convergence results of Moscibroda et al.
// that the paper cites.
func RunPairedDemandAblation(p Params) *metrics.Table {
	t := metrics.NewTable("Ablation: paired vs chain demand (different-category scenario, singleton init, selfish)",
		"demand", "rounds", "converged", "#clusters", "SCost", "WCost")
	variants := []bool{true, false}
	for _, row := range p.runRows(len(variants), func(i int) []string {
		paired := variants[i]
		pp := p
		pp.PairedDemand = paired
		sys := Build(pp, DifferentCategory)
		rng := stats.NewRNG(pp.Seed ^ 0xc2b2ae35)
		cfg := sys.InitialConfig(InitSingletons, rng)
		eng := sys.NewEngine(cfg)
		rpt := sys.NewRunner(eng, core.NewSelfish(), true).Run()
		name := "paired (reciprocal)"
		if !paired {
			name = "chain (open)"
		}
		return []string{name, metrics.I(rpt.EffectiveRounds()), fmt.Sprint(rpt.Converged),
			metrics.I(rpt.FinalClusters), metrics.F(rpt.FinalSCost, 3), metrics.F(rpt.FinalWCost, 3)}
	}) {
		t.AddRow(row...)
	}
	return t
}

// clgainMarginal is an Altruistic variant using the weaker
// DeltaMembershipMarginal reading of §3.1.2, for the clgain ablation.
type clgainMarginal struct{}

func (clgainMarginal) Name() string { return "altruistic-marginal" }

func (clgainMarginal) Decide(evl *core.Evaluator, p int, _ float64, _ bool) core.Decision {
	ev := evl.EvaluateContribution(p)
	d := core.Decision{Peer: p, From: ev.Cur}
	if ev.Best == ev.Cur {
		return d
	}
	gain := ev.BestContribution - ev.CurContribution - evl.Engine().DeltaMembershipMarginal(ev.Best)
	if gain <= 0 {
		return d
	}
	d.To = ev.Best
	d.Gain = gain
	d.Move = true
	return d
}

// RunClgainAblation contrasts the two readings of the altruistic
// clgain's membership charge (§3.1.2 is ambiguous): charging the
// joiner for the total membership-cost increase of the target cluster
// versus only the marginal per-member increase. The marginal reading
// lets the whole network collapse into one cluster. Cells share one
// warmed System per scenario.
func RunClgainAblation(p Params) *metrics.Table {
	t := metrics.NewTable("Ablation: altruistic clgain membership charge (singleton init)",
		"scenario", "charge", "rounds", "converged", "#clusters", "SCost")
	scenarios := []Scenario{SameCategory, DifferentCategory}
	strategies := []func() core.Strategy{
		func() core.Strategy { return core.NewAltruistic() },
		func() core.Strategy { return clgainMarginal{} },
	}
	systems := buildSystems(p, scenarios, p.workerCount())
	for _, row := range p.runRows(len(scenarios)*len(strategies), func(i int) []string {
		sc := scenarios[i/len(strategies)]
		strat := strategies[i%len(strategies)]()
		sys := systems[i/len(strategies)]
		rng := stats.NewRNG(p.Seed ^ 0x27d4eb2f)
		cfg := sys.InitialConfig(InitSingletons, rng)
		eng := sys.NewEngine(cfg)
		rpt := sys.NewRunner(eng, strat, true).Run()
		charge := "total"
		if strat.Name() == "altruistic-marginal" {
			charge = "marginal"
		}
		return []string{sc.String(), charge, metrics.I(rpt.EffectiveRounds()),
			fmt.Sprint(rpt.Converged), metrics.I(rpt.FinalClusters), metrics.F(rpt.FinalSCost, 3)}
	}) {
		t.AddRow(row...)
	}
	return t
}

// RunSharedVocabAblation sweeps the fraction of topic-neutral shared
// vocabulary in documents. Shared words put query results in every
// cluster, so even the ideal category clustering retains residual
// recall cost — quantifying how clean the paper's "zero recall cost"
// scenario 1 really needs the data to be. One independent cell per
// fraction (the corpus itself changes).
func RunSharedVocabAblation(p Params) *metrics.Table {
	t := metrics.NewTable("Ablation: shared vocabulary fraction (same-category scenario, singleton init, selfish)",
		"shared-fraction", "rounds", "converged", "#clusters", "SCost", "WCost")
	fracs := []float64{0, 0.05, 0.1, 0.2, 0.3}
	for _, row := range p.runRows(len(fracs), func(i int) []string {
		frac := fracs[i]
		pp := p
		pp.Corpus.SharedFraction = frac
		sys := Build(pp, SameCategory)
		rng := stats.NewRNG(pp.Seed ^ 0x165667b1)
		cfg := sys.InitialConfig(InitSingletons, rng)
		eng := sys.NewEngine(cfg)
		rpt := sys.NewRunner(eng, core.NewSelfish(), true).Run()
		return []string{metrics.F(frac, 2), metrics.I(rpt.EffectiveRounds()), fmt.Sprint(rpt.Converged),
			metrics.I(rpt.FinalClusters), metrics.F(rpt.FinalSCost, 3), metrics.F(rpt.FinalWCost, 3)}
	}) {
		t.AddRow(row...)
	}
	return t
}
