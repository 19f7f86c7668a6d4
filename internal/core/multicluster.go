package core

import "repro/internal/cluster"

// This file analyzes the general form of the game, where a strategy is
// a set of clusters s ⊆ C (Eq. 1). The protocol and the paper's
// experiments restrict strategies to single clusters (§2.3); the
// multi-cluster analysis quantifies what that restriction costs each
// peer — one of the practical questions §6 leaves open.

// MultiEval is the outcome of a greedy multi-cluster strategy search.
type MultiEval struct {
	// Strategy is the chosen cluster set, in the order clusters were
	// added by the greedy search (most valuable first).
	Strategy []cluster.CID
	// Cost is pcost(p, Strategy) under Eq. 1.
	Cost float64
	// SingleCost is the best single-cluster cost, for comparison.
	SingleCost float64
	// Trajectory[i] is the cost of the first i+1 clusters; it shows
	// the diminishing return of each additional membership.
	Trajectory []float64
}

// Gain returns how much the multi-cluster strategy improves on the
// best single cluster.
func (m MultiEval) Gain() float64 { return m.SingleCost - m.Cost }

// BestMultiStrategy greedily grows peer p's cluster set: starting from
// the best single cluster, it keeps adding the non-member cluster that
// lowers pcost(p, s) the most, stopping when no addition helps or
// maxClusters is reached (maxClusters <= 0 means no bound, i.e. Cmax).
// Greedy is not optimal in general — the exact optimum is exponential
// in |C| — but the recall term is submodular in the cluster set, for
// which greedy carries the usual (1-1/e) guarantee on the recall gain.
func (e *Engine) BestMultiStrategy(p int, maxClusters int) MultiEval {
	if maxClusters <= 0 {
		maxClusters = e.cfg.Cmax()
	}
	ev := e.EvaluateMoves(p)
	out := MultiEval{SingleCost: ev.BestCost}

	chosen := []cluster.CID{ev.Best}
	cost := e.PeerCostMulti(p, chosen)
	out.Trajectory = append(out.Trajectory, cost)
	inSet := map[cluster.CID]bool{ev.Best: true}
	for len(chosen) < maxClusters {
		bestC := cluster.None
		bestCost := cost
		for _, c := range e.nonEmptyClusters() {
			if inSet[c] {
				continue
			}
			trial := e.PeerCostMulti(p, append(chosen[:len(chosen):len(chosen)], c))
			// Strict improvement; ascending iteration makes the lowest
			// cluster ID win ties deterministically.
			if trial < bestCost-1e-12 {
				bestC, bestCost = c, trial
			}
		}
		if bestC == cluster.None {
			break
		}
		chosen = append(chosen, bestC)
		inSet[bestC] = true
		cost = bestCost
		out.Trajectory = append(out.Trajectory, cost)
	}
	out.Strategy = chosen
	out.Cost = cost
	return out
}
