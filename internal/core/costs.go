package core

import (
	"repro/internal/cluster"
	"repro/internal/workload"
)

// SCost returns the social cost (Eq. 2): the sum of the individual
// costs of all peers under the current configuration. The value is
// maintained incrementally under Move/AddPeer/RemovePeer (membership,
// demand-weight and cluster-recall sums), so this is an O(1) read, not
// a rescan. |P| is the live peer count; an empty system costs 0.
func (e *Engine) SCost() float64 {
	if e.cfg.Live() == 0 {
		return 0
	}
	return e.alpha*e.membSumRaw/float64(e.cfg.Live()) + e.sumW - e.recallSum
}

// SCostNormalized returns SCost/|P| — the mean individual cost, the
// normalization under which the ideal scenario-1 configuration of the
// paper scores 0.1 (Table 1).
func (e *Engine) SCostNormalized() float64 {
	if e.cfg.Live() == 0 {
		return 0
	}
	return e.SCost() / float64(e.cfg.Live())
}

// SCostParts splits the social cost into its membership and recall
// components: SCost() == membership + recall. As the paper notes (§2.2)
// the membership part equals WCost's maintenance term — each cluster
// appears in the SCost sum once per member.
func (e *Engine) SCostParts() (membership, recall float64) {
	membership = e.wcostMaintenance()
	return membership, e.SCost() - membership
}

// WCostParts splits the workload cost into its maintenance and recall
// components: WCost() == maintenance + recall.
func (e *Engine) WCostParts() (maintenance, recall float64) {
	return e.wcostMaintenance(), e.wcostRecall()
}

// WCost returns the workload cost (Eq. 3): the cluster maintenance term
// α·Σ_c |c|·θ(|c|)/|P| plus the query-frequency-weighted recall lost
// outside the initiators' clusters. Both terms are O(1) reads off the
// incrementally maintained state.
func (e *Engine) WCost() float64 {
	return e.wcostMaintenance() + e.wcostRecall()
}

// WCostNormalized divides the maintenance term by |P| (the recall term
// is already a [0,1] frequency-weighted average), matching the
// normalized values reported in Table 1.
func (e *Engine) WCostNormalized() float64 {
	if e.cfg.Live() == 0 {
		return 0
	}
	return e.wcostMaintenance()/float64(e.cfg.Live()) + e.wcostRecall()
}

func (e *Engine) wcostMaintenance() float64 {
	if e.cfg.Live() == 0 {
		return 0
	}
	return e.alpha * e.membSumRaw / float64(e.cfg.Live())
}

func (e *Engine) wcostRecall() float64 {
	total := e.wl.Total()
	if total == 0 {
		return 0
	}
	return (e.ansDemand - e.wRecallSum) / float64(total)
}

// Contribution returns Eq. 6: the share of the results peer p supplies
// to queries originating in cluster c, relative to the results p
// supplies to the whole system's workload. It is 0 for peers whose
// content answers no query at all.
func (e *Engine) Contribution(p int, c cluster.CID) float64 {
	var num, den float64
	for _, re := range e.peerRes[p] {
		den += e.demandTot[re.qid] * re.res
		num += e.cellAt(re.qid, c).demand * re.res
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// ContributionEval is the altruistic counterpart of MoveEval.
type ContributionEval struct {
	// Cur is the peer's current cluster and CurContribution its Eq. 6
	// value there.
	Cur             cluster.CID
	CurContribution float64
	// Best is the non-empty cluster with maximum contribution
	// (possibly Cur) and BestContribution its value.
	Best             cluster.CID
	BestContribution float64
}

// consider scores cluster c at contribution v against the best so far,
// the mirror of MoveEval.consider: the higher value wins, and of equal
// values the current cluster keeps its place, else the lower ID wins.
func (ev *ContributionEval) consider(c cluster.CID, v float64) {
	if v > ev.BestContribution || (v == ev.BestContribution && ev.Best != ev.Cur && c < ev.Best) {
		ev.Best, ev.BestContribution = c, v
	}
}

// EvaluateContribution computes Eq. 6 against every non-empty cluster
// in one pass. Ties prefer the current cluster, then the lowest ID.
// Like EvaluateMoves it reuses the engine's dense scratch accumulator
// and allocates nothing at steady state.
func (e *Engine) EvaluateContribution(p int) ContributionEval {
	return e.evaluateContribution(p, e.nonEmptyClusters(), e.accScratch)
}

// addSupplied adds Eq. 6's numerators — the results p supplies to the
// demand of each cluster, Σ_q demand[q][c]·result(q,p) — into num[c],
// in result-list order and, within a row, ascending cluster order, and
// returns the denominator and how many cells the rows hold. Only
// clusters that hold demand gain a term, and those are non-empty.
func (e *Engine) addSupplied(p int, num []float64) (den float64, cells int) {
	for _, re := range e.peerRes[p] {
		den += e.demandTot[re.qid] * re.res
		row := e.rows[re.qid]
		cells += len(row)
		for i := range row {
			if v := row[i].demand; v != 0 {
				num[row[i].cid] += v * re.res
			}
		}
	}
	return den, cells
}

// evaluateContribution is EvaluateContribution over caller-owned
// scratch; see evaluateMoves. When p's rows hold fewer cells than there
// are non-empty clusters it scores only the clusters they name: any
// other scores 0, which never beats the current cluster's share (≥ 0).
// A numerator is non-zero only if den is, so neither walk divides by 0.
func (e *Engine) evaluateContribution(p int, nonEmpty []cluster.CID, num []float64) ContributionEval {
	cur := e.cfg.ClusterOf(p)
	den, cells := e.addSupplied(p, num)
	ev := ContributionEval{Cur: cur, Best: cur}
	if den != 0 {
		ev.CurContribution = num[cur] / den
		ev.BestContribution = ev.CurContribution
	}
	if cells < len(nonEmpty) {
		for _, re := range e.peerRes[p] {
			row := e.rows[re.qid]
			for i := range row {
				c := row[i].cid
				if v := num[c]; v != 0 {
					num[c] = 0
					ev.consider(c, v/den)
				}
			}
		}
		return ev
	}
	if den != 0 {
		for _, c := range nonEmpty {
			ev.consider(c, num[c]/den)
		}
	}
	for _, c := range nonEmpty {
		num[c] = 0
	}
	return ev
}

// DeltaMembership returns the increase in the membership cost of
// cluster c caused by one more peer joining, summed over its current
// members: α·|c|·(θ(|c|+1) − θ(|c|))/|P|. This is the cost the
// altruistic clgain charges a joiner (§3.1.2); its slope parallels the
// selfish membership term and is what stops altruistic accretion into
// one giant cluster (the weaker per-member marginal reading below lets
// the whole network collapse into a single cluster, SCost = 1).
func (e *Engine) DeltaMembership(c cluster.CID) float64 {
	s := e.cfg.Size(c)
	if s == 0 {
		return 0
	}
	return e.alpha * float64(s) * (e.theta.F(s+1) - e.theta.F(s)) / float64(e.cfg.Live())
}

// DeltaMembershipMarginal is the weaker reading of §3.1.2: only the
// growth of the per-member participation cost, α·(θ(|c|+1)−θ(|c|))/|P|.
// Exposed for the clgain ablation, which demonstrates why the total
// reading is the right model.
func (e *Engine) DeltaMembershipMarginal(c cluster.CID) float64 {
	s := e.cfg.Size(c)
	if s == 0 {
		return 0
	}
	return e.alpha * (e.theta.F(s+1) - e.theta.F(s)) / float64(e.cfg.Live())
}

// ClusterRecall returns R(q,c) = Σ_{p∈c} r(q,p): the fraction of all
// results for query qid held inside cluster c (the paper's "cluster
// recall" measure of §3.1). It returns 0 when the query has no results
// anywhere.
func (e *Engine) ClusterRecall(qid workload.QID, c cluster.CID) float64 {
	return e.cellAt(qid, c).res * e.invTot[qid]
}

// TotalResults returns Σ_p result(q,p) for qid.
func (e *Engine) TotalResults(qid workload.QID) float64 { return e.totals[qid] }
