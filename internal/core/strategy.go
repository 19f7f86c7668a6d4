package core

import (
	"math"

	"repro/internal/cluster"
)

// Decision is the outcome of a peer evaluating its relocation options
// at the end of a period T (§3.1).
type Decision struct {
	// Peer is the deciding peer.
	Peer int
	// From is the peer's current cluster.
	From cluster.CID
	// To is the chosen target; meaningful only when Move is true. When
	// NewCluster is set, To is filled in by the protocol with an empty
	// slot at grant time.
	To cluster.CID
	// Gain is the strategy-specific gain value the representatives sort
	// relocation requests by: pgain for selfish peers, clgain for
	// altruistic ones.
	Gain float64
	// Move reports whether the peer wants to relocate at all.
	Move bool
	// NewCluster reports that the peer wants to found a new (empty)
	// cluster rather than join an existing one.
	NewCluster bool
}

// Strategy decides peer relocations through the caller's Evaluator.
// baseline is the peer's individual cost recorded at the start of the
// current period (NaN disables the drift-triggered new-cluster rule);
// allowNew gates new-cluster creation (§3.2 — some experiments keep
// the number of clusters fixed). Decide must have no side effects, so
// workers holding private evaluators may call it concurrently over a
// frozen engine — the basis of the protocol's parallel phase-1 scan.
type Strategy interface {
	Name() string
	Decide(ev *Evaluator, p int, baseline float64, allowNew bool) Decision
}

// Selfish implements §3.1.1: the peer moves to the cluster minimizing
// its own individual cost; the request gain is
// pgain = pcost(p, c_cur) − pcost(p, c_new).
type Selfish struct {
	// DriftThreshold is how much a peer's cost must have risen since
	// the period baseline before it founds a new cluster when no
	// existing cluster improves its cost (§3.2). The paper calls this
	// "significantly increased"; 0.1 (10% of the cost scale) is our
	// default.
	DriftThreshold float64
}

// NewSelfish returns the selfish strategy with the default drift
// threshold.
func NewSelfish() *Selfish { return &Selfish{DriftThreshold: 0.1} }

// Name implements Strategy.
func (s *Selfish) Name() string { return "selfish" }

// Decide implements Strategy.
func (s *Selfish) Decide(evl *Evaluator, p int, baseline float64, allowNew bool) Decision {
	ev := evl.EvaluateMoves(p)
	d := Decision{Peer: p, From: ev.Cur}
	switch {
	case ev.Best != ev.Cur && ev.BestCost < ev.CurCost:
		d.To = ev.Best
		d.Gain = ev.CurCost - ev.BestCost
		d.Move = true
	// No existing cluster improves the cost. Found a new cluster only
	// if cost drifted up significantly since the period baseline and
	// being alone actually helps (§3.2).
	case allowNew && !math.IsNaN(baseline) &&
		ev.CurCost-baseline > s.DriftThreshold &&
		ev.AloneCost < ev.CurCost && evl.e.cfg.Size(ev.Cur) > 1:
		d.Gain = ev.CurCost - ev.AloneCost
		d.Move = true
		d.NewCluster = true
		d.To = cluster.None
	}
	return d
}

// Altruistic implements §3.1.2: the peer moves to the cluster whose
// recall its presence would improve the most, i.e. the cluster it
// contributes the most results to (Eq. 6). The request gain is
// clgain = contribution(p, c_new) − contribution(p, c_cur) −
// ΔmembershipCost(c_new). Positive means the move helps: the recall the
// peer adds to c_new exceeds what it takes from c_cur plus the
// participation cost it charges c_new's members. The strategy asks to
// move only when clgain > 0 (the protocol also requires it to exceed
// ε), and representatives serve requests in decreasing clgain.
type Altruistic struct{}

// NewAltruistic returns the altruistic strategy.
func NewAltruistic() *Altruistic { return &Altruistic{} }

// Name implements Strategy.
func (a *Altruistic) Name() string { return "altruistic" }

// Decide implements Strategy.
func (a *Altruistic) Decide(evl *Evaluator, p int, _ float64, _ bool) Decision {
	ev := evl.EvaluateContribution(p)
	d := Decision{Peer: p, From: ev.Cur}
	if ev.Best != ev.Cur {
		gain := ev.BestContribution - ev.CurContribution - evl.e.DeltaMembership(ev.Best)
		if gain > 0 {
			d.To = ev.Best
			d.Gain = gain
			d.Move = true
		}
	}
	return d
}

// Hybrid is the strategy the paper sketches as future work (§6): a
// convex combination of the selfish pgain and the altruistic clgain.
// Lambda = 1 degenerates to selfish, Lambda = 0 to altruistic.
type Hybrid struct {
	// Lambda weighs the selfish component.
	Lambda float64
	// DriftThreshold mirrors Selfish.DriftThreshold for the selfish
	// component's new-cluster rule.
	DriftThreshold float64
}

// NewHybrid returns a hybrid strategy with the given selfish weight.
func NewHybrid(lambda float64) *Hybrid {
	if lambda < 0 || lambda > 1 {
		panic("core: hybrid lambda outside [0,1]")
	}
	return &Hybrid{Lambda: lambda, DriftThreshold: 0.1}
}

// Name implements Strategy.
func (h *Hybrid) Name() string { return "hybrid" }

// Decide implements Strategy. It scores every non-empty cluster by
// λ·pgain + (1−λ)·clgain and requests the best positive-score move.
func (h *Hybrid) Decide(evl *Evaluator, p int, _ float64, _ bool) Decision {
	e := evl.e
	cur := e.cfg.ClusterOf(p)
	curCost := evl.PeerCost(p, cur)
	curContrib := e.Contribution(p, cur)
	d := Decision{Peer: p, From: cur}
	bestScore := 0.0
	bestC := cur
	// The private non-empty list stays valid through the loop: PeerCost
	// and Contribution do not refresh it and the configuration does not
	// change during evaluation.
	for _, c := range evl.NonEmpty() {
		if c == cur {
			continue
		}
		pg := curCost - evl.PeerCost(p, c)
		cg := e.Contribution(p, c) - curContrib - e.DeltaMembership(c)
		score := h.Lambda*pg + (1-h.Lambda)*cg
		if score > bestScore || (score == bestScore && bestC != cur && c < bestC) {
			bestScore, bestC = score, c
		}
	}
	if bestC != cur && bestScore > 0 {
		d.To = bestC
		d.Gain = bestScore
		d.Move = true
	}
	return d
}
