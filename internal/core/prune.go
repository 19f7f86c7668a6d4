package core

import (
	"math"

	"repro/internal/cluster"
)

// This file makes the phase-1 Decide scan sublinear in practice while
// staying byte-identical to the exhaustive path. Three cooperating
// mechanisms, all engine-side so every Evaluator shares them:
//
//  1. Dirty-tracking. A global monotone aggClock stamps every
//     aggregate mutation; aggVersion[c] records the last clock at
//     which cluster c's cost-relevant aggregates (size, its cells'
//     res, demand and demandW) changed, and rowVersion[q] records the
//     last clock at which anything in query q's row changed (its
//     cells, totals/invTot, demandTot). Move, AddPeer and RemovePeer bump exactly the
//     clusters and rows they touch — including answerability flips,
//     which ride the mover's result rows — in time proportional to
//     the mover's footprint. Mutations that rewrite state wholesale
//     (Rebuild, Compact's query remap, SetAlpha) bump
//     pruneEpoch instead, invalidating every cache at once.
//
//  2. Per-peer top-k candidate shortlists with an admissible outside
//     bound. A full scan records, per peer, the k clusters with the
//     highest recall overlap acc[c] = Σ_q w·res[q][c]/totals[q]
//     (for the selfish cost) and the k with the highest raw
//     contribution numerator (for the altruistic measure), plus the
//     maximum value over all clusters left outside the shortlist.
//     While the peer's rows are clean those accumulators cannot have
//     changed, so a later evaluation probes only the shortlist
//     exactly and skips the full scan when even the most optimistic
//     outside cluster — minimum membership cost (θ monotone, so
//     θ(minSize+1) bounds every join term from below) and the
//     recorded maximum overlap — provably loses. The skip condition
//     is strict: a tie falls back to the full scan, preserving the
//     exhaustive path's lowest-CID tie-breaks bit for bit.
//
//  3. Decision replay. Each DecideEval caches its Decision together
//     with everything it depended on (strategy identity and
//     parameters, baseline bits, live peer count, current cluster,
//     the clock). While nothing relevant changed the cached decision
//     is replayed outright — the common case for the convergence
//     rounds of a quiescent system, where aggClock equality proves
//     the whole engine untouched.
//
// All cached state is engine-owned (per peer slot), fixed-size and
// allocation-free; concurrent evaluators only read it for peers they
// were assigned, and the protocol's phase-1 fan-out assigns disjoint
// clusters, so the frozen-engine concurrent-read contract is
// preserved. Pruning is off by default (Engine.Eval and plain
// NewEvaluator instances stay exhaustive); the protocol Runner turns
// it on unless Options.ExactDecide. Callers that run evaluators
// concurrently, pruned or not, must call Engine.PrepareDecide after
// the last mutation and before the scan, exactly like the Runner does.

// pruneK is the shortlist length k. Large enough that the true best
// cluster is almost always on the list, small enough that a probe
// costs k·|Wl(p)| instead of C·|Wl(p)|.
const pruneK = 12

// decision-cache kinds: the replay validity rules differ per strategy.
const (
	decNone uint8 = iota
	decSelfish
	decAltruistic
	decHybrid
)

// decCache is one peer's cached Decision plus everything its replay
// validity depends on.
type decCache struct {
	valid    bool
	kind     uint8
	allowNew bool
	strat    Strategy
	param    float64 // DriftThreshold (selfish) or Lambda (hybrid)
	baseline uint64  // math.Float64bits of the period baseline
	epoch    uint64
	gen      uint32
	clock    uint64 // aggClock at decision time
	live     int
	cur      cluster.CID
	best     cluster.CID // evaluation's best candidate (may differ from d.To on no-move)
	bestVal  float64     // candidate best cost/contribution at decision
	aux      float64     // altruistic: outside-bound contribution at decision
	d        Decision
}

// peerPrune is the engine-owned per-peer pruning state: the two
// shortlists (selfish overlap, altruistic contribution) with their
// validity clocks, and the cached decision.
type peerPrune struct {
	// Selfish shortlist state: valid while every row of the peer's
	// workload is unchanged since accClock and the peer's recall
	// weights (peerW/peerOwnW) are bit-identical — the latter catches
	// answerability flips that removed a workload entry entirely.
	accEpoch  uint64
	accGen    uint32
	accClock  uint64
	nAcc      uint8
	accShort  [pruneK]cluster.CID
	outAcc    float64 // max acc over clusters outside accShort (>= 0)
	peerWBits uint64
	ownWBits  uint64

	// Altruistic shortlist state: valid while every row of the peer's
	// result list is unchanged since demClock.
	demEpoch uint64
	demGen   uint32
	demClock uint64
	nDem     uint8
	demShort [pruneK]cluster.CID
	outDem   float64 // max raw contribution numerator outside demShort

	dec decCache
}

// ScanStats counts phase-1 evaluation outcomes per Evaluator. Every
// DecideEval (or direct shortlist-capable scan) increments Evaluated
// plus exactly one outcome counter.
type ScanStats struct {
	// Evaluated is the number of peer evaluations.
	Evaluated int
	// Replayed counts evaluations answered by the cached decision
	// (skipped clean — no scan of any kind ran).
	Replayed int
	// Shortlist counts evaluations resolved by probing the top-k
	// candidate shortlist with the outside bound holding.
	Shortlist int
	// Fallback counts shortlist probes whose outside bound could not
	// exclude a better cluster, forcing the full scan.
	Fallback int
	// Full counts evaluations that ran the exhaustive scan directly
	// (cold or invalidated cache, or pruning disabled).
	Full int
}

// Add accumulates o into s.
func (s *ScanStats) Add(o ScanStats) {
	s.Evaluated += o.Evaluated
	s.Replayed += o.Replayed
	s.Shortlist += o.Shortlist
	s.Fallback += o.Fallback
	s.Full += o.Full
}

// initPruneState (re)sizes the version arrays and per-peer cache after
// a Rebuild and invalidates every cache via the epoch. Stale version
// values are harmless: clocks never reset, so a stale entry is always
// <= aggClock and the epoch bump forces the one full rescan that
// re-stamps it.
func (e *Engine) initPruneState() {
	e.aggVersion = growMarks(e.aggVersion, e.cmax)
	e.rowVersion = growMarks(e.rowVersion, e.nq)
	if cap(e.prune) < e.n {
		e.prune = make([]peerPrune, e.n)
	} else {
		e.prune = e.prune[:e.n]
	}
	e.pruneEpoch++
}

// bumpAll invalidates every pruning cache (wholesale rewrites:
// SetAlpha, Compact's query remap).
func (e *Engine) bumpAll() { e.pruneEpoch++ }

// PrepareDecide refreshes the per-membership-version state concurrent
// scans read: the ascending non-empty cluster list every full scan
// walks, and the minimum non-empty cluster size backing the
// shortlist's admissible outside bound. Whoever fans evaluators —
// pruned or not — over goroutines calls it after the last mutation and
// before the scan (the protocol Runner does); serial callers may rely
// on the lazy refresh inside the evaluation paths instead.
func (e *Engine) PrepareDecide() { e.syncClusters() }

// probe outcomes.
type probeStatus uint8

const (
	probeHit probeStatus = iota
	probeFallback
	probeInvalid
)

// probeAcc recomputes acc[c] = Σ_q w·res[q][c]/totals[q] for one
// cluster, term by term in workload order — the identical
// floating-point operation sequence the exhaustive scan accumulates,
// so the probed value is bit-identical to the scanned one.
func (e *Engine) probeAcc(p int, c cluster.CID) float64 {
	var a float64
	for _, en := range e.peerWl[p] {
		if v := e.cellAt(en.qid, c).res; v != 0 {
			a += en.wInvT * v
		}
	}
	return a
}

// probeNum recomputes the raw contribution numerator for one cluster,
// mirroring evaluateContribution's accumulation order exactly.
func (e *Engine) probeNum(p int, c cluster.CID) float64 {
	var num float64
	for _, re := range e.peerRes[p] {
		if v := e.cellAt(re.qid, c).demand; v != 0 {
			num += v * re.res
		}
	}
	return num
}

// accStateValid reports whether p's selfish shortlist state still
// describes the engine: same epoch and slot generation, recall
// weights bit-identical (catches workload entries dropped by
// answerability flips), and no row of p's current workload stamped
// after the recording scan.
func (e *Engine) accStateValid(p int, ps *peerPrune) bool {
	if ps.accEpoch != e.pruneEpoch || ps.accGen != e.SlotGeneration(p) ||
		math.Float64bits(e.peerW[p]) != ps.peerWBits ||
		math.Float64bits(e.peerOwnW[p]) != ps.ownWBits {
		return false
	}
	for i := range e.peerWl[p] {
		if e.rowVersion[e.peerWl[p][i].qid] > ps.accClock {
			return false
		}
	}
	return true
}

// demStateValid is accStateValid for the altruistic shortlist: the
// contribution measure depends only on the rows of p's result list.
func (e *Engine) demStateValid(p int, ps *peerPrune) bool {
	if ps.demEpoch != e.pruneEpoch || ps.demGen != e.SlotGeneration(p) {
		return false
	}
	for i := range e.peerRes[p] {
		if e.rowVersion[e.peerRes[p][i].qid] > ps.demClock {
			return false
		}
	}
	return true
}

// probeMoves answers EvaluateMoves from the shortlist alone: the
// candidate costs are recomputed exactly (current sizes and live
// count, so relocations elsewhere do not invalidate the probe) and
// the full scan is skipped only when the admissible outside bound —
// the cheapest conceivable membership term plus the largest recorded
// outside overlap — strictly exceeds the candidate best. Ties fall
// back, preserving the exhaustive tie-breaks.
func (e *Engine) probeMoves(p int, ps *peerPrune) (MoveEval, probeStatus) {
	if !e.accStateValid(p, ps) {
		return MoveEval{}, probeInvalid
	}
	e.syncClusters()
	cur := e.cfg.ClusterOf(p)
	w := e.peerW[p]
	ownAcc := e.peerOwnW[p]
	me := MoveEval{Cur: cur}
	me.CurCost = e.membership(e.cfg.Size(cur)) + w - e.probeAcc(p, cur)
	me.AloneCost = e.membership(1) + w - ownAcc
	me.Best, me.BestCost = cur, me.CurCost
	for _, c := range ps.accShort[:ps.nAcc] {
		if c == cur || e.cfg.Size(c) == 0 {
			continue
		}
		cost := e.membership(e.cfg.Size(c)+1) + w - e.probeAcc(p, c) - ownAcc
		if cost < me.BestCost || (cost == me.BestCost && me.Best != cur && c < me.Best) {
			me.Best, me.BestCost = c, cost
		}
	}
	// Every non-empty cluster outside the shortlist (including ones
	// that were empty at scan time: their overlap is 0 <= outAcc) has
	// acc <= outAcc and size >= minSize, so its cost — evaluated with
	// the same expression shape, which floating-point monotonicity
	// then bounds below — is at least this bound.
	bound := e.membership(e.minSize+1) + w - ps.outAcc - ownAcc
	if !(bound > me.BestCost) {
		return MoveEval{}, probeFallback
	}
	return me, probeHit
}

// probeContribution is probeMoves for the altruistic measure. The
// comparison stays in normalized contribution space (num/den), where
// division by the common positive denominator is monotone, so
// outDem/den bounds every outside cluster's contribution from above.
func (e *Engine) probeContribution(p int, ps *peerPrune, aux *float64) (ContributionEval, probeStatus) {
	if !e.demStateValid(p, ps) {
		return ContributionEval{}, probeInvalid
	}
	cur := e.cfg.ClusterOf(p)
	var den float64
	for _, re := range e.peerRes[p] {
		den += e.demandTot[re.qid] * re.res
	}
	evc := ContributionEval{Cur: cur}
	if den == 0 {
		evc.Best = cur
		*aux = math.Inf(-1)
		return evc, probeHit
	}
	evc.CurContribution = e.probeNum(p, cur) / den
	evc.Best, evc.BestContribution = cur, evc.CurContribution
	for _, c := range ps.demShort[:ps.nDem] {
		if c == cur || e.cfg.Size(c) == 0 {
			continue
		}
		v := e.probeNum(p, c) / den
		if v > evc.BestContribution || (v == evc.BestContribution && evc.Best != cur && c < evc.Best) {
			evc.Best, evc.BestContribution = c, v
		}
	}
	out := ps.outDem / den
	if !(out < evc.BestContribution) {
		return ContributionEval{}, probeFallback
	}
	*aux = out
	return evc, probeHit
}

// shortlist is the scratch top-k accumulator a recording full scan
// fills: entries ordered by descending value, out tracking the
// maximum value that did not make the list.
type shortlist struct {
	n   int
	c   [pruneK]cluster.CID
	v   [pruneK]float64
	out float64
}

// add offers (c, v) to the shortlist; zero and negative overlaps stay
// off the list (the outside bound already covers them: out >= 0).
func (s *shortlist) add(c cluster.CID, v float64) {
	if v <= 0 {
		return
	}
	if s.n == pruneK {
		if v <= s.v[pruneK-1] {
			if v > s.out {
				s.out = v
			}
			return
		}
		if s.v[pruneK-1] > s.out {
			s.out = s.v[pruneK-1]
		}
	} else {
		s.n++
	}
	i := s.n - 1
	for i > 0 && s.v[i-1] < v {
		s.v[i] = s.v[i-1]
		s.c[i] = s.c[i-1]
		i--
	}
	s.v[i], s.c[i] = v, c
}

// scanMovesRecord is the exhaustive EvaluateMoves scan — the same
// accumulation order, comparator and expression shapes as
// Engine.evaluateMoves, kept in lockstep by the pruned-vs-exact
// property suite — extended to record p's selfish shortlist state.
func (e *Engine) scanMovesRecord(p int, acc []float64, ps *peerPrune) MoveEval {
	cur := e.cfg.ClusterOf(p)
	nonEmpty := e.nonEmptyClusters()
	joinTerm := e.joinTerm // parallel to nonEmpty; read after the sync
	e.addOverlap(p, acc)
	w := e.peerW[p]
	ownAcc := e.peerOwnW[p]

	me := MoveEval{Cur: cur}
	me.CurCost = e.membership(e.cfg.Size(cur)) + w - acc[cur]
	me.AloneCost = e.membership(1) + w - ownAcc
	me.Best, me.BestCost = cur, me.CurCost
	for i, c := range nonEmpty {
		if c == cur {
			continue
		}
		cost := joinTerm[i] + w - acc[c] - ownAcc
		if cost < me.BestCost || (cost == me.BestCost && me.Best != cur && c < me.Best) {
			me.Best, me.BestCost = c, cost
		}
	}

	var sl shortlist
	for _, c := range nonEmpty {
		if v := acc[c]; v > 0 { // most clusters overlap nothing; skip the call
			sl.add(c, v)
		}
	}
	ps.accEpoch = e.pruneEpoch
	ps.accGen = e.SlotGeneration(p)
	ps.accClock = e.aggClock
	ps.nAcc = uint8(sl.n)
	ps.accShort = sl.c
	ps.outAcc = sl.out
	ps.peerWBits = math.Float64bits(w)
	ps.ownWBits = math.Float64bits(ownAcc)

	for _, c := range nonEmpty {
		acc[c] = 0
	}
	return me
}

// scanContributionRecord mirrors Engine.evaluateContribution with
// altruistic shortlist recording; aux receives the outside bound in
// contribution space for the decision cache.
func (e *Engine) scanContributionRecord(p int, nonEmpty []cluster.CID, num []float64, ps *peerPrune, aux *float64) ContributionEval {
	cur := e.cfg.ClusterOf(p)
	den := e.addSupplied(p, num)
	ev := ContributionEval{Cur: cur}
	record := func() {
		var sl shortlist
		for _, c := range nonEmpty {
			sl.add(c, num[c])
		}
		ps.demEpoch = e.pruneEpoch
		ps.demGen = e.SlotGeneration(p)
		ps.demClock = e.aggClock
		ps.nDem = uint8(sl.n)
		ps.demShort = sl.c
		ps.outDem = sl.out
	}
	if den == 0 {
		ev.Best = cur
		record()
		*aux = math.Inf(-1)
		for _, c := range nonEmpty {
			num[c] = 0
		}
		return ev
	}
	ev.CurContribution = num[cur] / den
	ev.Best, ev.BestContribution = cur, ev.CurContribution
	for _, c := range nonEmpty {
		v := num[c] / den
		if v > ev.BestContribution || (v == ev.BestContribution && ev.Best != cur && c < ev.Best) {
			ev.Best, ev.BestContribution = c, v
		}
	}
	record()
	*aux = ps.outDem / den
	for _, c := range nonEmpty {
		num[c] = 0
	}
	return ev
}

// replayDecision returns p's cached decision when it provably still
// holds. The cheap clock-equality fast path covers quiescent rounds
// (nothing anywhere changed); otherwise the kind-specific rules check
// exactly the state the decision depended on.
func (ev *Evaluator) replayDecision(s Strategy, kind uint8, param float64, p int, baseline float64, allowNew bool) (Decision, bool) {
	if !ev.pruned {
		return Decision{}, false
	}
	e := ev.e
	ps := &e.prune[p]
	dec := &ps.dec
	if !dec.valid || dec.kind != kind || dec.strat != s || dec.param != param ||
		dec.baseline != math.Float64bits(baseline) || dec.allowNew != allowNew ||
		dec.epoch != e.pruneEpoch || dec.gen != e.SlotGeneration(p) {
		return Decision{}, false
	}
	if dec.clock == e.aggClock {
		ev.stats.Evaluated++
		ev.stats.Replayed++
		return dec.d, true
	}
	if kind == decHybrid {
		// The hybrid score touches every cluster's size; anything
		// changed means re-deciding (still exhaustive beyond the
		// quiescent fast path above).
		return Decision{}, false
	}
	if e.cfg.ClusterOf(p) != dec.cur || e.cfg.Live() != dec.live {
		return Decision{}, false
	}
	switch kind {
	case decSelfish:
		if math.Float64bits(e.peerW[p]) != ps.peerWBits ||
			math.Float64bits(e.peerOwnW[p]) != ps.ownWBits {
			return Decision{}, false
		}
		for i := range e.peerWl[p] {
			if e.rowVersion[e.peerWl[p][i].qid] > dec.clock {
				return Decision{}, false
			}
		}
		// Candidate clusters (current shortlist, the current cluster,
		// the chosen target) must be size-stable; everything else is
		// excluded by the outside bound under the current minimum
		// cluster size.
		if e.aggVersion[dec.cur] > dec.clock {
			return Decision{}, false
		}
		for _, c := range ps.accShort[:ps.nAcc] {
			if e.aggVersion[c] > dec.clock {
				return Decision{}, false
			}
		}
		if dec.d.Move && !dec.d.NewCluster && e.aggVersion[dec.d.To] > dec.clock {
			return Decision{}, false
		}
		e.syncClusters()
		bound := e.membership(e.minSize+1) + e.peerW[p] - ps.outAcc - e.peerOwnW[p]
		if !(bound > dec.bestVal) {
			return Decision{}, false
		}
	case decAltruistic:
		for i := range e.peerRes[p] {
			if e.rowVersion[e.peerRes[p][i].qid] > dec.clock {
				return Decision{}, false
			}
		}
		// Contributions ignore cluster sizes, but the gain subtracts
		// ΔmembershipCost(best) — size-dependent even when the gain came
		// out non-positive and the cached decision is a no-move, so the
		// best candidate must be size-stable unconditionally.
		if dec.best != dec.cur && e.aggVersion[dec.best] > dec.clock {
			return Decision{}, false
		}
		if !(dec.aux < dec.bestVal) {
			return Decision{}, false
		}
	default:
		return Decision{}, false
	}
	ev.stats.Evaluated++
	ev.stats.Replayed++
	return dec.d, true
}

// rememberDecision caches d for replay. Called immediately after the
// evaluation that produced it, so the shortlist state is valid at
// store time — the invariant replayDecision's clock reasoning needs.
func (ev *Evaluator) rememberDecision(s Strategy, kind uint8, param float64, p int, baseline float64, allowNew bool, best cluster.CID, bestVal, aux float64, d Decision) {
	if !ev.pruned {
		return
	}
	e := ev.e
	ps := &e.prune[p]
	ps.dec = decCache{
		valid:    true,
		kind:     kind,
		allowNew: allowNew,
		strat:    s,
		param:    param,
		baseline: math.Float64bits(baseline),
		epoch:    e.pruneEpoch,
		gen:      e.SlotGeneration(p),
		clock:    e.aggClock,
		live:     e.cfg.Live(),
		cur:      e.cfg.ClusterOf(p),
		best:     best,
		bestVal:  bestVal,
		aux:      aux,
		d:        d,
	}
}
