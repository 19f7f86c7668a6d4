package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
)

// denseCosts is the dense walk behind both decide scans: p's rows added
// into accumulators indexed by cluster slot, then p's Eq. 1 cost and
// its contribution (0 when it answers nobody's demand) in every slot.
// They are what PeerCost and Contribution answer.
func denseCosts(e *Engine, p int) (cost, contrib []float64) {
	cost, contrib = make([]float64, e.cmax), make([]float64, e.cmax)
	for _, en := range e.peerWl[p] {
		row := e.rows[en.qid]
		for i := range row {
			if v := row[i].res; v != 0 {
				cost[row[i].cid] += en.wInvT * v
			}
		}
	}
	var den float64
	for _, re := range e.peerRes[p] {
		den += e.demandTot[re.qid] * re.res
		row := e.rows[re.qid]
		for i := range row {
			if v := row[i].demand; v != 0 {
				contrib[row[i].cid] += v * re.res
			}
		}
	}
	if den == 0 {
		clear(contrib)
	}
	cur, w, ownAcc := e.cfg.ClusterOf(p), e.peerW[p], e.peerOwnW[p]
	for i, acc := range cost {
		if c := cluster.CID(i); c == cur {
			cost[i] = e.membership(e.cfg.Size(cur)) + w - acc
		} else {
			cost[i] = e.membership(e.cfg.Size(c)+1) + w - acc - ownAcc
		}
		if den != 0 {
			contrib[i] /= den
		}
	}
	return cost, contrib
}

// denseEvals are the selfish and the altruistic decide scan as a dense
// walk: score every non-empty cluster in ascending order. They are the
// oracles both arms of Engine.EvaluateMoves and EvaluateContribution
// answer to, bit for bit.
func denseEvals(e *Engine, p int) (MoveEval, ContributionEval) {
	cost, contrib := denseCosts(e, p)
	cur := e.cfg.ClusterOf(p)
	m := MoveEval{Cur: cur, CurCost: cost[cur], AloneCost: e.membership(1) + e.peerW[p] - e.peerOwnW[p]}
	m.Best, m.BestCost = cur, m.CurCost
	a := ContributionEval{Cur: cur, CurContribution: contrib[cur], Best: cur, BestContribution: contrib[cur]}
	for _, c := range e.cfg.NonEmpty() {
		if c != cur && (cost[c] < m.BestCost || (cost[c] == m.BestCost && m.Best != cur && c < m.Best)) {
			m.Best, m.BestCost = c, cost[c]
		}
		if v := contrib[c]; v > a.BestContribution || (v == a.BestContribution && a.Best != cur && c < a.Best) {
			a.Best, a.BestContribution = c, v
		}
	}
	return m, a
}

func bitEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameMoveEval(a, b MoveEval) bool {
	return a.Cur == b.Cur && a.Best == b.Best && bitEqual(a.CurCost, b.CurCost) &&
		bitEqual(a.BestCost, b.BestCost) && bitEqual(a.AloneCost, b.AloneCost)
}

func sameContributionEval(a, b ContributionEval) bool {
	return a.Cur == b.Cur && a.Best == b.Best && bitEqual(a.CurContribution, b.CurContribution) &&
		bitEqual(a.BestContribution, b.BestContribution)
}

// scanArms counts, per scan, which arm the engine's rule picks: the
// cell walk when the peer's rows hold fewer cells than there are
// non-empty clusters, the dense walk otherwise. Index 0 counts dense
// walks, index 1 cell walks.
type scanArms struct{ moves, contrib [2]int }

func (a *scanArms) count(e *Engine, p int) {
	nonEmpty := e.cfg.NumNonEmpty()
	cells := 0
	for _, en := range e.peerWl[p] {
		cells += len(e.rows[en.qid])
	}
	a.moves[b2i(cells < nonEmpty)]++
	cells = 0
	for _, re := range e.peerRes[p] {
		cells += len(e.rows[re.qid])
	}
	a.contrib[b2i(cells < nonEmpty)]++
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// checkScans compares every live peer's selfish and altruistic scans,
// through the engine and through ev, with the dense oracles bit for
// bit. Odd peers ask the evaluator first, so that both paths are the
// first to scan after a mutation.
func checkScans(t testing.TB, e *Engine, ev *Evaluator, stage string, arms *scanArms) {
	t.Helper()
	for p := 0; p < e.NumSlots(); p++ {
		if !e.IsLive(p) {
			continue
		}
		wantM, wantC := denseEvals(e, p)
		var gotM [2]MoveEval
		var gotC [2]ContributionEval
		if p%2 == 0 {
			gotM[0], gotC[0] = e.EvaluateMoves(p), e.EvaluateContribution(p)
			gotM[1], gotC[1] = ev.EvaluateMoves(p), ev.EvaluateContribution(p)
		} else {
			gotM[1], gotC[1] = ev.EvaluateMoves(p), ev.EvaluateContribution(p)
			gotM[0], gotC[0] = e.EvaluateMoves(p), e.EvaluateContribution(p)
		}
		for i, who := range []string{"engine", "evaluator"} {
			if !sameMoveEval(gotM[i], wantM) {
				t.Fatalf("%s, peer %d, %s: EvaluateMoves %+v, dense walk %+v", stage, p, who, gotM[i], wantM)
			}
			if !sameContributionEval(gotC[i], wantC) {
				t.Fatalf("%s, peer %d, %s: EvaluateContribution %+v, dense walk %+v", stage, p, who, gotC[i], wantC)
			}
		}
		arms.count(e, p)
	}
}

// scanThetas are the θ the scans are checked under: the paper's four
// and zigzag, which is not monotone, so ordering the clusters by join
// term differs from ordering them by size, and sizes 1 and 6 (2 and 7,
// and so on) pay the same term.
func scanThetas() []cluster.Theta {
	return []cluster.Theta{
		cluster.LinearTheta(), cluster.LogTheta(), cluster.SqrtTheta(), cluster.ConstTheta(),
		{Name: "zigzag", F: func(n int) float64 { return float64(n * 7 % 5) }},
	}
}

// TestScanMatchesDenseWalk runs the op driver, which holds both decide
// scans to the dense walk after every op, from every peer alone and
// from six clusters, at α ∈ {0, 1, 3}, under each θ of scanThetas.
// Started alone (36 clusters), every selfish scan and about half the
// altruistic ones take the cell walk: a peer's rows hold fewer cells
// than there are clusters. Started in six clusters, most scans take the
// dense walk, and the cell walk runs once moves into empty slots and
// singleton joins spread the peers out. Every case must reach the arm
// its start favours, so both arms run on both scans. The 30 cases
// of 40 ops run in parallel; none splits a clone off, so every write
// runs in place (FuzzScanMatchesDense's start byte splits one).
func TestScanMatchesDenseWalk(t *testing.T) {
	t.Parallel()
	for _, groups := range []int{0, 6} {
		for _, alpha := range []float64{0, 1, 3} {
			for ti, theta := range scanThetas() {
				t.Run(fmt.Sprintf("groups=%d/alpha=%g/theta=%s", groups, alpha, theta.Name), func(t *testing.T) {
					t.Parallel()
					seed := uint64(100*groups + 10*ti + int(alpha))
					d := newDriver(t, fixture{groups: groups, alpha: alpha, theta: theta, seed: seed}, noClone)
					d.runSeeded(seed, 40)
					d.finish()
					arms := d.arms
					t.Logf("moves dense %d, cells %d; contribution dense %d, cells %d",
						arms.moves[0], arms.moves[1], arms.contrib[0], arms.contrib[1])
					if groups == 0 && (arms.moves[1] == 0 || arms.contrib[1] == 0) {
						t.Errorf("started alone, yet no scan took the cell walk (%+v)", arms)
					}
					if groups > 0 && (arms.moves[0] == 0 || arms.contrib[0] == 0) {
						t.Errorf("started in %d clusters, yet no scan took the dense walk (%+v)", groups, arms)
					}
				})
			}
		}
	}
}

// FuzzScanMatchesDense is TestScanMatchesDenseWalk over a byte-decoded
// case: ops[0] picks α, ops[1] θ, ops[2] the start (alone or in six
// clusters, with or without two vacant slots, and whether a clone is
// split off and which of the two then writes), and each later pair of
// bytes one op of the driver.
func FuzzScanMatchesDense(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 3, 1, 2, 2, 5, 5, 0})
	f.Add([]byte{2, 4, 1, 0, 0, 1, 1, 0, 6, 2, 9, 5, 3})
	f.Add([]byte{0, 3, 6, 1, 7, 0, 9, 2, 2, 0, 12})
	// Zigzag at α = 3 from singletons: unreached clusters of sizes whose
	// join terms tie, which only a cell walk that scores every tied class,
	// each by its lowest cluster other than the peer's own, gets right.
	f.Add([]byte{2, 4, 0, 5, 160, 2, 234, 5, 184, 0, 119, 5, 52, 10, 132, 0, 87, 0, 254, 2, 109, 1, 149, 0, 90, 11, 120, 0, 155, 0, 14})
	f.Add([]byte{2, 4, 6, 10, 156, 1, 131, 5, 233, 5, 106, 2, 40, 1, 199, 5, 74, 10, 181, 11, 188, 11, 219, 0, 136, 5, 204, 10, 101, 11, 209, 1, 16})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 3 {
			return
		}
		if len(ops) > 83 {
			ops = ops[:83]
		}
		start := ops[2]
		d := newDriver(t, fixture{
			groups: []int{0, 6}[start%2],
			vacant: []int{0, 2}[start/2%2],
			alpha:  []float64{0, 1, 3}[ops[0]%3],
			theta:  scanThetas()[int(ops[1])%len(scanThetas())],
			seed:   uint64(ops[0])<<16 | uint64(ops[1])<<8 | uint64(start),
		}, []split{originalWrites, cloneWrites, noClone}[start/4%3])
		d.run(ops[3:])
		d.finish()
	})
}
