package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/peer"
	"repro/internal/stats"
	"repro/internal/workload"
)

// denseMoveEval is the selfish decide scan as a dense walk: add the
// peer's rows into an accumulator indexed by cluster, then score every
// non-empty cluster in ascending order. It is the oracle both arms of
// Engine.EvaluateMoves answer to, bit for bit.
func denseMoveEval(e *Engine, p int) MoveEval {
	acc := make([]float64, e.cmax)
	for _, en := range e.peerWl[p] {
		wit := en.wInvT
		row := e.rows[en.qid]
		for i := range row {
			if v := row[i].res; v != 0 {
				acc[row[i].cid] += wit * v
			}
		}
	}
	cur := e.cfg.ClusterOf(p)
	w := e.peerW[p]
	ownAcc := e.peerOwnW[p]

	ev := MoveEval{Cur: cur}
	ev.CurCost = e.membership(e.cfg.Size(cur)) + w - acc[cur]
	ev.AloneCost = e.membership(1) + w - ownAcc
	ev.Best, ev.BestCost = cur, ev.CurCost
	for _, c := range e.cfg.NonEmpty() {
		if c == cur {
			continue
		}
		cost := e.membership(e.cfg.Size(c)+1) + w - acc[c] - ownAcc
		if cost < ev.BestCost || (cost == ev.BestCost && ev.Best != cur && c < ev.Best) {
			ev.Best, ev.BestCost = c, cost
		}
	}
	return ev
}

// denseContributionEval is the altruistic decide scan as a dense walk,
// the oracle of Engine.EvaluateContribution.
func denseContributionEval(e *Engine, p int) ContributionEval {
	num := make([]float64, e.cmax)
	var den float64
	for _, re := range e.peerRes[p] {
		den += e.demandTot[re.qid] * re.res
		row := e.rows[re.qid]
		for i := range row {
			if v := row[i].demand; v != 0 {
				num[row[i].cid] += v * re.res
			}
		}
	}
	cur := e.cfg.ClusterOf(p)
	ev := ContributionEval{Cur: cur}
	if den == 0 {
		ev.Best = cur
		return ev
	}
	ev.CurContribution = num[cur] / den
	ev.Best, ev.BestContribution = cur, ev.CurContribution
	for _, c := range e.cfg.NonEmpty() {
		v := num[c] / den
		if v > ev.BestContribution || (v == ev.BestContribution && ev.Best != cur && c < ev.Best) {
			ev.Best, ev.BestContribution = c, v
		}
	}
	return ev
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

func (a *scanArms) add(b scanArms) {
	for i := range a.moves {
		a.moves[i] += b.moves[i]
		a.contrib[i] += b.contrib[i]
	}
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
		wantM, wantC := denseMoveEval(e, p), denseContributionEval(e, p)
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

const scanPeers, scanAttrs = 36, 24

// scanItems draws one to three items of one or two attributes.
func scanItems(rng *stats.RNG) []attr.Set {
	items := make([]attr.Set, 1+rng.Intn(3))
	for i := range items {
		items[i] = attr.NewSet(attr.ID(rng.Intn(scanAttrs)), attr.ID(rng.Intn(scanAttrs)))
	}
	return items
}

// scanEngine builds scanPeers peers over scanAttrs attributes, each
// querying two of them. groups == 0 starts every peer alone (the
// paper's initial configuration); otherwise peer i starts in cluster
// i % groups.
func scanEngine(alpha float64, theta cluster.Theta, groups int, seed uint64) *Engine {
	rng := stats.NewRNG(seed)
	peers := make([]*peer.Peer, scanPeers)
	wl := workload.New(scanPeers)
	assign := make([]cluster.CID, scanPeers)
	for i := range peers {
		peers[i] = peer.New(i)
		peers[i].SetItems(scanItems(rng))
		for range 2 {
			wl.Add(i, attr.NewSet(attr.ID(rng.Intn(scanAttrs))), 1+rng.Intn(3))
		}
		assign[i] = cluster.CID(i)
		if groups > 0 {
			assign[i] = cluster.CID(i % groups)
		}
	}
	return New(peers, wl, cluster.FromAssignment(assign), theta, alpha)
}

// scanStep applies one mutation chosen by op and parameterized by arg:
// a move to a non-empty cluster or into an empty slot, a join into a
// fresh singleton or a non-empty cluster, a leave, or a compaction. It
// returns what it did.
func scanStep(e *Engine, op, arg byte) string {
	rng := stats.NewRNG(uint64(op)<<8 | uint64(arg))
	var live []int
	for p := 0; p < e.NumSlots(); p++ {
		if e.IsLive(p) {
			live = append(live, p)
		}
	}
	nonEmpty := e.cfg.NonEmpty()
	switch op % 4 {
	case 0:
		p := live[int(arg)%len(live)]
		to := nonEmpty[rng.Intn(len(nonEmpty))]
		if c, ok := e.cfg.EmptyCluster(); ok && arg%3 == 0 {
			to = c
		}
		e.Move(p, to)
		return fmt.Sprintf("move %d to %d", p, to)
	case 1:
		pr := peer.New(-1)
		pr.SetItems(scanItems(rng))
		qs := []attr.Set{attr.NewSet(attr.ID(rng.Intn(scanAttrs + 4)))}
		counts := []int{1 + rng.Intn(3)}
		to := cluster.None
		if arg%2 == 0 {
			to = nonEmpty[rng.Intn(len(nonEmpty))]
		}
		pid := e.AddPeer(pr, qs, counts, to)
		return fmt.Sprintf("join %d into %d", pid, e.cfg.ClusterOf(pid))
	case 2:
		if len(live) <= 2 {
			return "no leave"
		}
		p := live[int(arg)%len(live)]
		e.RemovePeer(p)
		return fmt.Sprintf("leave %d", p)
	default:
		return fmt.Sprintf("compact %d", e.Compact(0))
	}
}

// TestScanMatchesDenseWalk holds both decide scans, through the engine
// and through a private evaluator, to the dense walk bit for bit after
// every step of a random sequence of moves, joins, leaves and
// compactions: from every peer alone and from six clusters, at α ∈ {0,
// 1, 3}, under each θ of scanThetas. Started alone (36 clusters), every
// selfish scan and about half the altruistic ones take the cell walk:
// a peer's rows hold fewer cells than there are clusters. Started in
// six clusters, most scans take the dense walk, and the cell walk runs
// once moves into empty slots and singleton joins spread the peers
// out. Every case must reach the arm its start favours, and both arms
// must run on both scans.
func TestScanMatchesDenseWalk(t *testing.T) {
	var total scanArms
	for _, groups := range []int{0, 6} {
		for _, alpha := range []float64{0, 1, 3} {
			for ti, theta := range scanThetas() {
				name := fmt.Sprintf("groups=%d/alpha=%g/theta=%s", groups, alpha, theta.Name)
				seed := uint64(100*groups + 10*ti + int(alpha))
				e := scanEngine(alpha, theta, groups, seed)
				ev := e.NewEvaluator()
				var arms scanArms
				checkScans(t, e, ev, name+" start", &arms)
				rng := stats.NewRNG(seed)
				for step := range 40 {
					did := scanStep(e, byte(rng.Intn(256)), byte(rng.Intn(256)))
					checkScans(t, e, ev, fmt.Sprintf("%s step %d (%s)", name, step, did), &arms)
				}
				t.Logf("%s: moves dense %d, cells %d; contribution dense %d, cells %d",
					name, arms.moves[0], arms.moves[1], arms.contrib[0], arms.contrib[1])
				if groups == 0 && (arms.moves[1] == 0 || arms.contrib[1] == 0) {
					t.Errorf("%s: started alone, yet no scan took the cell walk (%+v)", name, arms)
				}
				if groups > 0 && (arms.moves[0] == 0 || arms.contrib[0] == 0) {
					t.Errorf("%s: started in %d clusters, yet no scan took the dense walk (%+v)", name, groups, arms)
				}
				total.add(arms)
			}
		}
	}
	for i, arm := range []string{"dense", "cell"} {
		if total.moves[i] == 0 || total.contrib[i] == 0 {
			t.Errorf("the %s walk never ran: %+v", arm, total)
		}
	}
}

// FuzzScanMatchesDense is TestScanMatchesDenseWalk over a byte-decoded
// case: ops[0] picks α, ops[1] θ, ops[2] the start, and each later pair
// of bytes one step (see scanStep).
func FuzzScanMatchesDense(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 3, 1, 2, 2, 5, 3, 0})
	f.Add([]byte{2, 4, 1, 0, 0, 1, 1, 0, 6, 2, 9, 3, 3})
	f.Add([]byte{0, 3, 0, 1, 7, 0, 9, 2, 2, 0, 12})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 3 {
			return
		}
		if len(ops) > 83 {
			ops = ops[:83]
		}
		alpha := []float64{0, 1, 3}[ops[0]%3]
		theta := scanThetas()[int(ops[1])%len(scanThetas())]
		groups := []int{0, 6}[ops[2]%2]
		e := scanEngine(alpha, theta, groups, uint64(ops[0])<<16|uint64(ops[1])<<8|uint64(ops[2]))
		ev := e.NewEvaluator()
		var arms scanArms
		checkScans(t, e, ev, "start", &arms)
		for i := 3; i+1 < len(ops); i += 2 {
			did := scanStep(e, ops[i], ops[i+1])
			checkScans(t, e, ev, fmt.Sprintf("op %d (%s)", i, did), &arms)
		}
	})
}
