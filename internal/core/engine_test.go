package core

import (
	"math"
	"testing"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/peer"
	"repro/internal/stats"
	"repro/internal/workload"
)

// testSystem builds a small deterministic system: n peers, each holding
// items over a vocabulary of v attributes, with random single-attribute
// workloads.
func testSystem(t testing.TB, n, v int, seed uint64) ([]*peer.Peer, *workload.Workload, *attr.Vocab) {
	t.Helper()
	rng := stats.NewRNG(seed)
	vocab := attr.NewVocab()
	ids := make([]attr.ID, v)
	for i := range ids {
		ids[i] = vocab.Intern(string(rune('a'+i%26)) + string(rune('0'+i/26)))
	}
	peers := make([]*peer.Peer, n)
	wl := workload.New(n)
	for i := 0; i < n; i++ {
		p := peer.New(i)
		items := make([]attr.Set, 0, 3)
		for d := 0; d < 3; d++ {
			a := ids[rng.Intn(v)]
			b := ids[rng.Intn(v)]
			items = append(items, attr.NewSet(a, b))
		}
		p.SetItems(items)
		peers[i] = p
		for q := 0; q < 2; q++ {
			wl.Add(i, attr.NewSet(ids[rng.Intn(v)]), 1+rng.Intn(4))
		}
	}
	return peers, wl, vocab
}

func newTestEngine(t testing.TB, n, v int, seed uint64, cfg *cluster.Config) *Engine {
	t.Helper()
	peers, wl, _ := testSystem(t, n, v, seed)
	if cfg == nil {
		cfg = cluster.NewSingletons(n)
	}
	return New(peers, wl, cfg, cluster.LinearTheta(), 1)
}

func TestWorkedExampleSection23(t *testing.T) {
	// The paper's §2.3 worked example with linear θ:
	//   split:    pcost(p0,c0) = α/2 + 1, pcost(p1,c1) = α/2
	//   together: pcost(p0,c) = pcost(p1,c) = α
	// and probing p0 -> c1 from the split configuration costs α.
	for _, alpha := range []float64{0.5, 1, 1.5} {
		inst := NewTwoPeerInstance(alpha)
		e := inst.Engine
		if err := inst.SetConfiguration("split"); err != nil {
			t.Fatal(err)
		}
		if got, want := e.PeerCost(0, 0), alpha/2+1; !almost(got, want) {
			t.Errorf("alpha=%g split pcost(p0,c0)=%g want %g", alpha, got, want)
		}
		if got, want := e.PeerCost(1, 1), alpha/2; !almost(got, want) {
			t.Errorf("alpha=%g split pcost(p1,c1)=%g want %g", alpha, got, want)
		}
		if got, want := e.PeerCost(0, 1), alpha; !almost(got, want) {
			t.Errorf("alpha=%g probe pcost(p0,c1)=%g want %g", alpha, got, want)
		}
		if err := inst.SetConfiguration("together"); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 2; p++ {
			if got := e.PeerCost(p, e.Config().ClusterOf(p)); !almost(got, alpha) {
				t.Errorf("alpha=%g together pcost(p%d)=%g want %g", alpha, p, got, alpha)
			}
		}
	}
}

func TestTwoPeerCounterexampleNoNash(t *testing.T) {
	for _, alpha := range []float64{0.25, 1, 1.9} {
		inst := NewTwoPeerInstance(alpha)
		trace, err := inst.VerifyNoNash()
		if err != nil {
			t.Fatalf("alpha=%g: %v", alpha, err)
		}
		if trace == "" {
			t.Fatalf("alpha=%g: empty trace", alpha)
		}
	}
}

func TestTwoPeerCounterexampleRejectsOutOfRangeAlpha(t *testing.T) {
	for _, alpha := range []float64{2, 3} {
		inst := NewTwoPeerInstance(alpha)
		if _, err := inst.VerifyNoNash(); err == nil {
			t.Errorf("alpha=%g: expected error (split is weakly stable at alpha>=2)", alpha)
		}
	}
}

func TestSplitIsNashAtAlphaTwo(t *testing.T) {
	// At α = 2 the deviation of the paper's argument is only weak:
	// the split configuration is a pure Nash equilibrium.
	inst := NewTwoPeerInstance(2)
	if err := inst.SetConfiguration("split"); err != nil {
		t.Fatal(err)
	}
	if ok, w := inst.Engine.IsNash(1e-12); !ok {
		t.Errorf("split at alpha=2 should be Nash; witness %+v", w)
	}
}

func TestSCostIsSumOfIndividualCosts(t *testing.T) {
	e := newTestEngine(t, 20, 12, 7, nil)
	var sum float64
	for p := 0; p < e.NumPeers(); p++ {
		sum += e.PeerCost(p, e.Config().ClusterOf(p))
	}
	if got := e.SCost(); !almost(got, sum) {
		t.Errorf("SCost=%g want sum of pcost=%g", got, sum)
	}
	if got := e.SCostNormalized(); !almost(got, sum/20) {
		t.Errorf("SCostNormalized=%g want %g", got, sum/20)
	}
}

func TestRecallConservation(t *testing.T) {
	e := newTestEngine(t, 15, 10, 11, nil)
	wl := e.Workload()
	for q := 0; q < wl.NumQueries(); q++ {
		qid := workload.QID(q)
		if e.TotalResults(qid) == 0 {
			continue
		}
		var sum float64
		for _, c := range e.Config().NonEmpty() {
			sum += e.ClusterRecall(qid, c)
		}
		if !almost(sum, 1) {
			t.Errorf("query %d: cluster recalls sum to %g, want 1", q, sum)
		}
	}
}

// TestIncrementalMoveMatchesRebuild runs 200 moves of the op driver
// from 18 singletons, which holds the costs to New after each.
func TestIncrementalMoveMatchesRebuild(t *testing.T) {
	t.Parallel()
	d := newDriver(t, fixture{n: 18, alpha: 1, seed: 3}, noClone)
	rng := stats.NewRNG(99)
	for range 200 {
		d.check(d.apply(0, byte(rng.Intn(256))))
	}
}

func TestEvaluateMovesMatchesPeerCost(t *testing.T) {
	e := newTestEngine(t, 16, 9, 5, nil)
	rng := stats.NewRNG(4)
	for step := 0; step < 30; step++ {
		e.Move(rng.Intn(16), cluster.CID(rng.Intn(16)))
	}
	for p := 0; p < 16; p++ {
		ev := e.EvaluateMoves(p)
		cur := e.Config().ClusterOf(p)
		if ev.Cur != cur {
			t.Fatalf("peer %d: ev.Cur=%d want %d", p, ev.Cur, cur)
		}
		if !almost(ev.CurCost, e.PeerCost(p, cur)) {
			t.Errorf("peer %d: CurCost=%g want %g", p, ev.CurCost, e.PeerCost(p, cur))
		}
		if !almost(ev.AloneCost, e.CostAlone(p)) {
			t.Errorf("peer %d: AloneCost=%g want %g", p, ev.AloneCost, e.CostAlone(p))
		}
		// Best must match an exhaustive scan.
		bestC, bestCost := cur, e.PeerCost(p, cur)
		for _, c := range e.Config().NonEmpty() {
			if cost := e.PeerCost(p, c); cost < bestCost-1e-12 {
				bestC, bestCost = c, cost
			}
		}
		if !almost(ev.BestCost, bestCost) {
			t.Errorf("peer %d: BestCost=%g want %g (best=%d scan=%d)", p, ev.BestCost, bestCost, ev.Best, bestC)
		}
	}
}

func TestEvaluateContributionMatchesContribution(t *testing.T) {
	e := newTestEngine(t, 14, 8, 6, nil)
	rng := stats.NewRNG(8)
	for step := 0; step < 25; step++ {
		e.Move(rng.Intn(14), cluster.CID(rng.Intn(14)))
	}
	for p := 0; p < 14; p++ {
		ev := e.EvaluateContribution(p)
		if !almost(ev.CurContribution, e.Contribution(p, ev.Cur)) {
			t.Errorf("peer %d: CurContribution=%g want %g", p, ev.CurContribution, e.Contribution(p, ev.Cur))
		}
		best := 0.0
		for _, c := range e.Config().NonEmpty() {
			if v := e.Contribution(p, c); v > best {
				best = v
			}
		}
		if ev.BestContribution < best-1e-12 {
			t.Errorf("peer %d: BestContribution=%g below scan max %g", p, ev.BestContribution, best)
		}
	}
}

func TestPeerCostMultiSingleMatchesPeerCost(t *testing.T) {
	// A singleton strategy {c} under Eq. 1 must price exactly like the
	// single-cluster pcost(p, c) — both for the peer's current cluster
	// and for probes of every other non-empty cluster (where the
	// membership term and the peer's own results account for its
	// hypothetical arrival).
	e := newTestEngine(t, 12, 8, 13, nil)
	rng := stats.NewRNG(21)
	for step := 0; step < 20; step++ {
		e.Move(rng.Intn(12), cluster.CID(rng.Intn(12)))
	}
	for p := 0; p < 12; p++ {
		cur := e.Config().ClusterOf(p)
		if a, b := e.PeerCostMulti(p, []cluster.CID{cur}), e.PeerCost(p, cur); !almost(a, b) {
			t.Errorf("peer %d: multi({cur})=%g pcost=%g", p, a, b)
		}
		for _, c := range e.Config().NonEmpty() {
			if a, b := e.PeerCostMulti(p, []cluster.CID{c}), e.PeerCost(p, c); !almost(a, b) {
				t.Errorf("peer %d cluster %d (cur=%d): multi({c})=%g pcost=%g", p, c, cur, a, b)
			}
		}
	}
}

func TestPeerCostMultiAllClustersHasZeroRecallCost(t *testing.T) {
	e := newTestEngine(t, 12, 8, 17, nil)
	all := e.Config().NonEmpty()
	for p := 0; p < 12; p++ {
		got := e.PeerCostMulti(p, all)
		// Joining every cluster leaves no peer outside the strategy;
		// the remaining cost is pure membership.
		var want float64
		cur := e.Config().ClusterOf(p)
		for _, c := range all {
			size := e.Config().Size(c)
			if c != cur {
				size++
			}
			want += e.Alpha() * e.Theta().F(size) / float64(e.NumPeers())
		}
		if !almost(got, want) {
			t.Errorf("peer %d: multi(all)=%g want pure membership %g", p, got, want)
		}
	}
}

func TestProperty1UniformWorkloadProportionality(t *testing.T) {
	// Build a system where every peer issues the same number of query
	// instances; then the recall parts of SCost and WCost must be
	// proportional with factor |P| (Property 1).
	n := 12
	rng := stats.NewRNG(31)
	vocab := attr.NewVocab()
	ids := make([]attr.ID, 8)
	for i := range ids {
		ids[i] = vocab.Intern(string(rune('a' + i)))
	}
	peers := make([]*peer.Peer, n)
	wl := workload.New(n)
	for i := 0; i < n; i++ {
		p := peer.New(i)
		p.SetItems([]attr.Set{attr.NewSet(ids[rng.Intn(8)]), attr.NewSet(ids[rng.Intn(8)])})
		peers[i] = p
		// Exactly 6 instances per peer.
		wl.Add(i, attr.NewSet(ids[rng.Intn(8)]), 4)
		wl.Add(i, attr.NewSet(ids[rng.Intn(8)]), 2)
	}
	assign := make([]cluster.CID, n)
	for i := range assign {
		assign[i] = cluster.CID(rng.Intn(4))
	}
	e := New(peers, wl, cluster.FromAssignment(assign), cluster.LinearTheta(), 1)

	_, sRecall := e.SCostParts()
	_, wRecall := e.WCostParts()
	if sRecall == 0 {
		t.Skip("degenerate sample: zero recall cost")
	}
	if got, want := sRecall/float64(n), wRecall; !almost(got, want) {
		t.Errorf("Property 1 violated: SCost recall/|P| = %g, WCost recall = %g", got, want)
	}
}

func TestZeroResultQueriesCarryNoCost(t *testing.T) {
	vocab := attr.NewVocab()
	a := vocab.Intern("exists")
	b := vocab.Intern("nowhere")
	p0 := peer.New(0)
	p0.SetItems([]attr.Set{attr.NewSet(a)})
	p1 := peer.New(1)
	wl := workload.New(2)
	wl.Add(0, attr.NewSet(b), 5) // no peer holds b
	wl.Add(1, attr.NewSet(a), 5)
	e := New([]*peer.Peer{p0, p1}, wl, cluster.NewSingletons(2), cluster.LinearTheta(), 1)
	// Peer 0's only query has zero results anywhere: its cost is pure
	// membership.
	if got, want := e.PeerCost(0, 0), 0.5; !almost(got, want) {
		t.Errorf("pcost with zero-result query = %g, want %g", got, want)
	}
}

func TestSetAlphaRescalesMembershipOnly(t *testing.T) {
	e := newTestEngine(t, 10, 6, 23, nil)
	p := 3
	cid := e.Config().ClusterOf(p)
	m1, r1 := e.SCostParts()
	c1 := e.PeerCost(p, cid)
	e.SetAlpha(2)
	m2, r2 := e.SCostParts()
	c2 := e.PeerCost(p, cid)
	if !almost(m2, 2*m1) {
		t.Errorf("membership part %g -> %g, want doubling", m1, m2)
	}
	if !almost(r2, r1) {
		t.Errorf("recall part changed with alpha: %g -> %g", r1, r2)
	}
	if !almost(c2-c1, m2/float64(e.NumPeers())*0) && c2 <= c1 {
		t.Errorf("peer cost should grow with alpha: %g -> %g", c1, c2)
	}
}

func TestStaleDetection(t *testing.T) {
	e := newTestEngine(t, 6, 5, 29, nil)
	if e.Stale() {
		t.Fatal("fresh engine reported stale")
	}
	e.Workload().Add(0, attr.NewSet(0), 1)
	if !e.Stale() {
		t.Fatal("engine did not detect workload change")
	}
	e.Rebuild()
	if e.Stale() {
		t.Fatal("rebuilt engine still stale")
	}
}

func almost(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}
