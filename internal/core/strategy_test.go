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

func scrambled(t *testing.T, seed uint64) *Engine {
	t.Helper()
	e := newTestEngine(t, 16, 9, seed, nil)
	rng := stats.NewRNG(seed ^ 0xabc)
	for i := 0; i < 30; i++ {
		e.Move(rng.Intn(16), cluster.CID(rng.Intn(8)))
	}
	return e
}

func TestSelfishDecisionImprovesOwnCost(t *testing.T) {
	e := scrambled(t, 41)
	s := NewSelfish()
	for p := 0; p < e.NumPeers(); p++ {
		before := e.PeerCost(p, e.Config().ClusterOf(p))
		d := s.Decide(e.NewEvaluator(), p, math.NaN(), false)
		if !d.Move {
			continue
		}
		if d.NewCluster {
			t.Fatalf("peer %d: NewCluster with allowNew=false", p)
		}
		after := e.PeerCost(p, d.To)
		if after >= before {
			t.Errorf("peer %d: selfish move to %d raises cost %g -> %g", p, d.To, before, after)
		}
		if !almost(d.Gain, before-after) {
			t.Errorf("peer %d: gain %g != cost delta %g", p, d.Gain, before-after)
		}
	}
}

func TestSelfishNewClusterRequiresDrift(t *testing.T) {
	e := scrambled(t, 43)
	s := NewSelfish()
	for p := 0; p < e.NumPeers(); p++ {
		// With baseline equal to the current cost there is no drift, so
		// no new-cluster decision may be emitted even with allowNew.
		cur := e.PeerCost(p, e.Config().ClusterOf(p))
		d := s.Decide(e.NewEvaluator(), p, cur, true)
		if d.NewCluster {
			t.Errorf("peer %d: founded new cluster without cost drift", p)
		}
	}
}

func TestSelfishNewClusterOnDrift(t *testing.T) {
	// Build a peer whose cost is high, with no improving existing
	// cluster: everything it wants vanished. With a much lower
	// baseline, it must ask for an empty cluster when being alone is
	// cheaper than staying.
	e := scrambled(t, 47)
	s := NewSelfish()
	found := false
	for p := 0; p < e.NumPeers(); p++ {
		ev := e.EvaluateMoves(p)
		if ev.Best == ev.Cur && ev.AloneCost < ev.CurCost && e.Config().Size(ev.Cur) > 1 {
			d := s.Decide(e.NewEvaluator(), p, ev.CurCost-1 /* large drift */, true)
			if !d.NewCluster {
				t.Errorf("peer %d: expected new-cluster decision", p)
			}
			found = true
		}
	}
	if !found {
		t.Skip("no peer in this sample satisfies the new-cluster precondition")
	}
}

func TestAltruisticMovesTowardMaxContribution(t *testing.T) {
	e := scrambled(t, 53)
	a := NewAltruistic()
	for p := 0; p < e.NumPeers(); p++ {
		d := a.Decide(e.NewEvaluator(), p, math.NaN(), true)
		if !d.Move {
			continue
		}
		// The target must hold the maximum contribution among clusters.
		target := e.Contribution(p, d.To)
		for _, c := range e.Config().NonEmpty() {
			if e.Contribution(p, c) > target+1e-12 {
				t.Errorf("peer %d: moved to %d (contribution %g) but cluster %d offers %g",
					p, d.To, target, c, e.Contribution(p, c))
			}
		}
		// And the gain accounts for the membership growth it causes.
		want := target - e.Contribution(p, d.From) - e.DeltaMembership(d.To)
		if !almost(d.Gain, want) {
			t.Errorf("peer %d: clgain=%g want %g", p, d.Gain, want)
		}
	}
}

func TestHybridDegeneratesToSelfishTargets(t *testing.T) {
	e := scrambled(t, 59)
	h := NewHybrid(1)
	s := NewSelfish()
	for p := 0; p < e.NumPeers(); p++ {
		dh := h.Decide(e.NewEvaluator(), p, math.NaN(), false)
		ds := s.Decide(e.NewEvaluator(), p, math.NaN(), false)
		if dh.Move != ds.Move {
			t.Errorf("peer %d: hybrid(1) move=%v selfish move=%v", p, dh.Move, ds.Move)
			continue
		}
		if dh.Move && dh.To != ds.To {
			// Both must be cost-minimizing; allow distinct but equal-cost targets.
			if !almost(e.PeerCost(p, dh.To), e.PeerCost(p, ds.To)) {
				t.Errorf("peer %d: hybrid(1) target %d (cost %g) != selfish %d (cost %g)",
					p, dh.To, e.PeerCost(p, dh.To), ds.To, e.PeerCost(p, ds.To))
			}
		}
	}
}

func TestHybridLambdaValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHybrid(1.5) did not panic")
		}
	}()
	NewHybrid(1.5)
}

func TestBestResponseDynamicsConvergesOnClusterableData(t *testing.T) {
	// A clean two-group instance: peers 0-7 hold and query attribute a,
	// peers 8-15 attribute b. Best-response dynamics must converge to a
	// partition separating the groups.
	e := groupedEngine(t)
	res := e.BestResponseDynamics(stats.NewRNG(5), 1e-9, 100)
	if !res.Converged {
		t.Fatalf("dynamics did not converge: %+v", res)
	}
	ok, w := e.IsNash(1e-9)
	if !ok {
		t.Fatalf("converged state is not Nash: %+v", w)
	}
	// Groups must not share clusters.
	for p := 0; p < 8; p++ {
		for q := 8; q < 16; q++ {
			if e.Config().ClusterOf(p) == e.Config().ClusterOf(q) {
				t.Fatalf("peers %d and %d of different groups share cluster %d",
					p, q, e.Config().ClusterOf(p))
			}
		}
	}
}

func TestNashWitnessIsActionable(t *testing.T) {
	e := groupedEngine(t)
	// Singletons over clusterable data cannot be Nash.
	ok, w := e.IsNash(1e-9)
	if ok {
		t.Fatal("singleton configuration reported as Nash on clusterable data")
	}
	before := e.PeerCost(w.Peer, w.From)
	to := w.To
	if w.NewCluster {
		slot, okE := e.Config().EmptyCluster()
		if !okE {
			t.Fatal("witness proposes new cluster but no slot free")
		}
		to = slot
	}
	e.Move(w.Peer, to)
	after := e.PeerCost(w.Peer, to)
	if !almost(before-after, w.Improvement) {
		t.Errorf("witness improvement %g, realized %g", w.Improvement, before-after)
	}
}

// groupedEngine builds a clean two-group instance starting from
// singletons: peers 0-7 hold and query attribute a, peers 8-15
// attribute b. Its unique stable partitions separate the groups.
func groupedEngine(t *testing.T) *Engine {
	t.Helper()
	vocab := attr.NewVocab()
	a := vocab.Intern("group-a")
	b := vocab.Intern("group-b")
	peers := make([]*peer.Peer, 16)
	wl := workload.New(16)
	for i := range peers {
		p := peer.New(i)
		id := a
		if i >= 8 {
			id = b
		}
		p.SetItems([]attr.Set{attr.NewSet(id), attr.NewSet(id)})
		peers[i] = p
		wl.Add(i, attr.NewSet(id), 3)
	}
	return New(peers, wl, cluster.NewSingletons(16), cluster.LinearTheta(), 1)
}
