package core

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/peer"
	"repro/internal/workload"
)

// evalSystem builds a small mixed system: g groups of perGroup peers,
// each holding and querying its group attribute plus a shared one, so
// clusters have cross-demand and non-trivial best moves.
func evalSystem(t testing.TB, groups, perGroup int) *Engine {
	t.Helper()
	n := groups * perGroup
	vocab := attr.NewVocab()
	shared := vocab.Intern("shared")
	ids := make([]attr.ID, groups)
	for g := range ids {
		ids[g] = vocab.Intern(string(rune('a' + g)))
	}
	peers := make([]*peer.Peer, n)
	wl := workload.New(n)
	assign := make([]cluster.CID, n)
	for i := 0; i < n; i++ {
		g := i % groups
		p := peer.New(i)
		p.SetItems([]attr.Set{attr.NewSet(ids[g]), attr.NewSet(ids[g], shared)})
		peers[i] = p
		wl.Add(i, attr.NewSet(ids[g]), 2)
		wl.Add(i, attr.NewSet(ids[(g+1)%groups]), 1)
		if i%3 == 0 {
			wl.Add(i, attr.NewSet(shared), 1)
		}
		assign[i] = cluster.CID(i % (groups + 1))
	}
	return New(peers, wl, cluster.FromAssignment(assign), cluster.LinearTheta(), 1)
}

// TestEvaluatorMatchesEngine pins bit-identity: a private Evaluator
// must reproduce every engine evaluation exactly.
func TestEvaluatorMatchesEngine(t *testing.T) {
	eng := evalSystem(t, 4, 5)
	ev := eng.NewEvaluator()
	nonEmpty := eng.Config().NonEmpty()
	for p := 0; p < eng.NumSlots(); p++ {
		if got, want := ev.EvaluateMoves(p), eng.EvaluateMoves(p); got != want {
			t.Fatalf("peer %d: EvaluateMoves %+v vs engine %+v", p, got, want)
		}
		if got, want := ev.EvaluateContribution(p), eng.EvaluateContribution(p); got != want {
			t.Fatalf("peer %d: EvaluateContribution %+v vs engine %+v", p, got, want)
		}
		if got, want := ev.CostAlone(p), eng.CostAlone(p); got != want {
			t.Fatalf("peer %d: CostAlone %v vs %v", p, got, want)
		}
		for _, c := range nonEmpty {
			if got, want := ev.PeerCost(p, c), eng.PeerCost(p, c); got != want {
				t.Fatalf("peer %d cluster %d: PeerCost %v vs %v", p, c, got, want)
			}
			if got, want := ev.Contribution(p, c), eng.Contribution(p, c); got != want {
				t.Fatalf("peer %d cluster %d: Contribution %v vs %v", p, c, got, want)
			}
		}
	}
}

// TestEvaluatorSurvivesEngineMutation pins lazy resizing: an Evaluator
// created before joins, moves and compactions keeps matching the
// engine afterwards.
func TestEvaluatorSurvivesEngineMutation(t *testing.T) {
	eng := evalSystem(t, 3, 4)
	ev := eng.NewEvaluator()
	ev.EvaluateMoves(0) // size scratch against the old geometry

	for i := 0; i < 8; i++ {
		pr := peer.New(-1)
		pr.SetItems([]attr.Set{attr.NewSet(attr.ID(1))})
		pid := eng.AddPeer(pr, []attr.Set{attr.NewSet(attr.ID(500 + i))}, []int{2}, cluster.None)
		if i%2 == 0 {
			eng.RemovePeer(pid)
		}
	}
	eng.Compact(0)
	eng.Move(0, eng.Config().NonEmpty()[0])

	for p := 0; p < eng.NumSlots(); p++ {
		if !eng.IsLive(p) {
			continue
		}
		if got, want := ev.EvaluateMoves(p), eng.EvaluateMoves(p); got != want {
			t.Fatalf("peer %d after mutation: %+v vs %+v", p, got, want)
		}
	}
}

// TestConcurrentEvaluators runs many evaluators over one frozen engine
// at once (meaningful under -race) and checks each against the
// engine's serial answers.
func TestConcurrentEvaluators(t *testing.T) {
	eng := evalSystem(t, 4, 6)
	n := eng.NumSlots()
	want := make([]MoveEval, n)
	wantC := make([]ContributionEval, n)
	for p := 0; p < n; p++ {
		want[p] = eng.EvaluateMoves(p)
		wantC[p] = eng.EvaluateContribution(p)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ev := eng.NewEvaluator()
			for p := 0; p < n; p++ {
				if got := ev.EvaluateMoves(p); got != want[p] {
					errs <- "EvaluateMoves diverged under concurrency"
					return
				}
				if got := ev.EvaluateContribution(p); got != wantC[p] {
					errs <- "EvaluateContribution diverged under concurrency"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestNonEmptyListFreshness pins the shared non-empty cluster list to
// the configuration after every kind of membership mutation, for the
// engine-owned evaluator and a private one alike.
func TestNonEmptyListFreshness(t *testing.T) {
	eng := evalSystem(t, 3, 4) // 12 peers, clusters 0..3 of three each
	ev := eng.NewEvaluator()
	check := func(stage string) {
		t.Helper()
		want := eng.Config().NonEmpty()
		if got := eng.Eval().NonEmpty(); !slices.Equal(got, want) {
			t.Fatalf("%s: engine-owned evaluator sees %v, configuration has %v", stage, got, want)
		}
		if got := ev.NonEmpty(); !slices.Equal(got, want) {
			t.Fatalf("%s: private evaluator sees %v, configuration has %v", stage, got, want)
		}
	}
	newcomer := func() *peer.Peer {
		pr := peer.New(-1)
		pr.SetItems([]attr.Set{attr.NewSet(attr.ID(1))})
		return pr
	}
	qs, counts := []attr.Set{attr.NewSet(attr.ID(1))}, []int{1}
	check("New")

	for _, p := range eng.Config().Members(3) {
		eng.Move(p, 0)
		check("Move out of cluster 3")
	}
	if eng.Config().Size(3) != 0 {
		t.Fatal("cluster 3 should be empty")
	}
	slots := eng.NumSlots()
	pid := eng.AddPeer(newcomer(), qs, counts, cluster.None)
	if eng.NumSlots() != slots+1 {
		t.Fatal("the join should have grown a slot")
	}
	check("slot-growing join into a fresh singleton")
	eng.RemovePeer(pid)
	check("RemovePeer")
	eng.RemovePeer(0)
	eng.AddPeer(newcomer(), qs, counts, 1)
	check("join into an existing cluster, reusing a slot")
	eng.Config().Move(1, 3) // behind the engine's back
	eng.Rebuild()
	check("Rebuild")
}

// TestConcurrentScansAfterPrepareDecide fans private evaluators over
// disjoint peers right after a mutation and PrepareDecide, with no
// serial evaluation in between to refresh the shared list for them
// (meaningful under -race), and checks every answer against the
// engine's serial one afterwards.
func TestConcurrentScansAfterPrepareDecide(t *testing.T) {
	eng := evalSystem(t, 4, 6)
	n := eng.NumSlots()
	const workers = 8
	evs := make([]*Evaluator, workers)
	for w := range evs {
		evs[w] = eng.NewEvaluator()
	}
	got := make([]MoveEval, n)
	lists := make([][]cluster.CID, workers)
	for round := 0; round < 6; round++ {
		p := (5 * round) % n
		eng.Move(p, (eng.Config().ClusterOf(p)+1)%5)
		eng.PrepareDecide()
		var wg sync.WaitGroup
		for w := range evs {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				lists[w] = evs[w].NonEmpty()
				for p := w; p < n; p += workers {
					got[p] = evs[w].EvaluateMoves(p)
				}
			}(w)
		}
		wg.Wait()
		want := eng.Config().NonEmpty()
		for w := range lists {
			if !slices.Equal(lists[w], want) {
				t.Fatalf("round %d: evaluator %d saw clusters %v, configuration has %v", round, w, lists[w], want)
			}
		}
		for p := 0; p < n; p++ {
			if want := eng.EvaluateMoves(p); got[p] != want {
				t.Fatalf("round %d peer %d: concurrent %+v, serial %+v", round, p, got[p], want)
			}
		}
	}
}

// TestDecideEvalMatchesDecide pins the delegation contract for every
// built-in strategy: Decide(e) == DecideEval(private evaluator).
func TestDecideEvalMatchesDecide(t *testing.T) {
	for _, strat := range []EvalStrategy{NewSelfish(), NewAltruistic(), NewHybrid(0.5)} {
		eng := evalSystem(t, 4, 5)
		ev := eng.NewEvaluator()
		for p := 0; p < eng.NumSlots(); p++ {
			base := eng.PeerCost(p, eng.Config().ClusterOf(p))
			got := strat.DecideEval(ev, p, base, true)
			want := strat.Decide(eng, p, base, true)
			if got != want {
				t.Fatalf("%s peer %d: DecideEval %+v vs Decide %+v", strat.Name(), p, got, want)
			}
		}
	}
}

// TestEvaluatorAllocFree pins the steady-state allocation contract of
// the evaluator paths the parallel decide scan runs per peer.
func TestEvaluatorAllocFree(t *testing.T) {
	eng := evalSystem(t, 4, 5)
	ev := eng.NewEvaluator()
	ev.EvaluateMoves(0) // warm scratch
	ev.EvaluateContribution(0)
	avg := testing.AllocsPerRun(100, func() {
		ev.EvaluateMoves(3)
		ev.EvaluateContribution(4)
		ev.PeerCost(5, ev.NonEmpty()[0])
	})
	if avg != 0 {
		t.Fatalf("evaluator steady state allocates %v allocs/op, want 0", avg)
	}
}

// TestScanTieBreaks pins how the exhaustive scans settle bit-equal
// candidates: the current cluster keeps a tie it is part of, otherwise
// the lowest cluster ID wins — through the engine and through a private
// evaluator. Peer 0 queries `a` and holds a result for `b`; peers 1 and
// 2 are interchangeable (each holds one `a` item and demands `b` once),
// so whichever clusters they sit in alone cost peer 0 the same and gain
// the same from it.
func TestScanTieBreaks(t *testing.T) {
	vocab := attr.NewVocab()
	a, b := attr.NewSet(vocab.Intern("a")), attr.NewSet(vocab.Intern("b"))
	peers := make([]*peer.Peer, 3)
	wl := workload.New(3)
	for i := range peers {
		peers[i] = peer.New(i)
	}
	peers[0].SetItems([]attr.Set{b})
	wl.Add(0, a, 1)
	for _, i := range []int{1, 2} {
		peers[i].SetItems([]attr.Set{a})
		wl.Add(i, b, 1)
	}
	eng := New(peers, wl, cluster.NewSingletons(3), cluster.LinearTheta(), 1)

	check := func(stage string, wantBest cluster.CID) {
		t.Helper()
		ev := eng.NewEvaluator()
		for name, me := range map[string]MoveEval{"engine": eng.EvaluateMoves(0), "evaluator": ev.EvaluateMoves(0)} {
			if me.Best != wantBest {
				t.Fatalf("%s, %s: EvaluateMoves picked cluster %d, want %d (%+v)", stage, name, me.Best, wantBest, me)
			}
		}
		for name, ce := range map[string]ContributionEval{"engine": eng.EvaluateContribution(0), "evaluator": ev.EvaluateContribution(0)} {
			if ce.Best != wantBest {
				t.Fatalf("%s, %s: EvaluateContribution picked cluster %d, want %d (%+v)", stage, name, ce.Best, wantBest, ce)
			}
		}
	}

	// Peer 0 alone in cluster 0: clusters 1 and 2 both beat it and tie.
	if c1, c2 := eng.PeerCost(0, 1), eng.PeerCost(0, 2); c1 != c2 || !(c1 < eng.PeerCost(0, 0)) {
		t.Fatalf("costs %v and %v should tie below the current %v", c1, c2, eng.PeerCost(0, 0))
	}
	if g1, g2 := eng.Contribution(0, 1), eng.Contribution(0, 2); g1 != g2 || !(g1 > eng.Contribution(0, 0)) {
		t.Fatalf("contributions %v and %v should tie above the current %v", g1, g2, eng.Contribution(0, 0))
	}
	check("tie between two other clusters", 1)

	// Peer 1 joins peer 0: the current cluster now ties with cluster 2.
	eng.Move(1, 0)
	if cur, c2 := eng.PeerCost(0, 0), eng.PeerCost(0, 2); cur != c2 {
		t.Fatalf("current cost %v should tie with cluster 2's %v", cur, c2)
	}
	if cur, g2 := eng.Contribution(0, 0), eng.Contribution(0, 2); cur != g2 || cur == 0 {
		t.Fatalf("current contribution %v should tie with cluster 2's %v, above zero", cur, g2)
	}
	check("tie with the current cluster", 0)
}
