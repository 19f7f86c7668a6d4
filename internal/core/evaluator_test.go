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
		for _, c := range nonEmpty {
			if got, want := ev.PeerCost(p, c), eng.PeerCost(p, c); got != want {
				t.Fatalf("peer %d cluster %d: PeerCost %v vs %v", p, c, got, want)
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

// TestNonEmptyListFreshness pins the non-empty cluster list an
// evaluator reads to the configuration after every kind of membership
// mutation.
func TestNonEmptyListFreshness(t *testing.T) {
	eng := evalSystem(t, 3, 4) // 12 peers, clusters 0..3 of three each
	ev := eng.NewEvaluator()
	check := func(stage string) {
		t.Helper()
		want := eng.Config().NonEmpty()
		if got := ev.NonEmpty(); !slices.Equal(got, want) {
			t.Fatalf("%s: evaluator sees %v, configuration has %v", stage, got, want)
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
// serial evaluation in between to refresh the shared list and scan
// order for them (meaningful under -race), and holds every answer to
// the dense walk. It runs on a clustered engine, where most scans walk
// the non-empty list, and on singletons, where they walk the peer's
// cells.
func TestConcurrentScansAfterPrepareDecide(t *testing.T) {
	for name, eng := range map[string]*Engine{
		"clustered":  evalSystem(t, 4, 6),
		"singletons": fixture{alpha: 1, seed: 7}.build(),
	} {
		n := eng.NumSlots()
		const workers = 8
		evs := make([]*Evaluator, workers)
		for w := range evs {
			evs[w] = eng.NewEvaluator()
		}
		gotM := make([]MoveEval, n)
		gotC := make([]ContributionEval, n)
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
						gotM[p] = evs[w].EvaluateMoves(p)
						gotC[p] = evs[w].EvaluateContribution(p)
					}
				}(w)
			}
			wg.Wait()
			want := eng.Config().NonEmpty()
			for w := range lists {
				if !slices.Equal(lists[w], want) {
					t.Fatalf("%s round %d: evaluator %d saw clusters %v, configuration has %v", name, round, w, lists[w], want)
				}
			}
			var arms scanArms
			for p := 0; p < n; p++ {
				wantM, wantC := denseEvals(eng, p)
				if !sameMoveEval(gotM[p], wantM) {
					t.Fatalf("%s round %d peer %d: concurrent EvaluateMoves %+v, dense walk %+v", name, round, p, gotM[p], wantM)
				}
				if !sameContributionEval(gotC[p], wantC) {
					t.Fatalf("%s round %d peer %d: concurrent EvaluateContribution %+v, dense walk %+v", name, round, p, gotC[p], wantC)
				}
				arms.count(eng, p)
			}
			if name == "singletons" && (arms.moves[1] == 0 || arms.contrib[1] == 0) {
				t.Fatalf("%s round %d: no scan walked the cells (%+v)", name, round, arms)
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
// the same from it. The later cases add clusters peer 0's results do
// not reach, which cost it only their join term: two of one size tying,
// one tying the current cluster, and, under ConstTheta, three of
// different sizes tying the current cluster.
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

	// Clusters peer 0's results do not reach: peer 0 queries a and holds
	// b, peer holder holds the only a (it may be peer 0 itself), and
	// every other peer holds and queries z.
	z := attr.NewSet(vocab.Intern("z"))
	unreached := func(theta cluster.Theta, alpha float64, holder int, assign []cluster.CID) *Engine {
		peers := make([]*peer.Peer, len(assign))
		wl := workload.New(len(assign))
		for i := range peers {
			peers[i] = peer.New(i)
			peers[i].SetItems([]attr.Set{z})
			if i > 0 {
				wl.Add(i, z, 1)
			}
		}
		peers[0].SetItems([]attr.Set{b})
		peers[holder].SetItems([]attr.Set{a})
		wl.Add(0, a, 1)
		return New(peers, wl, cluster.FromAssignment(assign), theta, alpha)
	}
	checkMoves := func(stage string, eng *Engine, wantBest cluster.CID, tied ...cluster.CID) {
		t.Helper()
		for _, c := range tied[1:] {
			if got, want := eng.PeerCost(0, c), eng.PeerCost(0, tied[0]); got != want {
				t.Fatalf("%s: cluster %d costs %v, cluster %d %v; they should tie", stage, c, got, tied[0], want)
			}
		}
		ev := eng.NewEvaluator()
		want, wantC := denseEvals(eng, 0)
		for name, me := range map[string]MoveEval{"engine": eng.EvaluateMoves(0), "evaluator": ev.EvaluateMoves(0)} {
			if me.Best != wantBest || !sameMoveEval(me, want) {
				t.Fatalf("%s, %s: EvaluateMoves %+v, want cluster %d (dense walk %+v)", stage, name, me, wantBest, want)
			}
		}
		for name, ce := range map[string]ContributionEval{"engine": eng.EvaluateContribution(0), "evaluator": ev.EvaluateContribution(0)} {
			if !sameContributionEval(ce, wantC) {
				t.Fatalf("%s, %s: EvaluateContribution %+v, dense walk %+v", stage, name, ce, wantC)
			}
		}
	}

	// Peer 0 sits with 2, 3 and 4 in cluster 0; peer 1, the only holder
	// of a, sits with 5 to 8 in cluster 1, too big to join at α = 3. The
	// unreached singletons 9 and 10 tie below both: the lower ID wins.
	eng = unreached(cluster.LinearTheta(), 3, 1, []cluster.CID{0, 1, 0, 0, 0, 1, 1, 1, 1, 9, 10})
	if c9, c1 := eng.PeerCost(0, 9), eng.PeerCost(0, 1); !(c9 < c1 && c9 < eng.PeerCost(0, 0)) {
		t.Fatalf("singleton cost %v should beat cluster 1's %v and the current %v", c9, c1, eng.PeerCost(0, 0))
	}
	checkMoves("two unreached clusters of one size", eng, 9, 9, 10)

	// Peers 3 and 4 leave: the current cluster, now of two, costs what
	// joining either unreached singleton does, and keeps the tie.
	eng.Move(3, 1)
	eng.Move(4, 1)
	checkMoves("an unreached cluster tying the current one", eng, 0, 0, 9, 10)

	// Under ConstTheta every join term is the same. Peer 0 holds the only
	// a and is alone, so clusters 1 (two peers), 3 (one) and 4 (three),
	// none of which its results reach, tie with its own.
	eng = unreached(cluster.ConstTheta(), 1, 0, []cluster.CID{0, 1, 1, 3, 4, 4, 4})
	checkMoves("unreached clusters of different sizes under ConstTheta", eng, 0, 0, 1, 3, 4)
}
