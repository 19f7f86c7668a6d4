package protocol

import (
	"math"
	"testing"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/peer"
	"repro/internal/workload"
)

// grouped builds a clean k-group system from singletons: group g's
// peers hold and query attribute g. Stable partitions separate groups.
func grouped(t testing.TB, groups, perGroup int) *core.Engine {
	t.Helper()
	n := groups * perGroup
	vocab := attr.NewVocab()
	ids := make([]attr.ID, groups)
	for g := range ids {
		ids[g] = vocab.Intern(string(rune('a' + g)))
	}
	peers := make([]*peer.Peer, n)
	wl := workload.New(n)
	for i := 0; i < n; i++ {
		g := i % groups
		p := peer.New(i)
		p.SetItems([]attr.Set{attr.NewSet(ids[g]), attr.NewSet(ids[g])})
		peers[i] = p
		wl.Add(i, attr.NewSet(ids[g]), 2)
	}
	return core.New(peers, wl, cluster.NewSingletons(n), cluster.LinearTheta(), 1)
}

func TestProtocolConvergesAndSeparatesGroups(t *testing.T) {
	eng := grouped(t, 4, 6)
	r := NewRunner(eng, core.NewSelfish(), Options{Epsilon: 0.001, MaxRounds: 100, AllowNewClusters: true})
	rpt := r.Run()
	if !rpt.Converged {
		t.Fatalf("did not converge: %+v", rpt)
	}
	if rpt.FinalClusters != 4 {
		t.Fatalf("clusters=%d want 4 (sizes %v)", rpt.FinalClusters, eng.Config().Sizes())
	}
	if rpt.FinalSCost >= rpt.InitialSCost {
		t.Fatalf("cost did not improve: %g -> %g", rpt.InitialSCost, rpt.FinalSCost)
	}
	// At the separated partition the recall cost is zero: each peer
	// pays only membership 6/24.
	if want := 6.0 / 24; !within(rpt.FinalSCost, want, 1e-9) {
		t.Fatalf("final SCost=%g want %g", rpt.FinalSCost, want)
	}
	if ok, w := eng.IsNash(0.001); !ok {
		t.Fatalf("final state not Nash: %+v", w)
	}
}

func TestAtMostOneRequestPerClusterAndLockRule(t *testing.T) {
	eng := grouped(t, 3, 5)
	r := NewRunner(eng, core.NewSelfish(), Options{Epsilon: 0.001, MaxRounds: 50, AllowNewClusters: true})
	r.BeginPeriod()
	for round := 1; round <= 50; round++ {
		before := eng.Config().NumNonEmpty()
		rr := r.RunRound(round)
		if rr.Requests > before {
			t.Fatalf("round %d: %d requests from %d clusters", round, rr.Requests, before)
		}
		// Lock rule over the granted sequence: once a move c_i -> c_j is
		// granted, no later grant may join c_i or leave c_j.
		joinLocked := map[cluster.CID]bool{}
		leaveLocked := map[cluster.CID]bool{}
		for _, mv := range rr.Moves {
			if leaveLocked[mv.From] {
				t.Fatalf("round %d: grant leaves leave-locked cluster %d", round, mv.From)
			}
			if joinLocked[mv.To] {
				t.Fatalf("round %d: grant joins join-locked cluster %d", round, mv.To)
			}
			joinLocked[mv.From] = true
			leaveLocked[mv.To] = true
		}
		// Every granted gain exceeds epsilon.
		for _, mv := range rr.Moves {
			if mv.Gain <= 0.001 {
				t.Fatalf("round %d: granted gain %g <= epsilon", round, mv.Gain)
			}
		}
		if rr.Requests == 0 {
			return
		}
	}
	t.Fatal("never quiesced")
}

func TestSourceClusterUniquePerRound(t *testing.T) {
	eng := grouped(t, 4, 5)
	r := NewRunner(eng, core.NewSelfish(), Options{Epsilon: 0.001, MaxRounds: 50, AllowNewClusters: false})
	r.BeginPeriod()
	for round := 1; round <= 50; round++ {
		rr := r.RunRound(round)
		seen := map[cluster.CID]bool{}
		for _, mv := range rr.Moves {
			if seen[mv.From] {
				t.Fatalf("round %d: two grants out of cluster %d", round, mv.From)
			}
			seen[mv.From] = true
		}
		if rr.Requests == 0 {
			return
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Report {
		eng := grouped(t, 4, 6)
		return NewRunner(eng, core.NewSelfish(), Options{Epsilon: 0.001, MaxRounds: 100, AllowNewClusters: true}).Run()
	}
	a, b := run(), run()
	if a.RoundsRun != b.RoundsRun || a.Messages != b.Messages ||
		a.FinalSCost != b.FinalSCost || a.FinalClusters != b.FinalClusters {
		t.Fatalf("non-deterministic runs:\n%+v\n%+v", a, b)
	}
	for i := range a.Rounds {
		if a.Rounds[i].Granted != b.Rounds[i].Granted {
			t.Fatalf("round %d granted differs", i+1)
		}
	}
}

func TestAllowNewClustersFalseKeepsClusterSet(t *testing.T) {
	eng := grouped(t, 3, 4)
	// Start from two clusters so there is pressure to split.
	for p := 0; p < 12; p++ {
		eng.Move(p, cluster.CID(p%2))
	}
	initial := map[cluster.CID]bool{}
	for _, c := range eng.Config().NonEmpty() {
		initial[c] = true
	}
	r := NewRunner(eng, core.NewSelfish(), Options{Epsilon: 0.001, MaxRounds: 60, AllowNewClusters: false})
	r.Run()
	for _, c := range eng.Config().NonEmpty() {
		if !initial[c] {
			t.Fatalf("new cluster %d appeared despite AllowNewClusters=false", c)
		}
	}
}

func TestMessagesAccounted(t *testing.T) {
	eng := grouped(t, 3, 5)
	rpt := NewRunner(eng, core.NewSelfish(), Options{Epsilon: 0.001, MaxRounds: 60, AllowNewClusters: true}).Run()
	if rpt.Messages <= 0 {
		t.Fatal("no messages counted")
	}
	sum := 0
	for _, rr := range rpt.Rounds {
		sum += rr.Messages
	}
	if sum != rpt.Messages {
		t.Fatalf("message total %d != per-round sum %d", rpt.Messages, sum)
	}
}

func TestEffectiveRounds(t *testing.T) {
	eng := grouped(t, 2, 4)
	rpt := NewRunner(eng, core.NewSelfish(), Options{Epsilon: 0.001, MaxRounds: 60, AllowNewClusters: true}).Run()
	if !rpt.Converged {
		t.Fatal("expected convergence")
	}
	if rpt.EffectiveRounds() != rpt.RoundsRun-1 {
		t.Fatalf("EffectiveRounds=%d RoundsRun=%d", rpt.EffectiveRounds(), rpt.RoundsRun)
	}
}

func TestCostTrajectoryShape(t *testing.T) {
	eng := grouped(t, 3, 4)
	rpt := NewRunner(eng, core.NewSelfish(), Options{Epsilon: 0.001, MaxRounds: 60, AllowNewClusters: true}).Run()
	rounds, sc, wc := rpt.CostTrajectory()
	if len(rounds) != rpt.RoundsRun+1 || len(sc) != len(rounds) || len(wc) != len(rounds) {
		t.Fatalf("trajectory lengths %d/%d/%d rounds=%d", len(rounds), len(sc), len(wc), rpt.RoundsRun)
	}
	if rounds[0] != 0 || sc[0] != rpt.InitialSCost {
		t.Fatal("trajectory must start at the initial cost")
	}
	if sc[len(sc)-1] != rpt.FinalSCost {
		t.Fatal("trajectory must end at the final cost")
	}
}

func TestEpsilonStopsEarly(t *testing.T) {
	strict := grouped(t, 4, 6)
	loose := grouped(t, 4, 6)
	rs := NewRunner(strict, core.NewSelfish(), Options{Epsilon: 0.0001, MaxRounds: 200, AllowNewClusters: true}).Run()
	rl := NewRunner(loose, core.NewSelfish(), Options{Epsilon: 0.3, MaxRounds: 200, AllowNewClusters: true}).Run()
	if !rl.Converged {
		t.Fatal("loose run did not converge")
	}
	if rl.EffectiveRounds() > rs.EffectiveRounds() {
		t.Fatalf("higher epsilon ran longer: %d > %d", rl.EffectiveRounds(), rs.EffectiveRounds())
	}
}

func TestNewClusterCreationOnDrift(t *testing.T) {
	// Eight peers, each holding and querying its own private attribute
	// (no peer needs any other). Half start in cluster 0, half in
	// cluster 1; the period baseline is taken there (membership cost
	// θ(4)/8 = 0.5 each). Then cluster 1's peers are forced into
	// cluster 0 — membership doubles with no recall to gain, no other
	// non-empty cluster exists, and being alone is far cheaper, so the
	// drift rule of §3.2 must fire and found new clusters.
	vocab := attr.NewVocab()
	n := 8
	peers := make([]*peer.Peer, n)
	wl := workload.New(n)
	assign := make([]cluster.CID, n)
	for i := 0; i < n; i++ {
		own := vocab.Intern(string(rune('a' + i)))
		p := peer.New(i)
		p.SetItems([]attr.Set{attr.NewSet(own)})
		peers[i] = p
		wl.Add(i, attr.NewSet(own), 2)
		assign[i] = cluster.CID(i / 4) // 0,0,0,0,1,1,1,1
	}
	eng := core.New(peers, wl, cluster.FromAssignment(assign), cluster.LinearTheta(), 1)
	r := NewRunner(eng, core.NewSelfish(), Options{Epsilon: 0.001, MaxRounds: 30, AllowNewClusters: true})
	r.BeginPeriod()

	// The overlay degrades: cluster 1's peers all pile into cluster 0.
	for i := 4; i < n; i++ {
		eng.Move(i, 0)
	}

	sawNew := false
	for round := 1; round <= 30; round++ {
		rr := r.RunRound(round)
		for _, mv := range rr.Moves {
			if mv.NewCluster {
				sawNew = true
			}
		}
		if rr.Requests == 0 {
			break
		}
	}
	if !sawNew {
		t.Fatal("no new cluster founded despite drift")
	}
	if eng.Config().NumNonEmpty() < 2 {
		t.Fatalf("expected a split, sizes %v", eng.Config().Sizes())
	}
}

func within(got, want, tol float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= tol
}

// baselineProbe records the baseline each peer decides with.
type baselineProbe struct {
	got map[int]float64
}

func (b *baselineProbe) Name() string { return "probe" }

func (b *baselineProbe) Decide(ev *core.Evaluator, p int, baseline float64, _ bool) core.Decision {
	b.got[p] = baseline
	return core.Decision{Peer: p, From: ev.Engine().Config().ClusterOf(p)}
}

// TestMidPeriodJoinGetsNaNBaseline pins the slot-generation guard: a
// newcomer that joins mid-period — whether into a reused slot or a
// fresh one — must decide with a NaN baseline, never the departed
// peer's snapshot.
func TestMidPeriodJoinGetsNaNBaseline(t *testing.T) {
	eng := grouped(t, 3, 4)
	probe := &baselineProbe{got: map[int]float64{}}
	r := NewRunner(eng, probe, Options{Epsilon: 0.001, MaxRounds: 10, AllowNewClusters: true})
	r.BeginPeriod()

	// Peer 5 departs; a newcomer reuses its slot mid-period. A second
	// newcomer takes a fresh slot beyond the baseline's length.
	eng.RemovePeer(5)
	joiner := peer.New(-1)
	joiner.SetItems([]attr.Set{attr.NewSet(0)})
	if pid := eng.AddPeer(joiner, []attr.Set{attr.NewSet(0)}, []int{2}, cluster.None); pid != 5 {
		t.Fatalf("joiner got slot %d, want reused slot 5", pid)
	}
	fresh := peer.New(-1)
	fresh.SetItems([]attr.Set{attr.NewSet(1)})
	freshID := eng.AddPeer(fresh, []attr.Set{attr.NewSet(1)}, []int{2}, cluster.None)

	r.RunRound(1)
	for _, pid := range []int{5, freshID} {
		got, ok := probe.got[pid]
		if !ok {
			t.Fatalf("peer %d never decided", pid)
		}
		if !math.IsNaN(got) {
			t.Errorf("mid-period joiner %d decided with baseline %g, want NaN", pid, got)
		}
	}
	// A peer present at the snapshot keeps its real baseline.
	if got := probe.got[0]; math.IsNaN(got) {
		t.Error("pre-existing peer 0 lost its baseline")
	}
}

// churnNovel joins then retires a throwaway peer whose workload is the
// novel single-attribute query `id`, leaving a dead QID behind.
func churnNovel(eng *core.Engine, id attr.ID) {
	pr := peer.New(-1)
	pr.SetItems([]attr.Set{attr.NewSet(id)})
	pid := eng.AddPeer(pr, []attr.Set{attr.NewSet(id)}, []int{3}, cluster.None)
	eng.RemovePeer(pid)
}

// TestMidPeriodCompactionIsInvisible pins the compaction/protocol
// contract: compacting dead QIDs between rounds — mid-period, without
// re-snapshotting baselines — changes nothing about the run. Two
// identical systems churn identically; one compacts after round 1;
// every subsequent round must grant the same moves at the same costs.
func TestMidPeriodCompactionIsInvisible(t *testing.T) {
	mk := func() (*core.Engine, *Runner) {
		eng := grouped(t, 3, 5)
		for i := 0; i < 20; i++ {
			churnNovel(eng, attr.ID(1000+i))
		}
		return eng, NewRunner(eng, core.NewSelfish(), Options{Epsilon: 0.001, MaxRounds: 50, AllowNewClusters: true})
	}
	engA, ra := mk()
	engB, rb := mk()
	ra.BeginPeriod()
	rb.BeginPeriod()
	ra.RunRound(1)
	rb.RunRound(1)

	if engB.DeadQueries(0) == 0 {
		t.Fatal("churn left no dead queries")
	}
	if engB.Compact(0) == 0 {
		t.Fatal("compaction removed nothing")
	}
	// Reclaimed QIDs get reused by fresh novel queries on both sides;
	// on B they overlay compacted rows, on A they extend the arrays.
	churnNovel(engA, 2000)
	churnNovel(engB, 2000)

	for round := 2; round <= 10; round++ {
		rrA := ra.RunRound(round)
		rrB := rb.RunRound(round)
		if rrA.SCost != rrB.SCost || rrA.WCost != rrB.WCost {
			t.Fatalf("round %d: costs diverged: scost %v vs %v, wcost %v vs %v",
				round, rrA.SCost, rrB.SCost, rrA.WCost, rrB.WCost)
		}
		if len(rrA.Moves) != len(rrB.Moves) {
			t.Fatalf("round %d: %d vs %d moves", round, len(rrA.Moves), len(rrB.Moves))
		}
		for i := range rrA.Moves {
			if rrA.Moves[i] != rrB.Moves[i] {
				t.Fatalf("round %d move %d: %+v vs %+v", round, i, rrA.Moves[i], rrB.Moves[i])
			}
		}
	}
}
