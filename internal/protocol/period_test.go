package protocol

import (
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/peer"
)

// stepped runs a full period through the Period state machine with
// the given budget and returns its report.
func stepped(r *Runner, budget int) Report {
	p := r.Begin()
	for !p.Step(budget) {
	}
	return p.Report()
}

// TestPeriodMatchesRunByteIdentical pins the acceptance contract: with
// no interleaved mutations, a stepped period produces byte-identical
// moves, costs, messages and reports to the monolithic Run for every
// budget and worker count, and each Step(K) does at most K work units.
func TestPeriodMatchesRunByteIdentical(t *testing.T) {
	shapes := []struct{ groups, perGroup int }{{4, 6}, {3, 5}, {2, 9}}
	budgets := []int{1, 2, 3, 7, 0} // 0 = unbounded (whole period in one step)
	workers := []int{1, 2, 4, runtime.GOMAXPROCS(0) + 1}
	opts := Options{Epsilon: 0.001, MaxRounds: 100, AllowNewClusters: true}
	for _, sh := range shapes {
		want := NewRunner(grouped(t, sh.groups, sh.perGroup), core.NewSelfish(), opts).Run()
		// A replay of Run's rounds counts the work units done before each
		// round and after its decide scan: one per cluster scanned, then
		// one per grant served.
		ref := NewRunner(grouped(t, sh.groups, sh.perGroup), core.NewSelfish(), opts)
		ref.BeginPeriod()
		var start, scanned []int
		units := 0
		for round := 1; round <= len(want.Rounds); round++ {
			start = append(start, units)
			units += ref.Engine().Config().NumNonEmpty()
			scanned = append(scanned, units)
			units += ref.RunRound(round).Requests
		}
		unitsAt := func(pr Progress) int {
			switch pr.Phase {
			case "decide":
				return start[pr.Round-1] + pr.Pos
			case "grant":
				return scanned[pr.Round-1] + pr.Pos
			}
			return units
		}
		for _, budget := range budgets {
			for _, w := range workers {
				p := NewRunner(grouped(t, sh.groups, sh.perGroup), core.NewSelfish(),
					Options{Epsilon: 0.001, MaxRounds: 100, AllowNewClusters: true, Workers: w}).Begin()
				for fin := false; !fin; {
					before := unitsAt(p.Progress())
					fin = p.Step(budget)
					if n := unitsAt(p.Progress()) - before; budget > 0 && n > budget {
						t.Fatalf("groups=%d budget=%d workers=%d: a Step did %d work units", sh.groups, budget, w, n)
					}
				}
				got := p.Report()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("groups=%d budget=%d workers=%d: stepped report differs from Run:\n got %+v\nwant %+v",
						sh.groups, budget, w, got, want)
				}
			}
		}
	}
}

// TestRunParallelMatchesSerial pins the same contract for the
// monolithic path: Options.Workers must not change a single byte of
// Run's report, for the built-in strategies and for one defined outside
// core, which fans out like them.
func TestRunParallelMatchesSerial(t *testing.T) {
	mk := func(w int, strat core.Strategy) Report {
		return NewRunner(grouped(t, 4, 6), strat,
			Options{Epsilon: 0.001, MaxRounds: 100, AllowNewClusters: true, Workers: w}).Run()
	}
	for _, strat := range []func() core.Strategy{
		func() core.Strategy { return core.NewSelfish() },
		func() core.Strategy { return core.NewAltruistic() },
		func() core.Strategy { return core.NewHybrid(0.5) },
		func() core.Strategy { return struct{ core.Strategy }{core.NewSelfish()} },
	} {
		want := mk(1, strat())
		for _, w := range []int{2, 3, 8} {
			if got := mk(w, strat()); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d: parallel Run differs from serial", strat().Name(), w)
			}
		}
	}
}

// TestPeriodToleratesInterleavedChurn is the randomized interleaving
// property: joins, leaves and workload compactions land between steps
// of an in-progress period, and the period must still terminate with
// a coherent engine — valid configuration, fresh aggregates, live
// moves only — after which a quiesced run converges.
func TestPeriodToleratesInterleavedChurn(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xbeef))
		eng := grouped(t, 4, 5)
		r := NewRunner(eng, core.NewSelfish(), Options{Epsilon: 0.001, MaxRounds: 60, AllowNewClusters: true})

		var live []int
		refreshLive := func() {
			live = live[:0]
			for pid := 0; pid < eng.NumSlots(); pid++ {
				if eng.IsLive(pid) {
					live = append(live, pid)
				}
			}
		}
		novel := attr.ID(5000 + 100*seed)
		churn := func() {
			switch rng.IntN(4) {
			case 0: // join with a novel query (interns a fresh QID)
				pr := peer.New(-1)
				pr.SetItems([]attr.Set{attr.NewSet(attr.ID(rng.IntN(4)))})
				novel++
				eng.AddPeer(pr, []attr.Set{attr.NewSet(novel)}, []int{2}, cluster.None)
			case 1: // leave a random live peer
				refreshLive()
				if len(live) > 2 {
					eng.RemovePeer(live[rng.IntN(len(live))])
				}
			case 2: // compact dead workload rows mid-period
				eng.Compact(0)
			case 3: // quiet step
			}
		}

		for period := 0; period < 3; period++ {
			p := r.Begin()
			steps := 0
			for !p.Step(1 + rng.IntN(5)) {
				steps++
				if steps > 100000 {
					t.Fatalf("seed %d: period %d never terminated", seed, period)
				}
				churn()
				if eng.Stale() {
					t.Fatalf("seed %d: engine went stale mid-period", seed)
				}
				if err := eng.Config().Validate(); err != nil {
					t.Fatalf("seed %d: invalid config mid-period: %v", seed, err)
				}
			}
			rpt := p.Report()
			if rpt.RoundsRun == 0 || rpt.RoundsRun > 60 {
				t.Fatalf("seed %d: period ran %d rounds", seed, rpt.RoundsRun)
			}
			// Every granted move references a peer that was live and in
			// its From cluster at grant time; after the period all moved
			// peers that are still live sit where the protocol put them
			// or where later rounds moved them — at minimum the grant
			// itself must have acted on a live peer.
			for _, rr := range rpt.Rounds {
				for _, mv := range rr.Moves {
					if mv.From == mv.To {
						t.Fatalf("seed %d: self-move granted: %+v", seed, mv)
					}
				}
			}
		}

		// Churn stops; maintenance must converge to a state where no
		// peer gains more than ε by moving to an existing cluster (the
		// drift rule legitimately gates new-cluster moves, so full Nash
		// including the go-alone option is not guaranteed).
		rpt := r.Run()
		if !rpt.Converged {
			t.Fatalf("seed %d: no convergence after churn stopped: %+v", seed, rpt)
		}
		for pid := 0; pid < eng.NumSlots(); pid++ {
			if !eng.IsLive(pid) {
				continue
			}
			if ev := eng.EvaluateMoves(pid); ev.Gain() > 0.001 {
				t.Fatalf("seed %d: peer %d still gains %g by moving to cluster %d",
					seed, pid, ev.Gain(), ev.Best)
			}
		}
		if err := eng.Config().Validate(); err != nil {
			t.Fatalf("seed %d: final config invalid: %v", seed, err)
		}
	}
}

// TestPeriodGrantDropsDepartedPeer pins the stale-request guard: a
// peer that leaves (and whose slot a newcomer reuses) between the
// decide scan and the grant service must not be relocated.
func TestPeriodGrantDropsDepartedPeer(t *testing.T) {
	eng := grouped(t, 3, 5)
	r := NewRunner(eng, core.NewSelfish(), Options{Epsilon: 0.001, MaxRounds: 50, AllowNewClusters: true})
	p := r.Begin()
	// Step with budget 1 until the decide phase completes (phase flips
	// to grant with the requests frozen).
	for p.Progress().Phase == "decide" {
		if p.Step(1) {
			t.Skip("period finished during decide; system converged instantly")
		}
	}
	reqs := append([]Request(nil), p.requests...)
	if len(reqs) == 0 {
		t.Fatal("no requests to stale")
	}
	victim := reqs[0].Peer
	gen := eng.SlotGeneration(victim)
	eng.RemovePeer(victim)
	pr := peer.New(-1)
	pr.SetItems([]attr.Set{attr.NewSet(attr.ID(0))})
	if pid := eng.AddPeer(pr, []attr.Set{attr.NewSet(attr.ID(0))}, []int{1}, cluster.None); pid != victim {
		t.Fatalf("newcomer got slot %d, want reused slot %d", pid, victim)
	}
	if eng.SlotGeneration(victim) == gen {
		t.Fatal("slot generation did not advance on reuse")
	}
	for !p.Step(1) {
	}
	for _, rr := range p.Report().Rounds[:1] {
		for _, mv := range rr.Moves {
			if mv.Peer == victim {
				t.Fatalf("round 1 relocated the reused slot %d: %+v", victim, mv)
			}
		}
	}
}

// TestBeginPeriodClearsLockTables is the regression pin for the
// carried-lock bug: lock entries left behind (an aborted grant phase,
// or any stale state) must be cleared by BeginPeriod, not survive
// into the next period and veto its grants.
func TestBeginPeriodClearsLockTables(t *testing.T) {
	eng := grouped(t, 4, 6)
	r := NewRunner(eng, core.NewSelfish(), Options{Epsilon: 0.001, MaxRounds: 100, AllowNewClusters: true})
	// Force the tables to exist, then poison every entry the way a
	// crashed/aborted grant phase would have.
	r.grants.Grow(eng.Config().Cmax())
	for c := range r.grants.joinLocked {
		r.grants.joinLocked[c] = true
		r.grants.leaveLocked[c] = true
	}
	rpt := r.Run() // Run -> BeginPeriod must clear the poison
	if !rpt.Converged {
		t.Fatalf("run did not converge: %+v", rpt)
	}
	granted := 0
	for _, rr := range rpt.Rounds {
		granted += rr.Granted
	}
	if granted == 0 {
		t.Fatal("stale lock tables vetoed every grant (BeginPeriod did not clear them)")
	}
}

// TestPeriodAbortReleasesLocks pins Abort mid-grant: locks set by
// already-served grants are released, and the next period behaves as
// if none of it happened.
func TestPeriodAbortReleasesLocks(t *testing.T) {
	eng := grouped(t, 4, 6)
	r := NewRunner(eng, core.NewSelfish(), Options{Epsilon: 0.001, MaxRounds: 100, AllowNewClusters: true})
	p := r.Begin()
	for p.Progress().Phase != "grant" {
		if p.Step(1) {
			t.Skip("converged before any grant phase")
		}
	}
	// Serve one grant, then abort with its locks still set.
	if p.Step(1) {
		t.Skip("period finished in one grant")
	}
	if p.Moves() == 0 {
		t.Skip("first grant was vetoed; nothing locked")
	}
	p.Abort()
	if !p.Done() {
		t.Fatal("aborted period not done")
	}
	for c := range r.grants.joinLocked {
		if r.grants.joinLocked[c] || r.grants.leaveLocked[c] {
			t.Fatalf("cluster %d still locked after Abort", c)
		}
	}
	// A fresh period must complete normally.
	rpt := stepped(r, 3)
	if !rpt.Converged {
		t.Fatalf("post-abort period did not converge: %+v", rpt)
	}
}

// TestPeriodMidPeriodCompactionInvisible extends the PR 3 contract to
// stepped periods: compacting between steps changes no subsequent
// decision or cost against an identical system that never compacts.
func TestPeriodMidPeriodCompactionInvisible(t *testing.T) {
	mk := func() (*core.Engine, *Runner) {
		eng := grouped(t, 3, 5)
		for i := 0; i < 12; i++ {
			churnNovel(eng, attr.ID(3000+i))
		}
		return eng, NewRunner(eng, core.NewSelfish(), Options{Epsilon: 0.001, MaxRounds: 50, AllowNewClusters: true})
	}
	engA, ra := mk()
	engB, rb := mk()
	pa, pb := ra.Begin(), rb.Begin()
	compacted := false
	for {
		da := pa.Step(2)
		db := pb.Step(2)
		if da != db {
			t.Fatal("stepped periods diverged in length")
		}
		if !compacted {
			if engB.Compact(0) == 0 {
				t.Fatal("compaction removed nothing")
			}
			compacted = true
		}
		if da {
			break
		}
	}
	ra2, rb2 := pa.Report(), pb.Report()
	if ra2.FinalSCost != rb2.FinalSCost || ra2.FinalWCost != rb2.FinalWCost ||
		!reflect.DeepEqual(ra2.Rounds, rb2.Rounds) {
		t.Fatalf("mid-period compaction visible:\n %+v\nvs %+v", ra2, rb2)
	}
	if engA.SCost() != engB.SCost() {
		t.Fatal("engines diverged")
	}
}

// TestPeriodStepAllocFree pins the steady-state allocation contract:
// a full quiescent maintenance period driven through Begin/Step —
// including its report bookkeeping — allocates nothing once warm.
func TestPeriodStepAllocFree(t *testing.T) {
	eng := grouped(t, 4, 6)
	r := NewRunner(eng, core.NewSelfish(), Options{Epsilon: 0.001, MaxRounds: 100, AllowNewClusters: true})
	stepped(r, 4) // converge + warm every scratch buffer
	stepped(r, 4) // one full quiescent period warms report storage
	avg := testing.AllocsPerRun(50, func() {
		p := r.Begin()
		for !p.Step(4) {
		}
		if !p.Report().Converged {
			t.Fatal("quiescent period did not converge")
		}
	})
	if avg != 0 {
		t.Fatalf("quiescent stepped period allocates %v allocs/op, want 0", avg)
	}
}

// TestPeriodProgress sanity-checks the progress surface the serving
// layer exports.
func TestPeriodProgress(t *testing.T) {
	eng := grouped(t, 4, 6)
	r := NewRunner(eng, core.NewSelfish(), Options{Epsilon: 0.001, MaxRounds: 100, AllowNewClusters: true})
	p := r.Begin()
	pr := p.Progress()
	if pr.Phase != "decide" || pr.Round != 1 || pr.Pos != 0 || pr.Total != eng.Config().NumNonEmpty() {
		t.Fatalf("initial progress %+v", pr)
	}
	p.Step(2)
	pr = p.Progress()
	if pr.Steps != 1 {
		t.Fatalf("steps=%d want 1", pr.Steps)
	}
	for !p.Step(2) {
	}
	pr = p.Progress()
	if pr.Phase != "done" {
		t.Fatalf("final phase %q", pr.Phase)
	}
	if math.IsNaN(p.Report().FinalSCost) {
		t.Fatal("no final cost")
	}
}

// TestRunRoundSupersedesPeriod pins the review finding: a monolithic
// RunRound issued while a stepped period is mid-grant must abort the
// period (releasing its grant locks) rather than inherit them.
func TestRunRoundSupersedesPeriod(t *testing.T) {
	eng := grouped(t, 4, 6)
	r := NewRunner(eng, core.NewSelfish(), Options{Epsilon: 0.001, MaxRounds: 100, AllowNewClusters: true})
	p := r.Begin()
	for p.Progress().Phase != "grant" {
		if p.Step(1) {
			t.Skip("converged before any grant phase")
		}
	}
	if p.Step(1) || p.Moves() == 0 {
		t.Skip("no mid-grant lock state to supersede")
	}
	r.RunRound(1)
	if !p.Done() {
		t.Fatal("RunRound left the stepped period resumable")
	}
	for c := range r.grants.joinLocked {
		if r.grants.joinLocked[c] || r.grants.leaveLocked[c] {
			t.Fatalf("cluster %d still locked after RunRound superseded the period", c)
		}
	}
	if rpt := r.Run(); !rpt.Converged {
		t.Fatalf("post-supersede run did not converge: %+v", rpt)
	}
}

// TestBeginSupersededHandleStaysFrozen pins the invalidation
// contract: a Begin that supersedes an unfinished period must leave
// the old handle frozen at done (its Steps are no-ops on the new
// period), while a finished period's storage is recycled.
func TestBeginSupersededHandleStaysFrozen(t *testing.T) {
	eng := grouped(t, 4, 6)
	r := NewRunner(eng, core.NewSelfish(), Options{Epsilon: 0.001, MaxRounds: 100, AllowNewClusters: true})
	p1 := r.Begin()
	if p1.Step(1) {
		t.Skip("period finished in one unit")
	}
	p2 := r.Begin() // supersedes the unfinished p1
	if p1 == p2 {
		t.Fatal("superseding Begin reused the unfinished period's storage")
	}
	if !p1.Done() {
		t.Fatal("superseded period not frozen")
	}
	before := p2.Progress()
	if !p1.Step(5) {
		t.Fatal("frozen handle's Step did not report done")
	}
	if after := p2.Progress(); after != before {
		t.Fatalf("stale handle advanced the new period: %+v -> %+v", before, after)
	}
	for !p2.Step(3) {
	}
	if !p2.Report().Converged {
		t.Fatalf("new period did not converge: %+v", p2.Report())
	}
	// A finished period's storage is recycled by the next Begin.
	if p3 := r.Begin(); p3 != p2 {
		t.Fatal("finished period's storage was not recycled")
	}
}

// TestPeriodAppendGrantsSince pins the drain cursor a replicating
// serving layer relies on: draining after every step — any budget —
// yields each granted move exactly once, in grant order, identical to
// the finished report's concatenated round moves, and every drained
// request carries a concrete resolved target (no NewCluster
// placeholders).
func TestPeriodAppendGrantsSince(t *testing.T) {
	want := func() []Request {
		r := NewRunner(grouped(t, 4, 6), core.NewSelfish(),
			Options{Epsilon: 0.001, MaxRounds: 100, AllowNewClusters: true})
		rpt := stepped(r, 0)
		var all []Request
		for _, rd := range rpt.Rounds {
			all = append(all, rd.Moves...)
		}
		return all
	}()
	if len(want) == 0 {
		t.Fatal("scenario granted no moves; test is vacuous")
	}
	for _, budget := range []int{1, 2, 5, 17} {
		r := NewRunner(grouped(t, 4, 6), core.NewSelfish(),
			Options{Epsilon: 0.001, MaxRounds: 100, AllowNewClusters: true})
		p := r.Begin()
		var drained []Request
		for done := false; !done; {
			done = p.Step(budget)
			if n := p.Moves(); n > len(drained) {
				drained = p.AppendGrantsSince(drained, len(drained))
				if len(drained) != n {
					t.Fatalf("budget=%d: drained %d, Moves() says %d", budget, len(drained), n)
				}
			}
		}
		if !reflect.DeepEqual(drained, want) {
			t.Fatalf("budget=%d: drained grants differ from report moves:\n got %+v\nwant %+v", budget, drained, want)
		}
		for i, g := range drained {
			if g.NewCluster && g.To == g.From {
				t.Fatalf("budget=%d: grant %d unresolved new-cluster target: %+v", budget, i, g)
			}
		}
	}
}
