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

// twinSystems builds two byte-identical engines and runners, one
// scanning phase 1 serially and one fanning it over w workers. Because
// engine mutations are deterministic in their arguments (slot reuse
// included), replaying the same op schedule on both keeps them in
// lockstep — unless the fan-out changes a decision, which is exactly
// what the callers assert never happens.
func twinSystems(t testing.TB, groups, perGroup int, strat func() core.Strategy, w int) (engS, engW *core.Engine, rs, rw *Runner) {
	engS = grouped(t, groups, perGroup)
	engW = grouped(t, groups, perGroup)
	opts := Options{Epsilon: 0.001, MaxRounds: 60, AllowNewClusters: true}
	rs = NewRunner(engS, strat(), opts)
	opts.Workers = w
	rw = NewRunner(engW, strat(), opts)
	return engS, engW, rs, rw
}

// livePeers lists the engine's occupied slots in ascending order.
func livePeers(eng *core.Engine) []int {
	live := make([]int, 0, eng.NumSlots())
	for pid := 0; pid < eng.NumSlots(); pid++ {
		if eng.IsLive(pid) {
			live = append(live, pid)
		}
	}
	return live
}

// twinJoin adds the same one-item, one-query peer to both engines.
func twinJoin(engS, engW *core.Engine, items, q attr.Set, count int) {
	for _, eng := range []*core.Engine{engS, engW} {
		pr := peer.New(-1)
		pr.SetItems([]attr.Set{items})
		eng.AddPeer(pr, []attr.Set{q}, []int{count}, cluster.None)
	}
}

// twinChurn applies one random membership/workload mutation to both
// engines with identical arguments. Argument choices derive only from
// rng and engS's state; lockstep (checked by the callers) guarantees
// engW agrees on liveness, so the op is valid on both.
func twinChurn(engS, engW *core.Engine, rng *rand.Rand, novel *attr.ID) {
	live := livePeers(engS)
	switch rng.IntN(5) {
	case 0: // join, half the time with a never-seen query (fresh QID row)
		q := attr.NewSet(attr.ID(rng.IntN(4)))
		if rng.IntN(2) == 0 {
			*novel++
			q = attr.NewSet(*novel)
		}
		twinJoin(engS, engW, attr.NewSet(attr.ID(rng.IntN(4))), q, 1+rng.IntN(3))
	case 1: // leave
		if len(live) > 2 {
			pid := live[rng.IntN(len(live))]
			engS.RemovePeer(pid)
			engW.RemovePeer(pid)
		}
	case 2: // out-of-band move (a relocation no round granted)
		pid := live[rng.IntN(len(live))]
		to := cluster.CID(rng.IntN(engS.Config().Cmax()))
		engS.Move(pid, to)
		engW.Move(pid, to)
	case 3: // workload compaction (QID remap)
		engS.Compact(0)
		engW.Compact(0)
	case 4: // quiet step
	}
}

// requireLockstep fails unless the two engines hold bit-identical
// configurations and costs, and each engine's incrementally kept costs
// sit within 1e-9 of a from-scratch Rebuild of its own clone.
func requireLockstep(t *testing.T, engS, engW *core.Engine, stage string) {
	t.Helper()
	if engS.NumSlots() != engW.NumSlots() {
		t.Fatalf("%s: slot counts diverged: serial %d, workers %d", stage, engS.NumSlots(), engW.NumSlots())
	}
	cfgS, cfgW := engS.Config(), engW.Config()
	for pid := 0; pid < engS.NumSlots(); pid++ {
		if engS.IsLive(pid) != engW.IsLive(pid) {
			t.Fatalf("%s: liveness diverged at peer %d", stage, pid)
		}
		if engS.IsLive(pid) && cfgS.ClusterOf(pid) != cfgW.ClusterOf(pid) {
			t.Fatalf("%s: peer %d in cluster %d serial, %d workers",
				stage, pid, cfgS.ClusterOf(pid), cfgW.ClusterOf(pid))
		}
	}
	if sb, wb := math.Float64bits(engS.SCostNormalized()), math.Float64bits(engW.SCostNormalized()); sb != wb {
		t.Fatalf("%s: SCost bits diverged: serial %x, workers %x", stage, sb, wb)
	}
	for _, eng := range []*core.Engine{engS, engW} {
		ref := eng.Clone()
		ref.Rebuild()
		if got, want := eng.SCostNormalized(), ref.SCostNormalized(); math.Abs(got-want) > 1e-9 {
			t.Fatalf("%s: SCost %v drifted from a rebuilt clone's %v", stage, got, want)
		}
		if got, want := eng.WCostNormalized(), ref.WCostNormalized(); math.Abs(got-want) > 1e-9 {
			t.Fatalf("%s: WCost %v drifted from a rebuilt clone's %v", stage, got, want)
		}
	}
}

// TestSteppedWorkersMatchSerialUnderChurn drives a serial runner and a
// stepped runner with w decide workers through identical randomized
// join/leave/move/compact/reform interleavings: period reports and
// final configurations must be byte-identical and every engine's costs
// must match a rebuilt clone's, for every strategy, step budget and
// worker count. With a budget the serial twin steps on the same cuts
// (churn lands between steps, so both must see it at the same points);
// with budget 0 it is the monolithic Run against Begin + Step(0), and
// the churn lands between periods. Run under -race this also checks the
// frozen-engine concurrent-read contract of the per-worker evaluators.
func TestSteppedWorkersMatchSerialUnderChurn(t *testing.T) {
	strategies := []struct {
		name string
		mk   func() core.Strategy
	}{
		{"selfish", func() core.Strategy { return core.NewSelfish() }},
		{"altruistic", func() core.Strategy { return core.NewAltruistic() }},
		{"hybrid", func() core.Strategy { return core.NewHybrid(0.5) }},
	}
	budgets := []int{1, 3, 0} // 0 = whole period in one step
	workers := []int{1, 2, runtime.GOMAXPROCS(0) + 1}
	for _, st := range strategies {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, budget := range budgets {
				for _, w := range workers {
					rng := rand.New(rand.NewPCG(seed, 0xd1)) // one schedule per (seed,budget,w)
					engS, engW, rs, rw := twinSystems(t, 4, 5, st.mk, w)
					novel := attr.ID(6000 + 100*seed)
					for period := 0; period < 3; period++ {
						var got, want Report
						if budget == 0 {
							want = rs.Run()
							pw := rw.Begin()
							pw.Step(0)
							got = pw.Report()
						} else {
							ps, pw := rs.Begin(), rw.Begin()
							for {
								doneS := ps.Step(budget)
								doneW := pw.Step(budget)
								if doneS != doneW {
									t.Fatalf("%s seed %d budget %d workers %d period %d: serial done=%v, workers done=%v",
										st.name, seed, budget, w, period, doneS, doneW)
								}
								if doneS {
									break
								}
								twinChurn(engS, engW, rng, &novel)
							}
							got, want = pw.Report(), ps.Report()
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s seed %d budget %d workers %d period %d: reports diverged:\nworkers %+v\nserial  %+v",
								st.name, seed, budget, w, period, got, want)
						}
						requireLockstep(t, engS, engW, st.name)
						twinChurn(engS, engW, rng, &novel)
					}
				}
			}
		}
	}
}

// FuzzSteppedWorkersMatchSerial is the one fuzzer that mutates an
// engine: an arbitrary byte string decodes to an interleaving of
// joins, leaves, moves, compactions, period steps and whole rounds,
// applied to a serial twin and a two-worker twin. Any divergence — in
// a step's outcome, a report or the configuration — or any drift of an
// engine's incremental costs from a rebuilt clone's fails.
func FuzzSteppedWorkersMatchSerial(f *testing.F) {
	f.Add([]byte{0x04, 0x00, 0x04, 0x01})                                                 // a whole period, then the first step of the next
	f.Add([]byte{0x00, 0x03, 0x04, 0x02, 0x01, 0x00, 0x04, 0x02})                         // join, step, leave mid-period, step
	f.Add([]byte{0x02, 0x07, 0x03, 0x00, 0x05, 0x02, 0x04, 0x00})                         // move, compact, round, period
	f.Add([]byte{0x00, 0x01, 0x00, 0x02, 0x02, 0x09, 0x04, 0x01, 0x04, 0x01, 0x05, 0x02}) // churn burst, two steps, a round that supersedes the period
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 128 {
			ops = ops[:128]
		}
		engS, engW, rs, rw := twinSystems(t, 3, 4, func() core.Strategy { return core.NewSelfish() }, 2)
		novel := attr.ID(7000)
		var ps, pw *Period
		round := 0
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], int(ops[i+1])
			live := livePeers(engS)
			switch op % 6 {
			case 0: // join
				q := attr.NewSet(attr.ID(arg % 3))
				if arg&1 == 1 {
					novel++
					q = attr.NewSet(novel)
				}
				twinJoin(engS, engW, attr.NewSet(attr.ID(arg%3)), q, 1+arg%3)
			case 1: // leave
				if len(live) > 2 {
					pid := live[arg%len(live)]
					engS.RemovePeer(pid)
					engW.RemovePeer(pid)
				}
			case 2: // move
				pid := live[arg%len(live)]
				to := cluster.CID(arg % engS.Config().Cmax())
				engS.Move(pid, to)
				engW.Move(pid, to)
			case 3: // compact
				engS.Compact(0)
				engW.Compact(0)
			case 4: // one step of the open period (a new one if none is), budget 0 runs it out
				if ps == nil || ps.Done() {
					ps, pw = rs.Begin(), rw.Begin()
				}
				doneS, doneW := ps.Step(arg%4), pw.Step(arg%4)
				if doneS != doneW {
					t.Fatalf("op %d: serial done=%v, workers done=%v", i, doneS, doneW)
				}
				if got, want := pw.Report(), ps.Report(); !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d: period reports diverged:\nworkers %+v\nserial  %+v", i, got, want)
				}
			case 5: // a whole round outside any period (supersedes an open one)
				round++
				rrS := rs.RunRound(round)
				rrW := rw.RunRound(round)
				if !reflect.DeepEqual(rrW, rrS) {
					t.Fatalf("op %d: round reports diverged:\nworkers %+v\nserial  %+v", i, rrW, rrS)
				}
			}
			requireLockstep(t, engS, engW, "fuzz")
		}
	})
}
