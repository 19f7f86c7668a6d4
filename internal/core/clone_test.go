package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/workload"
)

// stateLines renders labelled lines of numbers into one string, floats
// as the hex of their bits.
type stateLines struct{ b []byte }

// reset empties s, keeping its buffer.
func (s *stateLines) reset() *stateLines {
	s.b = s.b[:0]
	return s
}

// line starts a line labelled label and, unless negative, idx.
func (s *stateLines) line(label string, idx int) *stateLines {
	if len(s.b) > 0 {
		s.b = append(s.b, '\n')
	}
	s.b = append(s.b, label...)
	if idx >= 0 {
		s.b = strconv.AppendInt(append(s.b, ' '), int64(idx), 10)
	}
	s.b = append(s.b, ':')
	return s
}

func (s *stateLines) ints(vs ...int) *stateLines {
	for _, v := range vs {
		s.b = strconv.AppendInt(append(s.b, ' '), int64(v), 10)
	}
	return s
}

func (s *stateLines) floats(vs ...float64) *stateLines {
	for _, v := range vs {
		s.b = strconv.AppendUint(append(s.b, ' '), math.Float64bits(v), 16)
	}
	return s
}

func (s *stateLines) set(q attr.Set) *stateLines {
	s.b = append(s.b, " {"...)
	for _, a := range q.IDs() {
		s.b = strconv.AppendInt(append(s.b, ' '), int64(a), 10)
	}
	s.b = append(s.b, '}')
	return s
}

func (s *stateLines) qids(qs []workload.QID) *stateLines {
	for _, q := range qs {
		s.b = strconv.AppendInt(append(s.b, ' '), int64(q), 10)
	}
	return s
}

// engineState renders everything an engine's answers depend on, one
// labelled line per structure, floats as their bits: the inputs (peer
// items and versions, workload, configuration with its member order),
// every aggregate, the per-peer lists, the rows and the cost sums. With
// slots it adds what only a clone shares with its original and a fresh
// engine over the same inputs does not: the free-slot stack, the slot
// generations, the query index and what Rebuild remembers.
func engineState(e *Engine, slots bool) string {
	s := stateLines{b: make([]byte, 0, 32<<10)}
	s.engine(e, slots)
	return string(s.b)
}

func (s *stateLines) engine(e *Engine, slots bool) {
	s.line("geometry", -1).ints(e.n, e.nq, e.cmax, e.cfg.Live(), e.cfg.NumNonEmpty())
	s.line("alpha", -1).floats(e.alpha)
	for pid, p := range e.peers {
		if p == nil {
			s.line("vacant", pid)
			continue
		}
		s.line("peer", pid).ints(p.ID(), p.Version())
		for _, it := range p.SharedItems() {
			s.set(it)
		}
	}
	for q := range e.wl.NumQueries() {
		s.line("query", q).set(e.wl.Query(workload.QID(q))).ints(e.wl.GlobalCount(workload.QID(q)))
	}
	for pid := range e.wl.NumPeers() {
		s.line("workload of", pid).ints(e.wl.PeerTotal(pid))
		for _, en := range e.wl.Peer(pid) {
			s.ints(int(en.Q), en.Count)
		}
	}
	s.line("workload total", -1).ints(e.wl.Total())
	s.line("assignment", -1)
	for _, c := range e.cfg.Assignment() {
		s.ints(int(c))
	}
	for c := range e.cfg.Cmax() {
		s.line("members of", c).ints(e.cfg.MembersUnsorted(cluster.CID(c))...)
	}

	s.line("totals", -1).floats(e.totals...)
	s.line("invTot", -1).floats(e.invTot...)
	s.line("demandTot", -1).floats(e.demandTot...)
	s.line("peerW", -1).floats(e.peerW...)
	s.line("peerOwnW", -1).floats(e.peerOwnW...)
	s.line("sums", -1).floats(e.membSumRaw, e.recallSum, e.wRecallSum, e.sumW, e.ansDemand, e.SCost(), e.WCost())
	for pid := range e.peerRes {
		s.line("peerRes", pid)
		for _, re := range e.peerRes[pid] {
			s.ints(int(re.qid)).floats(re.res)
		}
		s.line("peerWl", pid)
		for _, en := range e.peerWl[pid] {
			s.ints(int(en.qid)).floats(en.count, en.w, en.wInvT)
		}
	}
	for q, row := range e.rows {
		s.line("row", q)
		for _, cl := range row {
			s.ints(int(cl.cid)).floats(cl.res, cl.demand, cl.demandW)
		}
	}
	if slots {
		s.line("free", -1).ints(e.free...)
		s.line("slotGen", -1)
		for _, g := range e.slotGen {
			s.ints(int(g))
		}
		s.line("resCovered", -1).ints(e.resCovered)
		s.line("remembered", -1)
		for pid, src := range e.resFrom {
			if src.peer != nil && src.peer == e.peers[pid] {
				s.ints(pid, src.version)
			}
		}
		x := &e.queries
		s.line("query index", -1).ints(x.n)
		for _, h := range x.head {
			s.ints(int(h))
		}
		for i, l := range x.lists {
			s.line("query index list", i).qids(l)
		}
		s.line("query index empty", -1).qids(x.empty)
		s.line("versions", -1).ints(int(e.wlVersion), int(e.wlCompactions), int(e.cfgVersion), int(e.popVersion))
	}
}

// stateDiff returns the first line two engine states differ in.
func stateDiff(got, want string) error {
	if got == want {
		return nil
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range w {
		if i >= len(g) || g[i] != w[i] {
			line := "nothing"
			if i < len(g) {
				line = g[i]
			}
			return fmt.Errorf("got  %s\nwant %s", line, w[i])
		}
	}
	return fmt.Errorf("got %d more lines, first %s", len(g)-len(w), g[len(w)])
}

// TestCloneIsExactAndIndependent pins Engine.Clone: after 60 ops of
// churn on an engine never cloned before, the clone's state equals the
// original's bit for bit, down to the free stack and the slot
// generations (the driver's fork checks that), and every kind of op,
// run on the clone, leaves every bit of the original where it was.
func TestCloneIsExactAndIndependent(t *testing.T) {
	t.Parallel()
	for seed := uint64(1); seed <= 10; seed++ {
		d := newDriver(t, fixture{n: 16, groups: 4, vacant: 2, alpha: 0.5 + float64(seed)/4, seed: seed}, noClone)
		d.runSeeded(seed, 60)
		d.fork(cloneWrites)
		// Each op once: a move, a join with a novel query, a leave, a
		// slot reused, a slot joined and left, a compaction, a content and
		// a workload edit each followed by Rebuild, α, the free stack.
		d.run([]byte{0, 3, 21, 1, 2, 5, 83, 7, 84, 64, 5, 0, 6, 1, 17, 2, 8, 3, 9, 0})
		d.finish()
	}
}

// TestCloneConcurrently has eight goroutines clone one engine at once,
// each perturbing and running its clone; under -race it proves Clone
// only reads its receiver and the clones share nothing they write.
func TestCloneConcurrently(t *testing.T) {
	d := newDriver(t, fixture{groups: 4, vacant: 2, alpha: 1, seed: 3}, noClone)
	d.runSeeded(3, 20)
	e := d.e
	before := engineState(e, true)
	const goroutines = 8
	got := make([]string, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := e.Clone()
			got[g] = engineState(c, true)
			for p := 0; p < c.NumSlots(); p++ {
				if c.IsLive(p) {
					c.Peers()[p].AddItem(attr.NewSet(attr.ID(g)))
					c.Move(p, c.EvaluateMoves(p).Best)
				}
			}
			c.Rebuild()
		}()
	}
	wg.Wait()
	for g := range got {
		if err := stateDiff(got[g], before); err != nil {
			t.Errorf("clone %d taken beside other clones differs from the original:\n%v", g, err)
		}
	}
	if err := stateDiff(engineState(e, true), before); err != nil {
		t.Errorf("the original changed under its clones:\n%v", err)
	}
}

// TestRebuildAfterEditsMatchesNew pins the Rebuild that re-asks only
// what changed to core.New over the same inputs, every aggregate bit
// for bit (the driver checks that, and the dense rebuild, after every
// Rebuild, and finish ends each seed with one): rounds of a wide join,
// whose result list comes out in attribute order, not QID order, and is
// not sorted before the Rebuild, then in-place content and workload
// edits, with queries nobody asked before, and one round with a
// compaction behind the engine's back.
func TestRebuildAfterEditsMatchesNew(t *testing.T) {
	t.Parallel()
	unsorted := 0
	for seed := uint64(1); seed <= 20; seed++ {
		d := newDriver(t, fixture{n: 14, groups: 4, alpha: 0.5 + float64(seed)/4, seed: seed}, splitOf(seed))
		rng := stats.NewRNG(seed)
		for round := range 4 {
			ops := []byte{81, byte(40 + rng.Intn(41))}
			for k := 1 + rng.Intn(3); k > 0; k-- {
				ops = append(ops, byte(6+rng.Intn(2)), byte(rng.Intn(256)))
			}
			if round == 2 {
				ops = append(ops, 17, byte(rng.Intn(256)))
			}
			d.run(ops)
		}
		unsorted += d.unsortedRebuild
		d.finish()
	}
	if unsorted == 0 {
		t.Error("no Rebuild met a result list in candidate order")
	}
}

// isolationView is what the driver's ops on the writer must leave
// untouched on the other engine: engineState, the social and workload
// costs, PeerCost of every live peer in every non-empty cluster,
// EvaluateMoves of every live peer, and the QID every query, and every
// query the ops may intern, is looked up under, floats as their bits.
func isolationView(e *Engine) string {
	var s stateLines
	return string(s.isolation(e).b)
}

// isolation renders isolationView(e) into s in place of what s held.
func (s *stateLines) isolation(e *Engine) *stateLines {
	s.reset().engine(e, true)
	s.line("costs", -1).floats(e.SCost(), e.WCost())
	nonEmpty := e.Config().NonEmpty()
	for p := range e.NumSlots() {
		if !e.IsLive(p) {
			continue
		}
		s.line("pcost", p)
		for _, c := range nonEmpty {
			s.ints(int(c)).floats(e.PeerCost(p, c))
		}
		ev := e.EvaluateMoves(p)
		s.line("moves", p).ints(int(ev.Cur), int(ev.Best)).floats(ev.CurCost, ev.BestCost, ev.AloneCost)
	}
	for q := range e.wl.NumQueries() {
		id, ok := e.wl.Lookup(e.wl.Query(workload.QID(q)))
		s.line("lookup", q).ints(int(id), b2i(ok))
	}
	for a := scanAttrs; a < scanAttrs+novelQueries; a++ {
		id, ok := e.wl.Lookup(attr.NewSet(attr.ID(a)))
		s.line("lookup novel", a).ints(int(id), b2i(ok))
	}
	return s
}

// FuzzCloneIsolation holds the independence of an engine and its Clone,
// which share every part the clone only reads until one of them writes
// it: each case runs the op driver twice on six clusters with two vacant
// slots, first with the clone writing, then with the original; the
// driver holds the other engine to what it was after every op, and the
// writer, rebuilt at the end, to New over its inputs bit for bit. The
// seeds start with each first writer of a shared part: a join, a leave,
// a compaction, a content edit, a workload edit and a reordered
// free-slot stack, besides a move and a change of α.
func FuzzCloneIsolation(f *testing.F) {
	f.Add(uint64(1), []byte{1, 0, 0, 3})
	f.Add(uint64(2), []byte{2, 5, 1, 2})
	f.Add(uint64(3), []byte{5, 0, 0, 1})
	f.Add(uint64(4), []byte{6, 0, 6, 7, 0, 2})
	f.Add(uint64(5), []byte{7, 4, 17, 9, 1, 0})
	f.Add(uint64(6), []byte{9, 0, 0, 4, 2, 1})
	f.Add(uint64(7), []byte{0, 3, 8, 1, 1, 2, 3, 0})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		if len(ops) > 60 {
			ops = ops[:60]
		}
		for _, s := range []split{cloneWrites, originalWrites} {
			d := newDriver(t, fixture{groups: 6, vacant: 2, alpha: 1, seed: seed}, s)
			d.run(ops)
			d.finish()
		}
	})
}
