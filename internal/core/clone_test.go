package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/peer"
	"repro/internal/stats"
	"repro/internal/workload"
)

// engineState renders everything an engine's answers depend on, one
// labelled line per structure, floats as their bits: the inputs (peer
// items and versions, workload, configuration with its member order),
// every aggregate, the per-peer lists, the rows and the cost sums. With
// slots it adds what only a clone shares with its original and a fresh
// engine over the same inputs does not: the free-slot stack, the slot
// generations, the query index and what Rebuild remembers.
func engineState(e *Engine, slots bool) []string {
	bits := func(fs []float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	var st []string
	add := func(label string, v any) { st = append(st, fmt.Sprintf("%s: %v", label, v)) }

	add("geometry", []int{e.n, e.nq, e.cmax, e.cfg.Live(), e.cfg.NumNonEmpty()})
	add("alpha", math.Float64bits(e.alpha))
	for pid, p := range e.peers {
		if p == nil {
			add(fmt.Sprintf("peer %d", pid), "vacant")
			continue
		}
		add(fmt.Sprintf("peer %d", pid), fmt.Sprint(p.ID(), p.Version(), p.Items()))
	}
	for q := 0; q < e.wl.NumQueries(); q++ {
		add(fmt.Sprintf("query %d", q), fmt.Sprint(e.wl.Query(workload.QID(q)), e.wl.GlobalCount(workload.QID(q))))
	}
	for pid := 0; pid < e.wl.NumPeers(); pid++ {
		add(fmt.Sprintf("workload of %d", pid), fmt.Sprint(e.wl.Peer(pid), e.wl.PeerTotal(pid)))
	}
	add("workload total", e.wl.Total())
	add("assignment", e.cfg.Assignment())
	for c := 0; c < e.cfg.Cmax(); c++ {
		add(fmt.Sprintf("members of %d", c), e.cfg.MembersUnsorted(cluster.CID(c)))
	}

	add("totals", bits(e.totals))
	add("invTot", bits(e.invTot))
	add("demandTot", bits(e.demandTot))
	add("peerW", bits(e.peerW))
	add("peerOwnW", bits(e.peerOwnW))
	add("sums", bits([]float64{e.membSumRaw, e.recallSum, e.wRecallSum, e.sumW, e.ansDemand, e.SCost(), e.WCost()}))
	for pid := range e.peerRes {
		var l []uint64
		for _, re := range e.peerRes[pid] {
			l = append(l, uint64(re.qid), math.Float64bits(re.res))
		}
		add(fmt.Sprintf("peerRes %d", pid), l)
		l = nil
		for _, en := range e.peerWl[pid] {
			l = append(l, uint64(en.qid), math.Float64bits(en.count), math.Float64bits(en.w), math.Float64bits(en.wInvT))
		}
		add(fmt.Sprintf("peerWl %d", pid), l)
	}
	for q, row := range e.rows {
		var l []uint64
		for _, cl := range row {
			l = append(l, uint64(cl.cid), math.Float64bits(cl.res), math.Float64bits(cl.demand), math.Float64bits(cl.demandW))
		}
		add(fmt.Sprintf("row %d", q), l)
	}
	if slots {
		add("free", e.free)
		add("slotGen", e.slotGen)
		add("resCovered", e.resCovered)
		var remembered []int
		for pid, src := range e.resFrom {
			if src.peer != nil && src.peer == e.peers[pid] {
				remembered = append(remembered, pid, src.version)
			}
		}
		add("remembered", remembered)
		add("query index", fmt.Sprint(e.queries.head, e.queries.lists, e.queries.empty, e.queries.n))
		add("versions", []uint64{uint64(e.wlVersion), uint64(e.wlCompactions), uint64(e.cfgVersion), e.popVersion})
	}
	return st
}

// stateDiff returns the first line two engine states differ in.
func stateDiff(got, want []string) error {
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			g := "nothing"
			if i < len(got) {
				g = got[i]
			}
			return fmt.Errorf("got  %s\nwant %s", g, want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("got %d more lines, first %s", len(got)-len(want), got[len(want)])
	}
	return nil
}

// churnedEngine builds an engine and takes it through a seeded mix of
// joins (some with queries nobody asked before), leaves, moves and one
// compaction, so it carries vacated and reused slots, rows that left
// the arena, residue cells, a join's candidate-ordered result list and
// remapped QIDs.
func churnedEngine(t *testing.T, seed uint64) (*Engine, []attr.ID, *stats.RNG) {
	const n, v = 14, 10
	ids := testAttrIDs(v)
	rng := stats.NewRNG(seed)
	assign := make([]cluster.CID, n)
	for i := range assign {
		assign[i] = cluster.CID(rng.Intn(4))
	}
	peers, wl, _ := testSystem(t, n, v, seed)
	e := New(peers, wl, cluster.FromAssignment(assign), cluster.LinearTheta(), 0.5+rng.Float64())
	novel := novelJoiner{next: 1000}
	livePeer := func() int {
		for {
			if p := rng.Intn(e.NumSlots()); e.IsLive(p) {
				return p
			}
		}
	}
	for step := 0; step < 60; step++ {
		switch op := rng.Intn(10); {
		case op < 3:
			pr, qs, cs := novel.materials(ids, rng, rng.Intn(3))
			to := cluster.None
			if rng.Intn(2) == 0 {
				to = e.Config().ClusterOf(livePeer())
			}
			e.AddPeer(pr, qs, cs, to)
		case op < 5 && e.NumPeers() > 4:
			e.RemovePeer(livePeer())
		case step == 40:
			e.Compact(0)
		default:
			e.Move(livePeer(), e.Config().ClusterOf(livePeer()))
		}
	}
	return e, ids, rng
}

// TestCloneIsExactAndIndependent pins Engine.Clone: after churn the
// clone's state equals the original's bit for bit, down to the free
// stack and the slot generations, and whatever is then done to the
// clone leaves every bit of the original where it was.
func TestCloneIsExactAndIndependent(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		e, ids, rng := churnedEngine(t, seed)
		before := engineState(e, true)
		c := e.Clone()
		if err := stateDiff(engineState(c, true), before); err != nil {
			t.Fatalf("seed %d: clone differs from its original:\n%v", seed, err)
		}
		if c.Stale() {
			t.Fatalf("seed %d: clone of a fresh engine is stale", seed)
		}
		for p := 0; p < e.NumSlots(); p++ {
			if !e.IsLive(p) {
				continue
			}
			if c.peers[p] == e.peers[p] {
				t.Fatalf("seed %d: clone shares peer %d with its original", seed, p)
			}
			if got, want := c.EvaluateMoves(p), e.EvaluateMoves(p); got != want {
				t.Fatalf("seed %d: EvaluateMoves(%d) on the clone %+v, on the original %+v", seed, p, got, want)
			}
			if got, want := c.EvaluateContribution(p), e.EvaluateContribution(p); got != want {
				t.Fatalf("seed %d: EvaluateContribution(%d) on the clone %+v, on the original %+v", seed, p, got, want)
			}
		}

		// Every kind of mutation, on the clone only.
		live := func() int {
			for {
				if p := rng.Intn(c.NumSlots()); c.IsLive(p) {
					return p
				}
			}
		}
		pr, qs, cs := randomJoiner(ids, rng)
		qs, cs = append(qs, attr.NewSet(attr.ID(5000))), append(cs, 2)
		c.AddPeer(pr, qs, cs, cluster.None)
		c.RemovePeer(live())
		c.Move(live(), c.Config().ClusterOf(live()))
		c.Compact(0)
		p := live()
		c.Peers()[p].SetItems([]attr.Set{attr.NewSet(ids[0], ids[1]), attr.NewSet(ids[2])})
		c.Peers()[live()].ReplaceItem(0, attr.NewSet(ids[3]))
		c.Workload().ReplacePeer(p, []attr.Set{attr.NewSet(ids[4]), attr.NewSet(attr.ID(6000))}, []int{3, 1})
		c.Rebuild()
		c.SetAlpha(3)
		if err := stateDiff(engineState(e, true), before); err != nil {
			t.Fatalf("seed %d: mutating the clone changed the original:\n%v", seed, err)
		}
		// And the clone is still a correct engine.
		fresh := New(slices.Clone(c.peers), c.wl, c.cfg.Clone(), c.theta, c.alpha)
		if err := stateDiff(engineState(c, false), engineState(fresh, false)); err != nil {
			t.Fatalf("seed %d: edited and rebuilt clone differs from New over its inputs:\n%v", seed, err)
		}
	}
}

// TestCloneConcurrently has eight goroutines clone one engine at once,
// each perturbing and running its clone; under -race it proves Clone
// only reads its receiver and the clones share nothing they write.
func TestCloneConcurrently(t *testing.T) {
	e, ids, _ := churnedEngine(t, 3)
	before := engineState(e, true)
	const goroutines = 8
	got := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := e.Clone()
			got[g] = engineState(c, true)
			for p := 0; p < c.NumSlots(); p++ {
				if c.IsLive(p) {
					c.Peers()[p].AddItem(attr.NewSet(ids[g%len(ids)]))
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
// for bit: random in-place content and workload edits, with queries
// nobody asked before, on an engine whose latest joiner still holds its
// result list in candidate order, with and without a compaction behind
// the engine's back.
func TestRebuildAfterEditsMatchesNew(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		e, ids, rng := churnedEngine(t, seed)
		live := func() int {
			for {
				if p := rng.Intn(e.NumSlots()); e.IsLive(p) {
					return p
				}
			}
		}
		item := func() attr.Set { return attr.NewSet(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]) }
		for round := 0; round < 4; round++ {
			// A joiner holding many attributes: its candidates come out
			// in attribute order, not QID order, and nobody sorts them
			// before the Rebuild below.
			joiner := peer.New(-1)
			joiner.SetItems([]attr.Set{attr.NewSet(ids...)})
			pid := e.AddPeer(joiner, []attr.Set{attr.NewSet(ids[rng.Intn(len(ids))])}, []int{2}, cluster.None)
			if round == 0 && slices.IsSortedFunc(e.peerRes[pid], func(a, b resEntry) int { return int(a.qid - b.qid) }) {
				t.Fatalf("seed %d: the joiner's result list is already ascending; the test needs a candidate-ordered one", seed)
			}

			for k := 1 + rng.Intn(3); k > 0; k-- {
				switch p := live(); rng.Intn(3) {
				case 0:
					if n := e.Peers()[p].NumItems(); n > 0 {
						e.Peers()[p].ReplaceItem(rng.Intn(n), item())
					}
				case 1:
					e.Peers()[p].SetItems([]attr.Set{item(), item()})
				default:
					// A query interned here is one every unchanged peer
					// must still be asked about.
					novel := attr.NewSet(ids[rng.Intn(len(ids))], attr.ID(2000+rng.Intn(50)))
					e.Workload().ReplacePeer(p, []attr.Set{attr.NewSet(ids[rng.Intn(len(ids))]), novel, attr.NewSet(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))])}, []int{2, 1, 1})
				}
			}
			if round == 2 {
				// Renumber the queries where the engine cannot see it.
				e.Workload().ClearPeer(live())
				e.Workload().Compact(0)
			}
			e.Rebuild()
			fresh := New(slices.Clone(e.peers), e.wl, e.cfg.Clone(), e.theta, e.alpha)
			if err := stateDiff(engineState(e, false), engineState(fresh, false)); err != nil {
				t.Fatalf("seed %d round %d: Rebuild after edits differs from New over the same inputs:\n%v", seed, round, err)
			}
			if err := matchesDense(e); err != nil {
				t.Fatalf("seed %d round %d: Rebuild after edits differs from the dense oracle: %v", seed, round, err)
			}
		}
	}
}

// isolationEngine builds the engine FuzzCloneIsolation clones: scanPeers
// slots over scanAttrs attributes in six clusters, the last two slots
// vacant (so the free-slot stack holds two), and one query interned
// that nobody asks (so a Compact has a query to retire). The same seed
// builds the same engine bit for bit.
func isolationEngine(seed uint64) *Engine {
	rng := stats.NewRNG(seed)
	peers := make([]*peer.Peer, scanPeers)
	wl := workload.New(scanPeers)
	assign := make([]cluster.CID, scanPeers)
	for i := range peers {
		assign[i] = cluster.None
		if i >= scanPeers-2 {
			continue
		}
		peers[i] = peer.New(i)
		peers[i].SetItems(scanItems(rng))
		for range 2 {
			wl.Add(i, attr.NewSet(attr.ID(rng.Intn(scanAttrs))), 1+rng.Intn(3))
		}
		assign[i] = cluster.CID(i % 6)
	}
	wl.Intern(attr.NewSet(attr.ID(scanAttrs + 100)))
	return New(peers, wl, cluster.FromAssignment(assign), cluster.LinearTheta(), 1)
}

// isolationStep applies to e one op chosen by op and parameterized by
// arg: a move, a join (sometimes with a query nobody asked before), a
// leave, a compaction, a change of α, a content edit or a workload edit
// followed by Rebuild, or a reordered free-slot stack. It returns what
// it did.
func isolationStep(e *Engine, op, arg byte) string {
	rng := stats.NewRNG(uint64(op)<<8 | uint64(arg))
	var live []int
	for p := 0; p < e.NumSlots(); p++ {
		if e.IsLive(p) {
			live = append(live, p)
		}
	}
	p := live[int(arg)%len(live)]
	novel := attr.NewSet(attr.ID(scanAttrs + rng.Intn(40)))
	switch op % 8 {
	case 0:
		nonEmpty := e.Config().NonEmpty()
		to := nonEmpty[rng.Intn(len(nonEmpty))]
		if c, ok := e.Config().EmptyCluster(); ok && arg%3 == 0 {
			to = c
		}
		e.Move(p, to)
		return fmt.Sprintf("move %d to %d", p, to)
	case 1:
		pr := peer.New(-1)
		pr.SetItems(scanItems(rng))
		qs, counts := []attr.Set{attr.NewSet(attr.ID(rng.Intn(scanAttrs)))}, []int{1 + rng.Intn(3)}
		if arg%2 == 0 {
			qs, counts = append(qs, novel), append(counts, 1)
		}
		pid := e.AddPeer(pr, qs, counts, cluster.None)
		return fmt.Sprintf("join %d", pid)
	case 2:
		if len(live) <= 2 {
			return "no leave"
		}
		e.RemovePeer(p)
		return fmt.Sprintf("leave %d", p)
	case 3:
		return fmt.Sprintf("compact %d", e.Compact(0))
	case 4:
		a := float64(arg%4) / 2
		e.SetAlpha(a)
		return fmt.Sprintf("alpha %g", a)
	case 5:
		pr := e.Peers()[p]
		switch arg % 3 {
		case 0:
			pr.ReplaceItem(rng.Intn(pr.NumItems()), scanItems(rng)[0])
		case 1:
			pr.AddItem(scanItems(rng)[0])
		default:
			pr.SetItems(scanItems(rng))
		}
		e.Rebuild()
		return fmt.Sprintf("content of %d, rebuild", p)
	case 6:
		e.Workload().ReplacePeer(p, []attr.Set{attr.NewSet(attr.ID(rng.Intn(scanAttrs))), novel}, []int{1 + rng.Intn(3), 1})
		e.Rebuild()
		return fmt.Sprintf("workload of %d, rebuild", p)
	default:
		free := slices.Clone(e.FreeSlots())
		slices.Reverse(free)
		if err := e.SetFreeSlots(free); err != nil {
			panic(err)
		}
		return fmt.Sprintf("free slots %v", free)
	}
}

// isolationView is what isolationStep's ops must leave untouched on the
// engine that did not run them: engineState, the social and workload
// costs, PeerCost of every live peer in every non-empty cluster,
// EvaluateMoves of every live peer, and the QID every query, and every
// query the ops may intern, is looked up under, floats as their bits.
func isolationView(e *Engine) []string {
	st := engineState(e, true)
	st = append(st, fmt.Sprint("costs ", math.Float64bits(e.SCost()), math.Float64bits(e.WCost())))
	for p := 0; p < e.NumSlots(); p++ {
		if !e.IsLive(p) {
			continue
		}
		for _, c := range e.Config().NonEmpty() {
			st = append(st, fmt.Sprint("pcost ", p, c, math.Float64bits(e.PeerCost(p, c))))
		}
		ev := e.EvaluateMoves(p)
		st = append(st, fmt.Sprint("moves ", p, ev.Cur, ev.Best, math.Float64bits(ev.CurCost), math.Float64bits(ev.BestCost), math.Float64bits(ev.AloneCost)))
	}
	for q := 0; q < e.wl.NumQueries(); q++ {
		id, ok := e.wl.Lookup(e.wl.Query(workload.QID(q)))
		st = append(st, fmt.Sprint("lookup ", q, id, ok))
	}
	for a := scanAttrs; a < scanAttrs+40; a++ {
		id, ok := e.wl.Lookup(attr.NewSet(attr.ID(a)))
		st = append(st, fmt.Sprint("lookup novel ", a, id, ok))
	}
	return st
}

// FuzzCloneIsolation holds the independence of an engine and its Clone,
// which share every part the clone only reads until one of them writes
// it. The engine and a reference built the same way start equal; the
// engine is cloned, and one of the two runs the byte-decoded op stream
// (a byte pair per op, see isolationStep). After every op the other
// must still equal the untouched reference bit for bit, and at the end
// the one that ran the ops, rebuilt, must equal core.New over its own
// inputs. Each case runs twice: first the clone writes, then the
// original does. The seeds start with each first writer of a shared
// part: a join, a leave, a compaction, a content edit, a workload edit
// and a reordered free-slot stack, besides a move and a change of α.
func FuzzCloneIsolation(f *testing.F) {
	f.Add(uint64(1), []byte{1, 0, 0, 3})
	f.Add(uint64(2), []byte{2, 5, 1, 2})
	f.Add(uint64(3), []byte{3, 0, 0, 1})
	f.Add(uint64(4), []byte{5, 0, 5, 7, 0, 2})
	f.Add(uint64(5), []byte{6, 4, 6, 9, 1, 0})
	f.Add(uint64(6), []byte{7, 0, 0, 4, 2, 1})
	f.Add(uint64(7), []byte{0, 3, 4, 1, 1, 2, 3, 0})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		if len(ops) > 60 {
			ops = ops[:60]
		}
		want := isolationView(isolationEngine(seed))
		for _, cloneWrites := range []bool{true, false} {
			orig := isolationEngine(seed)
			c := orig.Clone()
			writer, other := orig, c
			if cloneWrites {
				writer, other = c, orig
			}
			for i := 0; i+1 < len(ops); i += 2 {
				did := isolationStep(writer, ops[i], ops[i+1])
				if err := stateDiff(isolationView(other), want); err != nil {
					t.Fatalf("clone writes %v, op %d (%s) changed the other engine:\n%v", cloneWrites, i/2, did, err)
				}
			}
			writer.Rebuild()
			fresh := New(slices.Clone(writer.peers), writer.wl, writer.cfg.Clone(), writer.theta, writer.alpha)
			if err := stateDiff(engineState(writer, false), engineState(fresh, false)); err != nil {
				t.Fatalf("clone writes %v: the engine that ran the ops, rebuilt, differs from New over its inputs:\n%v", cloneWrites, err)
			}
		}
	})
}
