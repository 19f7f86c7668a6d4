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

// denseRef is what denseRebuild builds: the per-query and per-peer
// state and the cost sums in an Engine without rows, and the query x
// cluster aggregates as dense arrays indexed q*cmax+c.
type denseRef struct {
	*Engine
	clusterRes, clusterDemand, demandW []float64
}

// denseRebuild is the reference for Engine.Rebuild and for the sparse
// rows: the same passes, with pass 1 asking every peer about every
// query, the aggregates added peer by peer into dense queries x
// cluster-slots arrays, and pass 3 reading every one of their cells.
// The engine's own Rebuild visits and stores only what its indexes
// name; this one needs no index and is kept, in this file only, to pin
// that the two agree bit for bit.
func denseRebuild(e *Engine) *denseRef {
	nq, cmax := e.wl.NumQueries(), e.cfg.Cmax()
	ref := &denseRef{Engine: &Engine{peers: e.peers, wl: e.wl, cfg: e.cfg, theta: e.theta, alpha: e.alpha,
		n: e.n, nq: nq, cmax: cmax}}
	ref.totals = make([]float64, nq)
	ref.invTot = make([]float64, nq)
	ref.demandTot = make([]float64, nq)
	ref.clusterRes = make([]float64, nq*cmax)
	ref.clusterDemand = make([]float64, nq*cmax)
	ref.demandW = make([]float64, nq*cmax)
	ref.peerRes = make([][]resEntry, e.n)
	ref.peerWl = make([][]wlEntry, e.n)
	ref.peerW = make([]float64, e.n)
	ref.peerOwnW = make([]float64, e.n)

	// Pass 1, dense: peers x queries.
	for pid, p := range ref.peers {
		if p == nil {
			continue
		}
		cid := int(ref.cfg.ClusterOf(pid))
		for q := 0; q < nq; q++ {
			res := p.ResultCount(ref.wl.Query(workload.QID(q)))
			if res == 0 {
				continue
			}
			r := float64(res)
			ref.peerRes[pid] = append(ref.peerRes[pid], resEntry{qid: workload.QID(q), res: r})
			ref.totals[q] += r
			ref.clusterRes[q*cmax+cid] += r
		}
		for _, entry := range ref.wl.Peer(pid) {
			ref.demandTot[entry.Q] += float64(entry.Count)
		}
	}
	for q := 0; q < nq; q++ {
		if ref.totals[q] > 0 {
			ref.invTot[q] = 1 / ref.totals[q]
		}
	}

	// Pass 2: per-peer recall weights and the demand aggregates.
	own := make([]float64, nq)
	for pid, p := range ref.peers {
		if p == nil {
			continue
		}
		cid := int(ref.cfg.ClusterOf(pid))
		tot := float64(ref.wl.PeerTotal(pid))
		var wSum float64
		for _, entry := range ref.wl.Peer(pid) {
			q := int(entry.Q)
			if ref.totals[q] == 0 {
				continue
			}
			w := float64(entry.Count) / tot
			ref.peerWl[pid] = append(ref.peerWl[pid], wlEntry{
				qid: entry.Q, count: float64(entry.Count), w: w, wInvT: w * ref.invTot[q]})
			wSum += w
			ref.clusterDemand[q*cmax+cid] += float64(entry.Count)
			ref.demandW[q*cmax+cid] += w
		}
		ref.peerW[pid] = wSum
		var ownW float64
		for _, re := range ref.peerRes[pid] {
			own[re.qid] = re.res
		}
		for _, en := range ref.peerWl[pid] {
			ownW += en.wInvT * own[en.qid]
		}
		for _, re := range ref.peerRes[pid] {
			own[re.qid] = 0
		}
		ref.peerOwnW[pid] = ownW
	}

	// Pass 3, dense: queries x cluster slots.
	for c := 0; c < cmax; c++ {
		if s := ref.cfg.Size(cluster.CID(c)); s > 0 {
			ref.membSumRaw += float64(s) * ref.theta.F(s)
		}
	}
	for _, w := range ref.peerW {
		ref.sumW += w
	}
	for q := 0; q < nq; q++ {
		if ref.totals[q] > 0 {
			ref.ansDemand += ref.demandTot[q]
		}
	}
	for q := 0; q < nq; q++ {
		it := ref.invTot[q]
		if it == 0 {
			continue
		}
		row := q * cmax
		for c := 0; c < cmax; c++ {
			if r := ref.clusterRes[row+c]; r != 0 {
				ref.recallSum += ref.demandW[row+c] * r * it
				ref.wRecallSum += ref.clusterDemand[row+c] * r * it
			}
		}
	}
	return ref
}

// sameBits compares two float slices bit for bit.
func sameBits(name string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s[%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
	return nil
}

// rowsMatchDense checks the engine's sparse rows against the dense
// arrays: every row strictly ascending in cluster and inside the
// cluster slots, res and demand exactly equal cell for cell (they are
// integers), demandW within tolW, and a cell only where the dense
// arrays hold something, or where demandW may carry the residue of an
// incremental leave (residue, which a fresh Rebuild never leaves).
func rowsMatchDense(e *Engine, ref *denseRef, tolW float64, residue bool) error {
	if len(e.rows) != ref.nq || e.cmax != ref.cmax {
		return fmt.Errorf("geometry %dx%d, want %dx%d", len(e.rows), e.cmax, ref.nq, ref.cmax)
	}
	for q, row := range e.rows {
		for i, cl := range row {
			if i > 0 && row[i-1].cid >= cl.cid || cl.cid < 0 || int(cl.cid) >= e.cmax {
				return fmt.Errorf("row %d: cell %d has cluster %d after %v (cmax %d)", q, i, cl.cid, row[:i], e.cmax)
			}
			at := q*ref.cmax + int(cl.cid)
			if cl.res == 0 && cl.demand == 0 && (!residue || cl.demandW == 0 || math.Abs(cl.demandW) > tolW) {
				return fmt.Errorf("row %d: empty cell kept for cluster %d: %+v", q, cl.cid, cl)
			}
			if ref.clusterRes[at] == 0 && ref.clusterDemand[at] == 0 && !residue {
				return fmt.Errorf("row %d: cell for unsupported cluster %d: %+v", q, cl.cid, cl)
			}
		}
		// The row ascends (checked above), so a merge finds each cell.
		i := 0
		for c := 0; c < ref.cmax; c++ {
			at := q*ref.cmax + c
			var got cell
			if i < len(row) && int(row[i].cid) == c {
				got, i = row[i], i+1
			}
			if got.res != ref.clusterRes[at] || got.demand != ref.clusterDemand[at] ||
				math.Abs(got.demandW-ref.demandW[at]) > tolW {
				return fmt.Errorf("cell (%d,%d) = %+v, want res %v demand %v demandW %v", q, c, got,
					ref.clusterRes[at], ref.clusterDemand[at], ref.demandW[at])
			}
		}
	}
	return nil
}

// matchesDense checks a freshly rebuilt engine against denseRebuild.
func matchesDense(e *Engine) error {
	ref := denseRebuild(e)
	if err := rowsMatchDense(e, ref, 0, false); err != nil {
		return err
	}
	for _, c := range []struct {
		name      string
		got, want []float64
	}{
		{"totals", e.totals, ref.totals},
		{"invTot", e.invTot, ref.invTot},
		{"demandTot", e.demandTot, ref.demandTot},
		{"peerW", e.peerW, ref.peerW},
		{"peerOwnW", e.peerOwnW, ref.peerOwnW},
		{"sums",
			[]float64{e.membSumRaw, e.sumW, e.ansDemand, e.recallSum, e.wRecallSum, e.SCostNormalized(), e.WCostNormalized()},
			[]float64{ref.membSumRaw, ref.sumW, ref.ansDemand, ref.recallSum, ref.wRecallSum, ref.SCostNormalized(), ref.WCostNormalized()}},
	} {
		if err := sameBits(c.name, c.got, c.want); err != nil {
			return err
		}
	}
	for pid := range ref.peerRes {
		got, want := e.peerRes[pid], ref.peerRes[pid]
		if len(got) != len(want) {
			return fmt.Errorf("peerRes[%d]: %d entries, want %d", pid, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("peerRes[%d][%d] = %+v, want %+v", pid, i, got[i], want[i])
			}
		}
	}
	return nil
}

// TestSparseRowsMatchDenseProperty runs the op driver from eight
// singletons, 16 seeds of 80 ops, which after every op holds the sparse
// rows to denseRebuild of the same state: res and demand equal cell for
// cell, demandW and the costs within the drift the incremental updates
// have always been allowed (bit for bit since a Rebuild), rows strictly
// ascending and inside the cluster slots, and no more cells than the
// peers' result and demand entries account for plus the residue cells
// a leave may keep. Joiners bring novel queries and leavers strand
// them, so rows are born, flip between answerable and not, and are
// retired by compactions.
func TestSparseRowsMatchDenseProperty(t *testing.T) {
	t.Parallel()
	residue := 0
	for seed := uint64(1); seed <= 16; seed++ {
		d := newDriver(t, fixture{n: 8, alpha: 1, seed: 300 + seed}, splitOf(seed))
		d.runSeeded(seed, 80)
		d.finish()
		residue += d.residue
	}
	if residue == 0 {
		t.Error("no sequence left a residue cell behind: the keep-until-exactly-zero rule went unexercised")
	}
}

// TestRebuildMatchesDenseOracle pins the index-driven Rebuild to the
// dense reference over randomized systems with vacant slots, shared
// clusters, multi-term queries, the empty query, a query whose first
// attribute no peer holds and content attributes no query is
// registered under; then again after content edits, after workload
// growth, and after compactions (through the engine and behind its
// back) renumbered the queries the kept index names.
func TestRebuildMatchesDenseOracle(t *testing.T) {
	const v = 14 // query attributes come from [0,v), content also from [v,2v)
	for seed := uint64(1); seed <= 40; seed++ {
		rng := stats.NewRNG(seed)
		n := 4 + rng.Intn(12)
		item := func() attr.Set {
			ids := make([]attr.ID, 1+rng.Intn(4))
			for i := range ids {
				ids[i] = attr.ID(rng.Intn(2 * v))
			}
			return attr.NewSet(ids...)
		}
		query := func() attr.Set {
			ids := make([]attr.ID, 1+rng.Intn(3))
			for i := range ids {
				ids[i] = attr.ID(rng.Intn(v))
			}
			return attr.NewSet(ids...)
		}
		peers := make([]*peer.Peer, n)
		wl := workload.New(n)
		assign := make([]cluster.CID, n)
		for i := range peers {
			if i > 1 && rng.Intn(5) == 0 {
				assign[i] = cluster.None // a vacant slot
				continue
			}
			peers[i] = peer.New(i)
			for d := rng.Intn(5); d > 0; d-- {
				peers[i].AddItem(item())
			}
			for k := 1 + rng.Intn(4); k > 0; k-- {
				wl.Add(i, query(), 1+rng.Intn(3))
			}
			assign[i] = cluster.CID(rng.Intn(n))
		}
		wl.Add(0, attr.Set{}, 2) // matches every item
		// Registered under 2v+1, which nobody holds.
		wl.Add(0, attr.NewSet(attr.ID(2*v+1), attr.ID(3*v)), 1)
		check := func(e *Engine, stage string) {
			t.Helper()
			if err := matchesDense(e); err != nil {
				t.Fatalf("seed %d, %s: %v", seed, stage, err)
			}
		}
		live := func() int {
			for {
				if p := rng.Intn(n); peers[p] != nil {
					return p
				}
			}
		}

		e := New(peers, wl, cluster.FromAssignment(assign), cluster.LinearTheta(), 0.5+rng.Float64())
		check(e, "New")

		// Content edits: the index survives, the results must not.
		p := live()
		peers[p].SetItems([]attr.Set{item(), item()})
		peers[live()].AddItem(item())
		peers[p].ReplaceItem(0, item())
		e.Rebuild()
		check(e, "Rebuild after content edits")

		// Workload growth: the index is extended, not rebuilt.
		wl.Add(live(), query(), 1)
		wl.Add(live(), attr.NewSet(attr.ID(rng.Intn(v)), attr.ID(v+rng.Intn(v))), 2)
		e.Rebuild()
		check(e, "Rebuild after new queries")

		// A compaction through the engine remaps the index in place.
		e.RemovePeer(live())
		e.Compact(0)
		peers[live()].AddItem(item())
		e.Rebuild()
		check(e, "Rebuild after Engine.Compact")

		// One behind its back leaves the index naming stale QIDs.
		wl.ClearPeer(live())
		wl.Compact(0)
		wl.Add(live(), query(), 1)
		e.Rebuild()
		check(e, "Rebuild after workload.Compact")
	}
}

// TestAddPeerCountsEmptyQuery pins that a join reaches the empty query
// like Rebuild does: the joiner's items are results for it.
func TestAddPeerCountsEmptyQuery(t *testing.T) {
	peers, wl, _ := testSystem(t, 6, 5, 3)
	wl.Add(1, attr.Set{}, 3)
	e := New(peers, wl, cluster.NewSingletons(6), cluster.LinearTheta(), 1)
	joiner := peer.New(0)
	joiner.SetItems([]attr.Set{attr.NewSet(0, 1), attr.NewSet(2)})
	e.AddPeer(joiner, []attr.Set{attr.NewSet(1)}, []int{2}, cluster.None)
	got := e.SCostNormalized()
	e.Rebuild()
	if want := e.SCostNormalized(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("SCost after the join %v, after a Rebuild %v", got, want)
	}
}
