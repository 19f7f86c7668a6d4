package core

import (
	"fmt"
	"sort"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/peer"
	"repro/internal/workload"
)

// This file implements true dynamic membership: Engine.AddPeer and
// Engine.RemovePeer update every incremental aggregate — including the
// O(1) social/workload cost state — without a full Rebuild.
//
// The cost of a join or leave is O(Σ_q |row(q)| + Σ_q |D(q)|) over the
// queries the peer holds results for: the recall sums of each such
// query's row are re-bracketed over its cells, and every remaining
// demander of the query has its baked-in w/totals factor patched
// (totals changed). Both terms are proportional to the moving
// peer's footprint rather than the population. (One caveat: a leave
// also deletes the peer from its attributes' posting lists, which for
// a term held by many peers scans that list — bounded by the posting
// lists of the leaver's own terms, and in practice a small fraction of
// the cost; a 10k-peer churn event measures ~85µs against a 5.5s
// Rebuild.) Three inverted indexes make this possible:
//
//   - peersByAttr: attribute -> peers whose content contains it, to
//     find the supporters of a query newly interned by a joiner. A slice
//     indexed by attribute ID (IDs are vocabulary-dense): 24 B of
//     slice header per ID below the largest in use, whether or not a
//     live peer holds it. (The query index, which every engine builds
//     where this one waits for the first join, keeps 4 B per ID.)
//   - queries (queryindex.go): a distinct query's first attribute ->
//     QIDs, to find the existing queries a peer's content can answer (a
//     query cannot match an item that lacks its first attribute).
//     Rebuild's result pass reads the same index.
//   - demanders: QID -> peers whose local workload contains it, to
//     patch recall weights when a query's global result total moves.
//
// peersByAttr and demanders are built lazily on the first join/leave
// and maintained incrementally afterwards; Rebuild drops them because
// the content or workload mutation that forced it may have invalidated
// them. The query index depends on the workload alone, so Rebuild keeps
// and extends it.
//
// All result and demand counts are integers carried in float64, so the
// additive aggregates (totals, a cell's res and demand, demandTot)
// are exact and a query's "answerable" flag flips exactly when its
// last supporter leaves. The division-bearing sums (demandW,
// recallSum, …) accumulate ulp-level drift like Move always has;
// property tests pin join/leave sequences to a fresh Rebuild within
// 1e-9.
//
// Steady-state joins and leaves allocate nothing: slot state, index
// lists and per-peer entry slices all shrink by reslicing and grow
// back within their retained capacity.

// padFloats returns s extended with zeros to length n, preserving the
// prefix and growing the backing array geometrically.
func padFloats(s []float64, n int) []float64 {
	if cap(s) >= n {
		old := len(s)
		s = s[:n]
		clear(s[old:])
		return s
	}
	out := make([]float64, n, max(n, 2*cap(s)))
	copy(out, s)
	return out
}

// padMarks mirrors padFloats for epoch-mark slices; the extension must
// be zeroed so stale capacity can never collide with a live epoch.
func padMarks(s []uint64, n int) []uint64 {
	if cap(s) >= n {
		old := len(s)
		s = s[:n]
		clear(s[old:])
		return s
	}
	out := make([]uint64, n, max(n, 2*cap(s)))
	copy(out, s)
	return out
}

// ensureIndexes builds the content-side membership indexes if a
// Rebuild (or New) dropped them. O(total content attrs + total
// workload entries). Both are counted first and then laid out in one
// arena each, every list cut to its length plus one and filled in
// ascending pid order, so a build costs a fixed handful of allocations
// however many attributes and queries there are, and the next join's
// append to a list stays in the arena. A list appended to past that
// moves to its own allocation.
func (e *Engine) ensureIndexes() {
	if e.peersByAttr != nil {
		return
	}
	need := 0
	for _, p := range e.peers {
		if p == nil {
			continue
		}
		if at := p.Attrs(); len(at) > 0 {
			need = max(need, int(at[len(at)-1])+1)
		}
	}
	nHold, nDem := make([]int32, need), make([]int32, e.nq)
	for pid, p := range e.peers {
		if p == nil {
			continue
		}
		for _, a := range p.Attrs() {
			nHold[a]++
		}
		for _, en := range e.wl.Peer(pid) {
			nDem[en.Q]++
		}
	}
	e.peersByAttr, e.demanders = carveLists(nHold), carveLists(nDem)
	for pid, p := range e.peers {
		if p == nil {
			continue
		}
		for _, a := range p.Attrs() {
			e.peersByAttr[a] = append(e.peersByAttr[a], int32(pid))
		}
		for _, en := range e.wl.Peer(pid) {
			e.demanders[en.Q] = append(e.demanders[en.Q], int32(pid))
		}
	}
}

// carveLists cuts one arena into len(lens) empty lists, list i with
// room for lens[i] entries and one more (nil when lens[i] is none), so
// that the next join's append to it stays in the arena.
func carveLists(lens []int32) [][]int32 {
	total := 0
	for _, n := range lens {
		if n > 0 {
			total += int(n) + 1
		}
	}
	lists := make([][]int32, len(lens))
	arena := make([]int32, total)
	off := 0
	for i, n := range lens {
		if n > 0 {
			lists[i] = arena[off : off : off+int(n)+1]
			off += int(n) + 1
		}
	}
	return lists
}

// holders returns the live peers whose content holds attribute a: nil
// for an ID past the index, and for a negative one, which the
// conversion takes far past it. The content indexes must be built.
func (e *Engine) holders(a attr.ID) []int32 {
	if uint(a) >= uint(len(e.peersByAttr)) {
		return nil
	}
	return e.peersByAttr[a]
}

// growRows extends the query dimension of every QID-indexed structure
// to the workload's current query count, preserving existing content.
func (e *Engine) growRows() {
	nq := e.wl.NumQueries()
	if nq == e.nq {
		return
	}
	e.totals = padFloats(e.totals, nq)
	e.invTot = padFloats(e.invTot, nq)
	e.demandTot = padFloats(e.demandTot, nq)
	e.ownScratch = padFloats(e.ownScratch, nq)
	e.qMark = padMarks(e.qMark, nq)
	e.rows = growRowSlices(e.rows, nq)
	e.demanders = growRowSlices(e.demanders, nq)
	e.nq = nq
}

// addSlot appends one peer slot (and its paired cluster slot) across
// the configuration, the workload and every slot-indexed engine
// structure. The sparse aggregates have no cluster dimension to grow.
func (e *Engine) addSlot() int {
	pid := e.cfg.AddSlot()
	if wpid := e.wl.AddPeerSlot(); wpid != pid || pid != e.n {
		panic(fmt.Sprintf("core: slot misalignment cfg=%d wl=%d engine=%d", pid, wpid, e.n))
	}
	e.peers = append(e.peers, nil)
	e.peerRes = append(e.peerRes, nil)
	e.resFrom = append(e.resFrom, resSource{})
	e.peerWl = append(e.peerWl, nil)
	e.peerW = append(e.peerW, 0)
	e.peerOwnW = append(e.peerOwnW, 0)
	e.slotGen = append(e.slotGen, 0)
	e.n++

	e.cmax = e.cfg.Cmax()
	e.accScratch = padFloats(e.accScratch, e.cmax)
	e.cidMark = padMarks(e.cidMark, e.cmax)
	return pid
}

// rowRecallTerms adds sign times query q's contribution to the
// incremental recall sums: its cells that hold results, in ascending
// cluster order.
func (e *Engine) rowRecallTerms(q workload.QID, inv, sign float64) {
	if inv == 0 {
		return
	}
	row := e.rows[q]
	for i := range row {
		if r := row[i].res; r != 0 {
			e.recallSum += sign * row[i].demandW * r * inv
			e.wRecallSum += sign * row[i].demand * r * inv
		}
	}
}

// findWlEntry locates qid in the (QID-sorted) peerWl list of peer d.
func findWlEntry(lst []wlEntry, qid workload.QID) int {
	return sort.Search(len(lst), func(i int) bool { return lst[i].qid >= qid })
}

// insertWlEntry gives demander d a recall-weight entry for qid, which
// just flipped from unanswerable to answerable. At flip time no live
// peer other than the joiner holds results for qid (its total was 0),
// so d's own-recall is unaffected. The caller re-brackets the row's
// recall sums around this.
func (e *Engine) insertWlEntry(d int, qid workload.QID, inv float64) {
	cnt := float64(e.wl.Count(d, qid))
	w := cnt / float64(e.wl.PeerTotal(d))
	lst := e.peerWl[d]
	i := findWlEntry(lst, qid)
	lst = append(lst, wlEntry{})
	copy(lst[i+1:], lst[i:])
	lst[i] = wlEntry{qid: qid, count: cnt, w: w, wInvT: w * inv}
	e.peerWl[d] = lst
	e.peerW[d] += w
	e.sumW += w
	cl := e.cellFor(qid, e.cfg.ClusterOf(d))
	cl.demand += cnt
	cl.demandW += w
}

// dropWlEntry removes demander d's recall-weight entry for qid, which
// just flipped back to unanswerable (its last supporter left, so no
// remaining peer holds results and d's own-recall term is already 0).
func (e *Engine) dropWlEntry(d int, qid workload.QID) {
	lst := e.peerWl[d]
	i := findWlEntry(lst, qid)
	if i >= len(lst) || lst[i].qid != qid {
		panic(fmt.Sprintf("core: demander %d missing entry for query %d", d, qid))
	}
	en := lst[i]
	copy(lst[i:], lst[i+1:])
	e.peerWl[d] = lst[:len(lst)-1]
	e.peerW[d] -= en.w
	e.sumW -= en.w
	at := e.cellPos(qid, e.cfg.ClusterOf(d))
	cl := &e.rows[qid][at]
	cl.demand -= en.count
	cl.demandW -= en.w
	e.dropIfZero(qid, at)
}

// patchDemander refreshes demander d's baked-in w/totals factor for
// qid after the query's result total moved from 1/oldInv to 1/newInv,
// and adjusts d's own-recall sum when d itself holds results for it.
func (e *Engine) patchDemander(d int, qid workload.QID, oldInv, newInv float64) {
	lst := e.peerWl[d]
	i := findWlEntry(lst, qid)
	if i >= len(lst) || lst[i].qid != qid {
		panic(fmt.Sprintf("core: demander %d missing entry for query %d", d, qid))
	}
	en := &lst[i]
	en.wInvT = en.w * newInv
	if res := e.peers[d].ResultCount(e.wl.Query(qid)); res > 0 {
		e.peerOwnW[d] += en.w * (newInv - oldInv) * float64(res)
	}
}

// removeInt32 deletes the first occurrence of v by swapping with the
// last element (order is maintenance state, not semantics).
func removeInt32(lst []int32, v int32) []int32 {
	for i, x := range lst {
		if x == v {
			lst[i] = lst[len(lst)-1]
			return lst[:len(lst)-1]
		}
	}
	panic(fmt.Sprintf("core: index entry %d not found", v))
}

// ForEachSupplier invokes fn for every live peer holding results for
// q, using the content index: cost is proportional to the posting
// list of q's first attribute, not the population. Intended for
// read-side query serving (the reform daemon's /query); it builds the
// membership indexes on first use like AddPeer does.
func (e *Engine) ForEachSupplier(q attr.Set, fn func(pid, results int)) {
	ids := q.IDs()
	if len(ids) == 0 {
		return
	}
	e.mustBeFresh("ForEachSupplier")
	e.ensureIndexes()
	for _, pid := range e.holders(ids[0]) {
		if res := e.peers[pid].ResultCount(q); res > 0 {
			fn(int(pid), res)
		}
	}
}

// AddPeer admits a new peer with the given content owner and local
// workload (queries[i] issued counts[i] times) into cluster `to`, or
// into a fresh singleton cluster when to == cluster.None. It returns
// the peer's assigned ID (a vacated slot when one exists, a fresh slot
// otherwise); the peer's ID is rebound to it. All incremental
// aggregates — including the O(1) social/workload cost state — are
// updated in time proportional to the joiner's content and workload
// footprint; no Rebuild is needed, and at steady state (slot and
// capacity reuse under churn) AddPeer allocates nothing.
func (e *Engine) AddPeer(pr *peer.Peer, queries []attr.Set, counts []int, to cluster.CID) int {
	if pr == nil {
		panic("core: AddPeer nil peer")
	}
	if len(queries) != len(counts) {
		panic(fmt.Sprintf("core: AddPeer %d queries, %d counts", len(queries), len(counts)))
	}
	e.mustBeFresh("AddPeer")
	e.own()
	e.ensureIndexes()

	// Slot assignment: reuse the most recently vacated slot, else grow.
	var pid int
	if k := len(e.free); k > 0 {
		pid = e.free[k-1]
		e.free = e.free[:k-1]
	} else {
		pid = e.addSlot()
	}
	pr.SetID(pid)
	e.peers[pid] = pr
	for len(e.slotGen) < e.n {
		e.slotGen = append(e.slotGen, 0)
	}
	e.slotGen[pid]++

	// Phase 1: intern the joiner's queries (an allocation-free lookup
	// on the churn steady state, where newcomers re-issue known
	// queries). A genuinely new query gets a fresh, empty row whose
	// result total is gathered from the supporters the content index
	// names; it has no demanders yet, so the recall sums are untouched.
	e.qidScratch = e.qidScratch[:0]
	for _, q := range queries {
		if q.IsEmpty() {
			panic("core: AddPeer empty query")
		}
		if qid, ok := e.wl.Lookup(q); ok {
			e.qidScratch = append(e.qidScratch, qid)
			continue
		}
		qid := e.wl.Intern(q)
		e.qidScratch = append(e.qidScratch, qid)
		e.growRows()
		e.queries.extend(e.wl)
		for _, sp := range e.holders(q.IDs()[0]) {
			res := e.peers[sp].ResultCount(q)
			if res == 0 {
				continue
			}
			r := float64(res)
			e.peerRes[sp] = append(e.peerRes[sp], resEntry{qid: qid, res: r})
			e.totals[qid] += r
			e.cellFor(qid, e.cfg.ClusterOf(int(sp))).res += r
		}
		if e.totals[qid] > 0 {
			e.invTot[qid] = 1 / e.totals[qid]
		}
	}

	// Phase 2: placement. An empty cluster slot always exists for a
	// singleton join (cluster slots == peer slots >= live).
	if to == cluster.None {
		slot, ok := e.cfg.EmptyCluster()
		if !ok {
			panic("core: AddPeer found no empty cluster slot")
		}
		to = slot
	}
	if st := e.cfg.Size(to); st > 0 {
		e.membSumRaw -= float64(st) * e.theta.F(st)
		e.membSumRaw += float64(st+1) * e.theta.F(st+1)
	} else {
		e.membSumRaw += e.theta.F(1)
	}
	e.cfg.Place(pid, to)

	// Phase 3: the joiner's results shift every touched query's global
	// total, so each touched row's recall terms are re-bracketed and
	// the remaining demanders' baked-in factors patched. Candidate
	// queries come from the query index over the joiner's content
	// attributes, in ascending attribute order for determinism.
	e.candScratch = e.queries.appendCandidates(e.candScratch[:0], pr, 0)
	prl := e.peerRes[pid][:0]
	for _, qid := range e.candScratch {
		if res := pr.ResultCount(e.wl.Query(qid)); res > 0 {
			prl = append(prl, resEntry{qid: qid, res: float64(res)})
		}
	}
	e.peerRes[pid] = prl
	e.resFrom[pid] = resSource{pr, pr.Version()}
	for i := range prl {
		qid := prl[i].qid
		q := int(qid)
		r := prl[i].res
		oldInv := e.invTot[q]
		e.rowRecallTerms(qid, oldInv, -1)
		e.totals[q] += r
		newInv := 1 / e.totals[q]
		e.invTot[q] = newInv
		e.cellFor(qid, to).res += r
		if oldInv == 0 {
			e.ansDemand += e.demandTot[q]
			for _, d := range e.demanders[q] {
				e.insertWlEntry(int(d), qid, newInv)
			}
		} else {
			for _, d := range e.demanders[q] {
				e.patchDemander(int(d), qid, oldInv, newInv)
			}
		}
		e.rowRecallTerms(qid, newInv, 1)
	}

	// Phase 4: register the joiner's demand (merged by the workload)
	// and derive its recall weights exactly as Rebuild would.
	for i, qid := range e.qidScratch {
		e.wl.AddQID(pid, qid, counts[i])
	}
	tot := float64(e.wl.PeerTotal(pid))
	pw := e.peerWl[pid][:0]
	var wSum float64
	for _, en := range e.wl.Peer(pid) {
		q := int(en.Q)
		cnt := float64(en.Count)
		e.demandTot[q] += cnt
		e.demanders[q] = append(e.demanders[q], int32(pid))
		inv := e.invTot[q]
		if inv == 0 {
			continue
		}
		e.ansDemand += cnt
		w := cnt / tot
		pw = append(pw, wlEntry{qid: en.Q, count: cnt, w: w, wInvT: w * inv})
		wSum += w
		cl := e.cellFor(en.Q, to)
		if r := cl.res; r != 0 {
			e.recallSum -= cl.demandW * r * inv
			e.wRecallSum -= cl.demand * r * inv
			cl.demandW += w
			cl.demand += cnt
			e.recallSum += cl.demandW * r * inv
			e.wRecallSum += cl.demand * r * inv
		} else {
			cl.demandW += w
			cl.demand += cnt
		}
	}
	e.peerWl[pid] = pw
	e.peerW[pid] = wSum
	e.sumW += wSum
	var ownW float64
	own := e.ownScratch
	for _, re := range e.peerRes[pid] {
		own[re.qid] = re.res
	}
	for i := range pw {
		ownW += pw[i].wInvT * own[pw[i].qid]
	}
	for _, re := range e.peerRes[pid] {
		own[re.qid] = 0
	}
	e.peerOwnW[pid] = ownW

	// Phase 5: make the joiner discoverable by future joins, growing the
	// content index to the largest attribute it brings.
	at := pr.Attrs()
	if n := len(at); n > 0 && int(at[n-1]) >= len(e.peersByAttr) {
		e.peersByAttr = append(e.peersByAttr, make([][]int32, int(at[n-1])+1-len(e.peersByAttr))...)
	}
	for _, a := range at {
		e.peersByAttr[a] = append(e.peersByAttr[a], int32(pid))
	}

	e.wlVersion = e.wl.Version()
	e.cfgVersion = e.cfg.MembershipVersion()
	e.popVersion++
	return pid
}

// RemovePeer retires the peer in slot pid: its demand and results are
// withdrawn from every aggregate (the exact inverse of AddPeer), its
// cluster membership is released, and the slot is vacated for reuse.
// Like AddPeer it runs in time proportional to the leaver's footprint
// and allocates nothing at steady state.
func (e *Engine) RemovePeer(pid int) {
	if pid < 0 || pid >= e.n || e.peers[pid] == nil {
		panic(fmt.Sprintf("core: RemovePeer %d is not a live peer", pid))
	}
	e.mustBeFresh("RemovePeer")
	e.own()
	e.ensureIndexes()
	pr := e.peers[pid]
	from := e.cfg.ClusterOf(pid)

	// Phase 1: withdraw the leaver's demand.
	tot := float64(e.wl.PeerTotal(pid))
	for _, en := range e.wl.Peer(pid) {
		q := int(en.Q)
		cnt := float64(en.Count)
		e.demandTot[q] -= cnt
		e.demanders[q] = removeInt32(e.demanders[q], int32(pid))
		inv := e.invTot[q]
		if inv == 0 {
			continue
		}
		e.ansDemand -= cnt
		w := cnt / tot
		at := e.cellPos(en.Q, from)
		cl := &e.rows[q][at]
		if r := cl.res; r != 0 {
			e.recallSum -= cl.demandW * r * inv
			e.wRecallSum -= cl.demand * r * inv
			cl.demandW -= w
			cl.demand -= cnt
			e.recallSum += cl.demandW * r * inv
			e.wRecallSum += cl.demand * r * inv
		} else {
			cl.demandW -= w
			cl.demand -= cnt
			e.dropIfZero(en.Q, at)
		}
	}
	e.sumW -= e.peerW[pid]
	e.wl.ClearPeer(pid)

	// Phase 2: withdraw the leaver's results, re-bracketing each
	// touched row and patching (or dropping, when the query loses its
	// last supporter) the remaining demanders' recall weights.
	for i := range e.peerRes[pid] {
		qid := e.peerRes[pid][i].qid
		q := int(qid)
		r := e.peerRes[pid][i].res
		oldInv := e.invTot[q]
		e.rowRecallTerms(qid, oldInv, -1)
		e.totals[q] -= r
		at := e.cellPos(qid, from)
		e.rows[q][at].res -= r
		e.dropIfZero(qid, at)
		if e.totals[q] == 0 {
			e.invTot[q] = 0
			e.ansDemand -= e.demandTot[q]
			for _, d := range e.demanders[q] {
				e.dropWlEntry(int(d), qid)
			}
			continue // the row is all-zero; nothing to re-add
		}
		newInv := 1 / e.totals[q]
		e.invTot[q] = newInv
		for _, d := range e.demanders[q] {
			e.patchDemander(int(d), qid, oldInv, newInv)
		}
		e.rowRecallTerms(qid, newInv, 1)
	}

	// Phase 3: release the cluster membership.
	s := e.cfg.Size(from)
	e.membSumRaw -= float64(s) * e.theta.F(s)
	if s > 1 {
		e.membSumRaw += float64(s-1) * e.theta.F(s-1)
	}
	e.cfg.Unplace(pid)

	// Phase 4: vacate the slot.
	for _, a := range pr.Attrs() {
		e.peersByAttr[a] = removeInt32(e.peersByAttr[a], int32(pid))
	}
	e.peerRes[pid] = e.peerRes[pid][:0]
	e.resFrom[pid] = resSource{}
	e.peerWl[pid] = e.peerWl[pid][:0]
	e.peerW[pid], e.peerOwnW[pid] = 0, 0
	e.peers[pid] = nil
	e.free = append(e.free, pid)

	e.wlVersion = e.wl.Version()
	e.cfgVersion = e.cfg.MembershipVersion()
	e.popVersion++
}

// FreeSlots returns the vacated-slot stack: AddPeer reuses the LAST
// element first. The slice aliases engine storage — callers must not
// mutate or retain it across mutations.
func (e *Engine) FreeSlots() []int { return e.free }

// PopVersion returns the population/content version counter (see
// RoutingView.PopVersion).
func (e *Engine) PopVersion() uint64 { return e.popVersion }

// SetPopVersion overwrites the population/content version counter. It
// exists for replication catch-up: a follower restoring a leader's
// state must number its published views exactly as the leader does, or
// the two nodes' views for identical states would disagree. Views built
// before the call are not comparable with views built after it.
func (e *Engine) SetPopVersion(v uint64) {
	e.popVersion = v
	e.lineage = nextLineage.Add(1)
}

// SetFreeSlots installs a vacated-slot stack, overriding the rebuild
// default (ascending pop order). Replication needs it: slot reuse is
// part of the deterministic history a follower replays, and a follower
// restored from a state snapshot must pop future slots in the order
// the leader will — the leader's stack is vacancy-ordered, which no
// rebuild of the snapshot can reconstruct. The stack must name exactly
// the vacant slots, each once.
func (e *Engine) SetFreeSlots(stack []int) error {
	vacant := 0
	for _, p := range e.peers {
		if p == nil {
			vacant++
		}
	}
	if len(stack) != vacant {
		return fmt.Errorf("core: free stack names %d slots, engine has %d vacant", len(stack), vacant)
	}
	seen := make(map[int]bool, len(stack))
	for _, pid := range stack {
		if pid < 0 || pid >= e.n || e.peers[pid] != nil {
			return fmt.Errorf("core: free stack names non-vacant slot %d", pid)
		}
		if seen[pid] {
			return fmt.Errorf("core: free stack repeats slot %d", pid)
		}
		seen[pid] = true
	}
	e.own()
	e.free = append(e.free[:0], stack...)
	return nil
}
