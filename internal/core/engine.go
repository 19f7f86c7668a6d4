// Package core implements the paper's primary contribution: the
// recall-based cluster-formation game. It provides the recall measure
// r(q,p), the individual peer cost pcost (Eq. 1), the global social and
// workload costs (Eq. 2-4), the contribution measure of the altruistic
// strategy (Eq. 6), the selfish/altruistic/hybrid relocation strategies
// (§3.1), and Nash-equilibrium analysis (§2.3) including the paper's
// two-peer non-existence counterexample.
//
// # Performance design
//
// The cost engine sits on the hot path of every experiment: each
// protocol round scores every candidate cluster for every peer. Its
// steady-state paths (EvaluateMoves, PeerCost, Move, SCost) are
// allocation-free by construction:
//
//   - The cluster-by-query aggregates (results, demand and recall
//     weight per query and cluster) are stored sparsely: one row per
//     query holding a cell for each cluster that hosts a supporter or
//     a demander of it, ascending by cluster (cells.go). Memory and
//     every walk are proportional to the supported cells, never to
//     queries x cluster slots, so a population of singletons (Cmax =
//     |P|, the paper's initial configuration) costs what a clustered
//     one does. Rebuild lays all rows out in one arena.
//   - Per-peer recall weights w(q) = num(q,Q(p))/num(Q(p)) — and
//     w(q)/totals[q], the factor every recall term multiplies by — are
//     precomputed once per Rebuild into peerWl, restricted to
//     answerable queries so the hot loops carry no zero-total branch.
//   - Evaluation methods accumulate into dense scratch slices owned
//     by the Engine (ownScratch by QID, accScratch by CID), never
//     reallocated: a scan adds each of the peer's rows into accScratch
//     cell by cell, then walks whichever is shorter, the ascending
//     non-empty cluster list or the peer's own cells. The cell walk
//     scores the clusters the cells name, and every other cluster,
//     which costs the peer only its join term, through one cluster of
//     its size class, the classes ordered by that term. The list, the
//     terms and the classes are built once per membership version
//     (syncClusters, syncSizeClasses), not once per scan. Point reads
//     (PeerCost) binary-search the row.
//   - Rebuild visits what is non-zero: the query index names the
//     queries a peer's attributes can answer, and the rows are filled
//     and summed over the supported cells only. The dense peers x
//     queries walk and the dense queries x cluster-slots arrays
//     survive only as the test oracle (rebuild_test.go).
//   - The social and workload costs are maintained incrementally under
//     Move (see the recallSum/wRecallSum/membSumRaw fields), so
//     SCost/WCost are O(1) reads instead of full rescans.
//
// The scratch buffers are the reason an Engine is not safe for
// concurrent use; build one engine per goroutine over shared read-only
// peers and workload instead (see experiments.System.Warm).
package core

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/peer"
	"repro/internal/workload"
)

// resEntry records that a peer holds `res` results for query `qid`.
type resEntry struct {
	qid workload.QID
	res float64
}

// resSource names what a result list was computed from: a peer as its
// content stood at a version (peer.Version). The zero value names
// nothing.
type resSource struct {
	peer    *peer.Peer
	version int
}

// wlEntry is a per-peer workload entry precomputed at Rebuild time,
// restricted to answerable queries (totals[qid] > 0): the multiplicity
// as a float, the recall weight w = num(q,Q(p))/num(Q(p)), and
// w/totals[qid], which every recall term multiplies by.
type wlEntry struct {
	qid   workload.QID
	count float64
	w     float64
	wInvT float64
}

// Engine evaluates all cost measures of the game over a live cluster
// configuration. Recall and demand aggregates per cluster — and the
// global social/workload costs — are maintained incrementally under
// Move, AddPeer and RemovePeer; content or workload mutations of
// peers already in the system require Rebuild. Engine is not safe for
// concurrent use (it owns reusable scratch buffers).
//
// # Dynamic membership
//
// Peers occupy slots: a departed peer leaves a nil slot behind (kept
// so IDs stay dense and stable) that the next joiner reuses. n counts
// slots; the live |P| every per-|P| normalization uses is the
// configuration's occupied-slot count (cfg.Live()), so it can never
// drift from the membership state. The query x cluster aggregates are
// sparse rows of cells (cells.go), so a new peer or cluster slot costs
// them nothing and a join, leave or move touches only the cells of the
// mover's own queries. See membership.go for the incremental
// join/leave updates and the inverted content/query indexes they use.
type Engine struct {
	peers []*peer.Peer
	wl    *workload.Workload
	cfg   *cluster.Config
	theta cluster.Theta
	alpha float64
	n     int // peer slots (len(peers)); the live |P| is cfg.Live()
	nq    int
	cmax  int // cluster slots (cfg.Cmax())

	// totals[q] = Σ_p result(q,p); zero-result queries carry no recall
	// cost: recall is the share of a query's results a cluster reaches,
	// and a query no peer answers has no results to share, so no cluster
	// can serve it better than another. invTot[q] is 1/totals[q], or 0
	// for zero-result queries.
	totals []float64
	invTot []float64
	// peerRes[p] lists every query p holds results for.
	peerRes [][]resEntry
	// What Rebuild's result pass may keep (see Rebuild): resFrom[p] is
	// the peer, at its content version, that peerRes[p] was last computed
	// from, and every such list is complete for the queries
	// [0, resCovered).
	resFrom    []resSource
	resCovered int
	// peerWl[p] is p's local workload restricted to answerable queries,
	// with recall weights baked in; peerW[p] = Σ w over those entries
	// and peerOwnW[p] = Σ w·r(q,p) — the recall p supplies to its own
	// workload, which is in-cluster wherever p goes. All three are
	// invariant under Move.
	peerWl   [][]wlEntry
	peerW    []float64
	peerOwnW []float64

	// rows[q] holds query q's supported cells, ascending by cluster
	// (see cell). Rebuild carves every row out of cellArena, with the
	// slack its supporter and demander counts leave; a row that outgrows
	// its share moves to its own allocation until the next Rebuild.
	rows      [][]cell
	cellArena []cell
	// demandTot[q] = num(q,Q).
	demandTot []float64

	// Incrementally maintained cost state:
	//   membSumRaw = Σ_c |c|·θ(|c|)            (membership, sans α/|P|)
	//   recallSum  = Σ_{q,c} demandW·res/totals
	//   wRecallSum = Σ_{q,c} demand·res/totals
	//   sumW       = Σ_p peerW[p]
	//   ansDemand  = Σ_{q: totals[q]>0} demandTot[q]
	// so SCost = α·membSumRaw/|P| + sumW − recallSum and the workload
	// recall term is (ansDemand − wRecallSum)/num(Q).
	membSumRaw float64
	recallSum  float64
	wRecallSum float64
	sumW       float64
	ansDemand  float64

	// Scratch buffers (the reason Engine is single-goroutine):
	// ownScratch is zero outside method calls; accScratch likewise;
	// qMark/cidMark are epoch-stamped visited sets.
	ownScratch   []float64
	accScratch   []float64
	multiScratch []cluster.CID
	editScratch  []postingEdit
	qidScratch   []workload.QID
	candScratch  []workload.QID
	qMark        []uint64
	qEpoch       uint64
	cidMark      []uint64
	cidEpoch     uint64
	// Rebuild's scratch: rowCap[q] counts query q's supporters and
	// answerable demanders (an upper bound on its cells), byCluster
	// orders the live peers by (cluster, pid).
	rowCap    []int32
	byCluster []uint64
	// movePairs is Move's scratch: where, in its row, each entry of the
	// mover's demand and result lists finds its `from` and `to` cells.
	movePairs []cellPair

	// Dynamic-membership state (see membership.go): the free-slot
	// stack and the inverted indexes that make joins, and Rebuild's
	// result pass, proportional to a peer's footprint instead of the
	// system size. The content side (peersByAttr indexed by attribute
	// ID, demanders by QID) is built lazily on the first join/leave or
	// publish, out of one arena each build, and invalidated by Rebuild
	// (content may have changed under it). The query index
	// (queryindex.go) depends on the workload only: Rebuild extends it to
	// the queries interned since, and starts it over only when a
	// compaction renumbered them.
	free        []int
	slotGen     []uint32
	peersByAttr [][]int32
	demanders   [][]int32
	queries     queryIndex

	// shared is set once a Clone holds this engine's shared parts too:
	// totals, invTot, demandTot, peerRes, peerWl, peerW, peerOwnW, free
	// and slotGen. The first writer of them copies them (see own). The
	// query index and the workload keep marks of their own.
	shared *atomic.Bool

	// nonEmpty is the ascending non-empty cluster list every scan reads
	// and joinTerm[i] the membership term a newcomer to nonEmpty[i] would
	// pay (membership(size+1), the same for every scanning peer), both as
	// of membership version clustersVer; see syncClusters.
	nonEmpty    []cluster.CID
	joinTerm    []float64
	clustersVer int
	// The size classes a selfish scan's cell walk reads, built from
	// nonEmpty by syncSizeClasses on the decide path only, once per walk
	// of syncClusters (which empties classOrder): sizeClasses[s] holds
	// the clusters of size s, and classOrder lists the sizes present,
	// cheapest join term first.
	sizeClasses []sizeClass
	classOrder  []int32

	wlVersion     int
	wlCompactions int
	cfgVersion    int
	// popVersion counts population/content changes (AddPeer,
	// RemovePeer, Rebuild): exactly the mutations that invalidate the
	// posting-list and peer-slice copies a RoutingView carries, so
	// BuildRoutingView can reuse the previous view's copies across
	// pure relocations (reform periods) and compactions.
	popVersion uint64
	// lineage identifies the span of this engine's history within which
	// peers only changed by being replaced wholesale (AddPeer,
	// RemovePeer): a fresh process-unique value after every Rebuild,
	// whose caller may have edited peer content in place. Views of one
	// lineage can share structure and be diffed by peer pointer.
	lineage uint64
}

// New builds an engine over the given peers, workload and initial
// configuration. The peers slice is indexed by peer ID: peers[i].ID()
// must equal i. A nil entry is an unoccupied slot (a departed peer);
// it must be unplaced in cfg and carry no workload, and conversely
// every non-nil peer must be placed. An empty system (no peers) is
// valid and can be grown entirely through AddPeer.
func New(peers []*peer.Peer, wl *workload.Workload, cfg *cluster.Config, theta cluster.Theta, alpha float64) *Engine {
	if len(peers) != cfg.NumPeers() || len(peers) != wl.NumPeers() {
		panic(fmt.Sprintf("core: size mismatch peers=%d cfg=%d wl=%d",
			len(peers), cfg.NumPeers(), wl.NumPeers()))
	}
	for i, p := range peers {
		if p == nil {
			if cfg.IsPlaced(i) {
				panic(fmt.Sprintf("core: empty slot %d is placed in cluster %d", i, cfg.ClusterOf(i)))
			}
			if wl.PeerTotal(i) != 0 {
				panic(fmt.Sprintf("core: empty slot %d has workload", i))
			}
			continue
		}
		if p.ID() != i {
			panic(fmt.Sprintf("core: peers[%d] has ID %d", i, p.ID()))
		}
		if !cfg.IsPlaced(i) {
			panic(fmt.Sprintf("core: peer %d is not placed in any cluster", i))
		}
	}
	if alpha < 0 {
		panic("core: negative alpha")
	}
	e := &Engine{peers: peers, wl: wl, cfg: cfg, theta: theta, alpha: alpha, n: len(peers),
		shared: new(atomic.Bool), queries: queryIndex{shared: new(atomic.Bool)}}
	e.Rebuild()
	return e
}

// grow returns s resliced to length n, reusing its backing array when
// large enough and zeroing the live region either way.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func growMarks(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// Rebuild recomputes every aggregate from scratch, reusing the
// engine's backing arrays when their capacity allows. Call it after
// peer content or workload mutations; plain relocations are tracked
// incrementally by Move, and joins/leaves by AddPeer/RemovePeer.
// Rebuild also invalidates the content-side membership indexes (the
// mutation that forced it may have changed peer content); the next
// join/leave rebuilds them. Its cost is proportional to what is
// non-zero: each peer is asked only for the queries its attributes can
// answer, and the aggregates are built and summed over only the
// (query, cluster) cells some peer supports or demands.
//
// Asking is the expensive part, so Rebuild does not repeat it. It
// remembers, per slot, which peer at which content version
// (peer.Version) its result list was computed from, and up to which
// QID every list is complete. A slot still holding that peer at that
// version keeps its list and is asked only about the queries interned
// since; any other slot is asked about every query its attributes can
// answer. The lists, and the integer totals summed from them, come out
// as they would asking everybody everything, and nothing after the
// result pass looks at what was remembered, so the rebuilt engine
// equals core.New over the same inputs bit for bit. Many slots to ask
// are asked on several goroutines (RestoreWorkers), each slot by one,
// and the result is the same bits for any number of them. A fresh engine
// remembers nothing, and a workload compacted behind the engine's back
// (its QIDs renumbered) makes Rebuild forget: both are the same pass
// with nothing to keep.
func (e *Engine) Rebuild() {
	if e.n != e.cfg.NumPeers() || e.n != e.wl.NumPeers() || e.n != len(e.peers) {
		panic(fmt.Sprintf("core: slot mismatch peers=%d cfg=%d wl=%d",
			len(e.peers), e.cfg.NumPeers(), e.wl.NumPeers()))
	}
	e.own()
	nq := e.wl.NumQueries()
	cmax := e.cfg.Cmax()
	e.nq, e.cmax = nq, cmax

	e.totals = grow(e.totals, nq)
	e.invTot = grow(e.invTot, nq)
	e.demandTot = grow(e.demandTot, nq)
	e.ownScratch = grow(e.ownScratch, nq)
	e.accScratch = grow(e.accScratch, cmax)
	e.qMark = growMarks(e.qMark, nq)
	e.cidMark = growMarks(e.cidMark, cmax)
	if e.peerRes == nil {
		e.peerRes = make([][]resEntry, e.n)
		e.peerWl = make([][]wlEntry, e.n)
		e.peerW = make([]float64, e.n)
		e.peerOwnW = make([]float64, e.n)
		e.resFrom = make([]resSource, e.n)
	}
	e.peersByAttr = nil
	e.demanders = nil
	if e.wl.Compactions() != e.wlCompactions {
		// A compaction outside Engine.Compact renumbered the queries.
		e.queries.reset()
		e.resCovered = 0
	}
	e.queries.extend(e.wl)
	e.clustersVer = -1 // no membership version: force the walk
	e.syncClusters()
	e.free = e.free[:0]
	for pid := e.n - 1; pid >= 0; pid-- {
		if e.peers[pid] == nil {
			e.free = append(e.free, pid)
		}
	}

	// Pass 1: result counts -> totals, peerRes. Only the queries
	// registered under one of the peer's attributes (or under none) can
	// match an item of it (see askSlots). The slots are asked first, on
	// as many workers as there are slots to ask (RestoreWorkers), each
	// writing its own slots' lists; the sums then run serially in slot
	// order, so they come out the same for any number of workers. rowCap
	// counts each query's supporters, and in pass 2 its demanders, for
	// pass 3.
	ask := 0
	for pid, p := range e.peers {
		if p != nil && (e.resCovered < nq || e.resFrom[pid] != (resSource{p, p.Version()})) {
			ask++
		}
	}
	if w := RestoreWorkers(ask); w > 1 {
		e.askParallel(w)
	} else {
		e.candScratch = e.askSlots(0, e.n, e.candScratch)
	}
	e.rowCap = grow(e.rowCap, nq)
	e.byCluster = e.byCluster[:0]
	for pid, p := range e.peers {
		if p == nil {
			e.peerRes[pid] = e.peerRes[pid][:0]
			e.resFrom[pid] = resSource{}
			continue
		}
		e.byCluster = append(e.byCluster, uint64(e.cfg.ClusterOf(pid))<<32|uint64(pid))
		for _, re := range e.peerRes[pid] {
			e.totals[re.qid] += re.res
			e.rowCap[re.qid]++
		}
		for _, entry := range e.wl.Peer(pid) {
			e.demandTot[entry.Q] += float64(entry.Count)
		}
	}
	e.resCovered = nq
	for q := 0; q < nq; q++ {
		if e.totals[q] > 0 {
			e.invTot[q] = 1 / e.totals[q]
		}
	}

	// Pass 2: precompute per-peer recall weights over answerable
	// queries.
	for pid, p := range e.peers {
		if p == nil {
			e.peerWl[pid] = e.peerWl[pid][:0]
			e.peerW[pid], e.peerOwnW[pid] = 0, 0
			continue
		}
		tot := float64(e.wl.PeerTotal(pid))
		pw := e.peerWl[pid][:0]
		var wSum float64
		for _, entry := range e.wl.Peer(pid) {
			q := int(entry.Q)
			if e.totals[q] == 0 {
				continue
			}
			w := float64(entry.Count) / tot
			pw = append(pw, wlEntry{
				qid:   entry.Q,
				count: float64(entry.Count),
				w:     w,
				wInvT: w * e.invTot[q],
			})
			wSum += w
			e.rowCap[q]++
		}
		e.peerWl[pid] = pw
		e.peerW[pid] = wSum
		var ownW float64
		own := e.ownScratch
		for _, re := range e.peerRes[pid] {
			own[re.qid] = re.res
		}
		for _, en := range pw {
			ownW += en.wInvT * own[en.qid]
		}
		for _, re := range e.peerRes[pid] {
			own[re.qid] = 0
		}
		e.peerOwnW[pid] = ownW
	}

	// Pass 3: the sparse aggregates. Every row gets room in the arena
	// for one cell per supporter and demander, then the peers add their
	// results and demand in (cluster, pid) order: a row comes out
	// ascending by cluster because its last cell is always the current
	// cluster's, and within a cell the additions run in ascending pid
	// order, as they would adding peer by peer into a dense array.
	total := 0
	for _, n := range e.rowCap {
		total += int(n)
	}
	if cap(e.cellArena) < total {
		e.cellArena = make([]cell, total)
	}
	e.rows = growRowSlices(e.rows[:0], nq)
	clear(e.rows[nq:cap(e.rows)]) // parked rows may alias the arena being re-cut
	off := 0
	for q, n := range e.rowCap {
		e.rows[q] = e.cellArena[off : off : off+int(n)]
		off += int(n)
	}
	slices.Sort(e.byCluster)
	for _, key := range e.byCluster {
		c, pid := cluster.CID(key>>32), uint32(key)
		for _, re := range e.peerRes[pid] {
			e.lastCell(re.qid, c).res += re.res
		}
		for _, en := range e.peerWl[pid] {
			cl := e.lastCell(en.qid, c)
			cl.demand += en.count
			cl.demandW += en.w
		}
	}

	// Pass 4: global incremental-cost state; the recall sums run query
	// by query over the cells with results, in ascending cluster order.
	e.membSumRaw = 0
	for _, c := range e.nonEmpty {
		s := e.cfg.Size(c)
		e.membSumRaw += float64(s) * e.theta.F(s)
	}
	e.sumW = 0
	for _, w := range e.peerW {
		e.sumW += w
	}
	e.ansDemand = 0
	for q := 0; q < nq; q++ {
		if e.totals[q] > 0 {
			e.ansDemand += e.demandTot[q]
		}
	}
	e.recallSum, e.wRecallSum = 0, 0
	for q := range e.rows {
		e.rowRecallTerms(workload.QID(q), e.invTot[q], 1)
	}

	e.wlVersion = e.wl.Version()
	e.wlCompactions = e.wl.Compactions()
	e.cfgVersion = e.cfg.MembershipVersion()
	e.popVersion++
	e.lineage = nextLineage.Add(1)
}

// askWorkerSlots is how many slots to ask a worker of a parallel
// Rebuild or restore must have before it pays for its goroutine. Below
// it one inline worker asks them all: the paper's 200-peer engines,
// which the experiment drivers already build on every core, and a
// steady-state Rebuild, which asks nobody.
const askWorkerSlots = 256

// RestoreWorkers returns how many goroutines a Rebuild or a snapshot
// restore spreads n slots to ask over: one per askWorkerSlots of them,
// at least one and at most GOMAXPROCS.
func RestoreWorkers(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n/askWorkerSlots))
}

// askSlots is Rebuild's result pass over the slots [lo, hi), using cand
// as its candidate scratch, which it returns grown. A slot whose peer
// has not changed since its list was computed keeps the part of it
// below resCovered and is asked about the queries from there on, if
// any were interned since; any other slot is asked about every query.
// Sorting the candidates keeps each list in ascending QID order; a join
// leaves its list in candidate order, so a kept list is sorted first.
// It writes only the slots' own lists, sources and peers (the peer's
// index, by Freeze), so workers given disjoint ranges may run it at
// once.
func (e *Engine) askSlots(lo, hi int, cand []workload.QID) []workload.QID {
	for pid := lo; pid < hi; pid++ {
		p := e.peers[pid]
		if p == nil {
			continue
		}
		pr, from := e.peerRes[pid][:0], workload.QID(0)
		if src := (resSource{p, p.Version()}); e.resFrom[pid] == src {
			pr, from = e.keptResults(pid), workload.QID(e.resCovered)
		} else {
			e.resFrom[pid] = src
		}
		p.Freeze()
		if int(from) == e.nq {
			e.peerRes[pid] = pr
			continue
		}
		cand = e.queries.appendCandidates(cand[:0], p, from)
		slices.Sort(cand)
		for _, qid := range cand {
			if res := p.ResultCountRO(e.wl.Query(qid)); res > 0 {
				pr = append(pr, resEntry{qid: qid, res: float64(res)})
			}
		}
		e.peerRes[pid] = pr
	}
	return cand
}

// askParallel runs askSlots over every slot on w workers, the calling
// goroutine one of them, which take blocks of slots in turn. It lives
// apart from Rebuild so that nothing its goroutines capture is moved
// to the heap when Rebuild asks inline.
func (e *Engine) askParallel(w int) {
	const block = 32
	var next atomic.Int64
	work := func(cand []workload.QID) []workload.QID {
		for {
			lo := int(next.Add(block)) - block
			if lo >= e.n {
				return cand
			}
			cand = e.askSlots(lo, min(lo+block, e.n), cand)
		}
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for range w - 1 {
		go func() {
			defer wg.Done()
			work(nil)
		}()
	}
	e.candScratch = work(e.candScratch)
	wg.Wait()
}

// keptResults returns the part of slot pid's result list that Rebuild
// keeps for an unchanged peer: the entries below resCovered, ascending
// by QID. Entries past it (a join's discoveries for a query interned
// after the last Rebuild) are dropped, because the peer is asked about
// those queries again.
func (e *Engine) keptResults(pid int) []resEntry {
	pr := e.peerRes[pid]
	byQID := func(a, b resEntry) int { return cmp.Compare(a.qid, b.qid) }
	if !slices.IsSortedFunc(pr, byQID) {
		slices.SortFunc(pr, byQID)
	}
	k := len(pr)
	for k > 0 && int(pr[k-1].qid) >= e.resCovered {
		k--
	}
	return pr[:k]
}

// lastCell is cellFor while Rebuild fills the rows in ascending cluster
// order: the (q, c) cell is the row's last or does not exist yet, and
// the arena has room for it.
func (e *Engine) lastCell(q workload.QID, c cluster.CID) *cell {
	row := e.rows[q]
	if n := len(row); n == 0 || row[n-1].cid != c {
		row = append(row, cell{cid: c})
		e.rows[q] = row
	}
	return &row[len(row)-1]
}

// cellPair names the two cells of row q a relocation touches, by
// position: the mover's old cluster and its new one.
type cellPair struct{ from, to int32 }

// movePair locates the cells of query q for a relocation. The mover's
// own results or demand keep the `from` cell in place; the `to` cell
// is created if the target hosted no supporter or demander of q.
func (e *Engine) movePair(q workload.QID, from, to cluster.CID) cellPair {
	t := e.cellPos(q, to)
	return cellPair{from: int32(searchCells(e.rows[q], from)), to: int32(t)}
}

// moveRecallTerms adds sign times the recall-sum terms of query q in
// the two clusters of a relocation.
func (e *Engine) moveRecallTerms(q workload.QID, at cellPair, sign float64) {
	f, t := &e.rows[q][at.from], &e.rows[q][at.to]
	it := e.invTot[q]
	e.recallSum += sign * (f.demandW*f.res + t.demandW*t.res) * it
	e.wRecallSum += sign * (f.demand*f.res + t.demand*t.res) * it
}

// Move relocates peer p to cluster `to`, updating all incremental
// aggregates — including the global social/workload cost state — in
// time proportional to p's workload and result lists. It returns the
// previous cluster. Move allocates nothing at steady state. Like
// AddPeer/RemovePeer it refuses to run on a stale engine: syncing the
// version counters at exit would otherwise mask the external mutation
// that made the aggregates wrong.
func (e *Engine) Move(p int, to cluster.CID) cluster.CID {
	e.mustBeFresh("Move")
	from := e.cfg.ClusterOf(p)
	if from == to {
		return from
	}
	// Membership: only the sizes of `from` and `to` change.
	sf, st := e.cfg.Size(from), e.cfg.Size(to)
	e.membSumRaw -= float64(sf) * e.theta.F(sf)
	if sf > 1 {
		e.membSumRaw += float64(sf-1) * e.theta.F(sf-1)
	}
	if st > 0 {
		e.membSumRaw -= float64(st) * e.theta.F(st)
	}
	e.membSumRaw += float64(st+1) * e.theta.F(st+1)
	e.cfg.Move(p, to)
	e.cfgVersion = e.cfg.MembershipVersion()

	pw := e.peerWl[p]
	pr := e.peerRes[p]

	// The recall sums change exactly at the (q, from/to) cells touched
	// by p's demand (peerWl) or p's results (peerRes). Locate them once
	// (every `to` cell exists from here on, so no row changes under the
	// passes), subtract the old terms over the union of both query
	// lists, apply the aggregate deltas, then add the new terms back and
	// let go of the `from` cells p emptied. qMark deduplicates queries
	// appearing in both lists without allocating.
	at := e.movePairs[:0]
	for i := range pw {
		at = append(at, e.movePair(pw[i].qid, from, to))
	}
	for i := range pr {
		at = append(at, e.movePair(pr[i].qid, from, to))
	}
	e.movePairs = at
	atW, atR := at[:len(pw)], at[len(pw):]
	e.qEpoch++
	ep := e.qEpoch
	for i := range pw {
		e.qMark[pw[i].qid] = ep
		e.moveRecallTerms(pw[i].qid, atW[i], -1)
	}
	for i := range pr {
		if e.qMark[pr[i].qid] != ep {
			e.moveRecallTerms(pr[i].qid, atR[i], -1)
		}
	}
	for i := range pw {
		en := &pw[i]
		f, t := &e.rows[en.qid][atW[i].from], &e.rows[en.qid][atW[i].to]
		f.demandW -= en.w
		t.demandW += en.w
		f.demand -= en.count
		t.demand += en.count
	}
	for i := range pr {
		re := &pr[i]
		e.rows[re.qid][atR[i].from].res -= re.res
		e.rows[re.qid][atR[i].to].res += re.res
	}
	for i := range pw {
		e.moveRecallTerms(pw[i].qid, atW[i], 1)
		e.dropIfZero(pw[i].qid, int(atW[i].from))
	}
	for i := range pr {
		if e.qMark[pr[i].qid] != ep {
			e.moveRecallTerms(pr[i].qid, atR[i], 1)
			e.dropIfZero(pr[i].qid, int(atR[i].from))
		}
	}
	return from
}

// Config returns the live configuration. Mutate it only through
// Engine.Move, or the incremental aggregates go stale.
func (e *Engine) Config() *cluster.Config { return e.cfg }

// Workload returns the workload the engine was built over.
func (e *Engine) Workload() *workload.Workload { return e.wl }

// Peers returns the peer slice (shared, do not reorder).
func (e *Engine) Peers() []*peer.Peer { return e.peers }

// NumPeers returns the live |P|: the number of peers currently in the
// system. Use NumSlots for the slot range to iterate over.
func (e *Engine) NumPeers() int { return e.cfg.Live() }

// NumSlots returns the number of peer slots, live or vacated. Peer IDs
// lie in [0, NumSlots()); use IsLive to skip vacated slots.
func (e *Engine) NumSlots() int { return e.n }

// IsLive reports whether slot p currently holds a peer.
func (e *Engine) IsLive(p int) bool { return e.peers[p] != nil }

// SlotGeneration counts how many joins slot p has hosted. Consumers
// that cache per-peer state across membership changes (the protocol's
// period baseline) compare generations to tell a reused slot's
// newcomer from the peer they sampled.
func (e *Engine) SlotGeneration(p int) uint32 {
	if p >= len(e.slotGen) {
		return 0
	}
	return e.slotGen[p]
}

// Alpha returns the membership-cost weight α.
func (e *Engine) Alpha() float64 { return e.alpha }

// SetAlpha changes α. No rebuild is needed: α only scales the
// membership term at evaluation time (the incremental state stores the
// membership sum without the α factor).
func (e *Engine) SetAlpha(a float64) {
	if a < 0 {
		panic("core: negative alpha")
	}
	e.alpha = a
	// Every membership term changes, the join terms syncClusters keeps
	// among them.
	e.clustersVer = -1
}

// Theta returns the cluster participation cost function.
func (e *Engine) Theta() cluster.Theta { return e.theta }

// Stale reports whether the engine's incremental state may no longer
// match its inputs: the workload changed, or the configuration's
// membership was mutated (a move, join or leave) behind the engine's
// back. Mutations applied through the engine itself (Move, AddPeer,
// RemovePeer) keep it fresh; anything else requires Rebuild before
// the engine may serve costs again.
func (e *Engine) Stale() bool {
	return e.wl.Version() != e.wlVersion || e.cfg.MembershipVersion() != e.cfgVersion
}

// mustBeFresh panics when the engine is stale: the incremental
// mutators sync the version counters on exit, so running them over a
// stale engine would silently launder the external mutation instead
// of surfacing it.
func (e *Engine) mustBeFresh(op string) {
	if e.Stale() {
		panic(fmt.Sprintf("core: %s on a stale engine (workload or membership mutated externally); Rebuild first", op))
	}
}

// membership returns the first term of Eq. 1 for a cluster of the given
// size: α·θ(size)/|P|, with |P| the live peer count.
func (e *Engine) membership(size int) float64 {
	return e.alpha * e.theta.F(size) / float64(e.cfg.Live())
}

// ownRecall returns Σ_q w(q)·r(q,p): the recall p supplies to its own
// workload, which is in-cluster wherever p goes. Precomputed at
// Rebuild — it is invariant under relocations.
func (e *Engine) ownRecall(p int) float64 { return e.peerOwnW[p] }

// syncClusters recomputes the ascending non-empty cluster list and each
// listed cluster's join term, in one walk of the cluster slots, when the
// membership version moved since the last walk (any change of a size or
// of the live count moves it; SetAlpha forces the walk). The join term
// is the expression a scan used to evaluate per cluster,
// membership(size+1), so costs keep their bits. During a frozen
// concurrent scan the version cannot move, so after PrepareDecide the
// refresh never runs concurrently and both are pure reads.
func (e *Engine) syncClusters() {
	v := e.cfg.MembershipVersion()
	if e.clustersVer == v {
		return
	}
	ne, jt := e.nonEmpty[:0], e.joinTerm[:0]
	for c := 0; c < e.cmax; c++ {
		if s := e.cfg.Size(cluster.CID(c)); s > 0 {
			ne = append(ne, cluster.CID(c))
			jt = append(jt, e.membership(s+1))
		}
	}
	e.nonEmpty, e.joinTerm, e.clustersVer = ne, jt, v
	e.classOrder = e.classOrder[:0]
}

// sizeClass is the non-empty clusters of one size: the join term each
// charges a newcomer, and the lowest two of them (the same one twice
// when there is one, None for a size no cluster has), so that a cluster
// other than the scanning peer's own can speak for the class.
type sizeClass struct {
	term          float64
	first, second cluster.CID
}

// syncSizeClasses builds the size classes (see the sizeClasses field)
// from the synced non-empty list unless they are built, in one walk of
// the list and a sort of the sizes present by join term. A class's term
// is the join term of its clusters, so costs keep their bits. With no
// cluster there is nothing to build, and no scan to read it.
func (e *Engine) syncSizeClasses() {
	if len(e.classOrder) > 0 {
		return
	}
	largest := 0
	for _, c := range e.nonEmpty {
		largest = max(largest, e.cfg.Size(c))
	}
	classes := slices.Grow(e.sizeClasses[:0], largest+1)[:largest+1]
	for s := range classes {
		classes[s].first = cluster.None
	}
	order := e.classOrder[:0]
	for i, c := range e.nonEmpty { // ascending: the first two seen are the lowest
		s := e.cfg.Size(c)
		switch k := &classes[s]; {
		case k.first == cluster.None:
			*k = sizeClass{term: e.joinTerm[i], first: c, second: c}
			order = append(order, int32(s))
		case k.second == k.first:
			k.second = c
		}
	}
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(classes[a].term, classes[b].term), cmp.Compare(a, b))
	})
	e.sizeClasses, e.classOrder = classes, order
}

// PrepareDecide refreshes the per-membership-version state concurrent
// scans read: the ascending non-empty cluster list, its join terms and
// the cell walk's size classes. Whoever fans evaluators over goroutines
// calls it after the last mutation and before the scan (the protocol
// Runner does); serial callers may rely on the lazy refresh inside the
// evaluation paths instead.
func (e *Engine) PrepareDecide() {
	e.syncClusters()
	e.syncSizeClasses()
}

// nonEmptyClusters returns the non-empty clusters in ascending order.
// The slice is engine-owned and shared by every evaluator: read-only,
// and valid until the next membership mutation.
func (e *Engine) nonEmptyClusters() []cluster.CID {
	e.syncClusters()
	return e.nonEmpty
}

// PeerCost returns pcost(p, c) (Eq. 1 restricted to single-cluster
// strategies): the cost for p if its cluster were c. Probing a cluster
// p does not belong to accounts for p's own arrival: the membership
// term uses θ(|c|+1) and p's own results count as in-cluster, matching
// the §2.3 worked example. PeerCost allocates nothing.
func (e *Engine) PeerCost(p int, c cluster.CID) float64 {
	return e.peerCost(p, c, e.ownScratch)
}

// peerCost is PeerCost over caller-owned QID scratch (zero outside the
// call, length >= nq), so evaluators with private scratch can probe
// concurrently while the engine is frozen.
func (e *Engine) peerCost(p int, c cluster.CID, own []float64) float64 {
	cur := e.cfg.ClusterOf(p)
	size := e.cfg.Size(c)
	if c == cur {
		cost := e.membership(size)
		for _, en := range e.peerWl[p] {
			cost += en.w - en.wInvT*e.cellAt(en.qid, c).res
		}
		return cost
	}
	cost := e.membership(size + 1)
	pr := e.peerRes[p]
	for i := range pr {
		own[pr[i].qid] = pr[i].res
	}
	for _, en := range e.peerWl[p] {
		cost += en.w - en.wInvT*(e.cellAt(en.qid, c).res+own[en.qid])
	}
	for i := range pr {
		own[pr[i].qid] = 0
	}
	return cost
}

// CostAlone returns pcost for p in a fresh singleton cluster:
// α·θ(1)/|P| plus the recall of everything p does not hold itself.
func (e *Engine) CostAlone(p int) float64 {
	return e.membership(1) + e.peerW[p] - e.peerOwnW[p]
}

// PeerCostMulti evaluates the full Eq. 1 for a multi-cluster strategy
// s ⊆ C: Σ_{c∈s} α·θ(|c ∪ {p}|)/|P| plus the recall lost to peers in no
// cluster of s. It is exposed for completeness; the protocol and the
// experiments use single-cluster strategies per §2.3. Like the other
// evaluation methods it reuses the engine's scratch buffers and
// allocates nothing at steady state.
func (e *Engine) PeerCostMulti(p int, s []cluster.CID) float64 {
	cur := e.cfg.ClusterOf(p)
	var cost float64
	e.cidEpoch++
	ep := e.cidEpoch
	e.multiScratch = e.multiScratch[:0]
	inAny := false
	for _, c := range s {
		if e.cidMark[c] == ep {
			continue
		}
		e.cidMark[c] = ep
		e.multiScratch = append(e.multiScratch, c)
		size := e.cfg.Size(c)
		if c != cur {
			size++
		} else {
			inAny = true
		}
		cost += e.membership(size)
	}
	chosen := e.multiScratch
	own := e.ownScratch
	pr := e.peerRes[p]
	for i := range pr {
		own[pr[i].qid] = pr[i].res
	}
	for _, en := range e.peerWl[p] {
		var in float64
		for _, c := range chosen {
			in += e.cellAt(en.qid, c).res
		}
		if !inAny && len(chosen) > 0 {
			in += own[en.qid]
		}
		if t := e.totals[en.qid]; in > t {
			in = t
		}
		cost += en.w - en.wInvT*in
	}
	for i := range pr {
		own[pr[i].qid] = 0
	}
	return cost
}

// MoveEval holds the outcome of evaluating all candidate clusters for a
// peer.
type MoveEval struct {
	// Cur is the peer's current cluster; CurCost its pcost there.
	Cur     cluster.CID
	CurCost float64
	// Best is the cheapest cluster (possibly Cur); BestCost its pcost.
	Best     cluster.CID
	BestCost float64
	// AloneCost is pcost in a fresh singleton cluster.
	AloneCost float64
}

// Gain returns CurCost - BestCost (>= 0 when an improving move exists).
func (m MoveEval) Gain() float64 { return m.CurCost - m.BestCost }

// consider scores cluster c at cost against the best so far: the lower
// cost wins, and of equal costs the current cluster keeps its place,
// else the lower ID wins. The order is total, so the candidates may come
// in any order.
func (m *MoveEval) consider(c cluster.CID, cost float64) {
	if cost < m.BestCost || (cost == m.BestCost && m.Best != m.Cur && c < m.Best) {
		m.Best, m.BestCost = c, cost
	}
}

// EvaluateMoves computes pcost(p,c) for every non-empty cluster plus
// the singleton option in one pass over p's workload. Ties prefer the
// current cluster (no churn), then the lowest cluster ID, keeping the
// dynamics deterministic. EvaluateMoves allocates nothing at steady
// state: the per-cluster accumulator is a dense scratch slice the
// peer's rows are added into cell by cell, and reset cell by cell or
// through the non-empty cluster list, whichever is shorter.
func (e *Engine) EvaluateMoves(p int) MoveEval {
	return e.evaluateMoves(p, e.accScratch)
}

// addOverlap adds Σ_q w·res[q][c]/totals[q] over p's workload into
// acc[c], in workload order and, within a row, ascending cluster
// order, and returns how many cells the rows hold. Only clusters that
// hold results gain a term, and those are non-empty.
func (e *Engine) addOverlap(p int, acc []float64) (cells int) {
	for _, en := range e.peerWl[p] {
		wit := en.wInvT
		row := e.rows[en.qid]
		cells += len(row)
		for i := range row {
			if v := row[i].res; v != 0 {
				acc[row[i].cid] += wit * v
			}
		}
	}
	return cells
}

// evaluateMoves is EvaluateMoves over a caller-owned CID-indexed
// accumulator (zero outside the call, length >= cmax) — the
// scratch-parameterized form Evaluator uses for concurrent scans over a
// frozen engine. It scores the clusters with the dense walk over the
// non-empty list, or with the cell walk when p's rows hold fewer cells
// than the list has clusters; both give the same bits.
func (e *Engine) evaluateMoves(p int, acc []float64) MoveEval {
	cur := e.cfg.ClusterOf(p)
	nonEmpty := e.nonEmptyClusters()
	joinTerm := e.joinTerm // parallel to nonEmpty; read after the sync

	cells := e.addOverlap(p, acc)
	w := e.peerW[p]
	ownAcc := e.peerOwnW[p]

	ev := MoveEval{Cur: cur}
	ev.CurCost = e.membership(e.cfg.Size(cur)) + w - acc[cur]
	ev.AloneCost = e.membership(1) + w - ownAcc
	ev.Best, ev.BestCost = cur, ev.CurCost
	if cells < len(nonEmpty) {
		e.walkCells(p, acc, w, ownAcc, &ev)
		return ev
	}
	for i, c := range nonEmpty {
		if c != cur {
			ev.consider(c, joinTerm[i]+w-acc[c]-ownAcc)
		}
	}
	for _, c := range nonEmpty {
		acc[c] = 0
	}
	return ev
}

// walkCells is the selfish scan's cell walk. It scores the clusters p's
// results reach off p's own cells, clearing acc as it goes. Any other
// cluster has acc 0, so it costs its join term + w − ownAcc, as every
// cluster of its size does: walking the size classes cheapest first, it
// scores each class's lowest cluster other than the current one at that
// cost, and stops at the first class that costs more than the best so
// far. For a reached cluster that cost only overstates the one already
// scored, which changes no outcome, so the classes skip nothing else.
func (e *Engine) walkCells(p int, acc []float64, w, ownAcc float64, ev *MoveEval) {
	e.syncSizeClasses()
	for _, en := range e.peerWl[p] {
		row := e.rows[en.qid]
		for i := range row {
			c := row[i].cid
			if a := acc[c]; a != 0 {
				acc[c] = 0
				if c != ev.Cur {
					ev.consider(c, e.sizeClasses[e.cfg.Size(c)].term+w-a-ownAcc)
				}
			}
		}
	}
	for _, s := range e.classOrder {
		k := &e.sizeClasses[s]
		cost := k.term + w - ownAcc // the dense walk's cost where acc[c] == 0
		if cost > ev.BestCost {
			break
		}
		c := k.first
		if c == ev.Cur {
			c = k.second
		}
		if c != ev.Cur {
			ev.consider(c, cost)
		}
	}
}
