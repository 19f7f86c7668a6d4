package core

import (
	"slices"
	"sync/atomic"

	"repro/internal/peer"
)

// Clone returns an independent engine equal to e bit for bit: every
// cost, aggregate and decision it yields is the one e would, and
// nothing done to either afterwards shows in the other.
//
// A clone copies what a run of the protocol writes: the configuration,
// the cells and the scalar aggregates. The rest it shares with e until
// either engine writes it:
//   - the per-peer lists and sums (peerRes, peerWl, peerW, peerOwnW),
//     the per-query totals (totals, invTot, demandTot), the free-slot
//     stack and the slot generations, which Rebuild, AddPeer,
//     RemovePeer, Compact and SetFreeSlots copy first (own);
//   - the query index, which the first write of a new or renumbered
//     query copies first;
//   - the peers' content: the clone holds peer.Clones of e's peers,
//     which share their item lists and built indexes, and a content edit
//     on either side's peer installs that side's own;
//   - the workload's intern table, which a workload.Clone shares (its
//     counts are the clone's own) until a new query or a compaction on
//     either side copies it.
//
// What Rebuild remembers (resFrom) names the engine's own peers, so the
// clone gets a copy naming its own, and a content or workload edit on
// the clone followed by Rebuild re-asks only the edited peers. Scratch
// starts empty, the content indexes are left to the first join, leave or
// publish, as after a Rebuild, and the clone starts a lineage of its
// own, so its views are not diffed against e's.
//
// Clone writes nothing of e but atomic marks, which tell whichever of
// the two engines writes a shared part first to copy it: any number of
// goroutines may clone one engine that nobody is mutating. A clone costs
// a fraction of core.New over the same inputs, which asks every peer
// about every candidate query.
func (e *Engine) Clone() *Engine {
	e.shared.Store(true)
	c := &Engine{
		wl:    e.wl.Clone(),
		cfg:   e.cfg.Clone(),
		theta: e.theta,
		alpha: e.alpha,
		n:     e.n,
		nq:    e.nq,
		cmax:  e.cmax,

		totals:    e.totals,
		invTot:    e.invTot,
		demandTot: e.demandTot,
		peerRes:   e.peerRes,
		peerWl:    e.peerWl,
		peerW:     e.peerW,
		peerOwnW:  e.peerOwnW,
		free:      e.free,
		slotGen:   e.slotGen,
		shared:    e.shared,
		queries:   e.queries.share(),

		peers:      peer.CloneAll(e.peers),
		resFrom:    make([]resSource, len(e.resFrom)),
		resCovered: e.resCovered,

		membSumRaw: e.membSumRaw,
		recallSum:  e.recallSum,
		wRecallSum: e.wRecallSum,
		sumW:       e.sumW,
		ansDemand:  e.ansDemand,

		ownScratch: make([]float64, e.nq),
		accScratch: make([]float64, e.cmax),
		qMark:      make([]uint64, e.nq),
		cidMark:    make([]uint64, e.cmax),

		clustersVer: -1, // no membership version: the sync below walks

		wlVersion:     e.wlVersion,
		wlCompactions: e.wlCompactions,
		cfgVersion:    e.cfgVersion,
		popVersion:    e.popVersion,
		lineage:       nextLineage.Add(1),
	}
	// A slot the result pass remembers is remembered under its clone.
	for pid, src := range e.resFrom {
		if p := e.peers[pid]; p != nil && src.peer == p {
			c.resFrom[pid] = resSource{c.peers[pid], src.version}
		}
	}
	// The rows keep their slack, so the clone's cells move to allocations
	// of their own no sooner than e's do.
	total := 0
	for _, row := range e.rows {
		total += cap(row)
	}
	c.cellArena = make([]cell, total)
	c.rows = make([][]cell, len(e.rows))
	off := 0
	for q, row := range e.rows {
		c.rows[q] = c.cellArena[off : off+len(row) : off+cap(row)]
		copy(c.rows[q], row)
		off += cap(row)
	}
	c.syncClusters()
	return c
}

// own gives e storage of its own for the parts a Clone shares (see the
// shared field) before a write: while another engine may hold them, it
// copies them and takes a fresh mark for the copies.
func (e *Engine) own() {
	if !e.shared.Load() {
		return
	}
	e.shared = new(atomic.Bool)
	e.totals = slices.Clone(e.totals)
	e.invTot = slices.Clone(e.invTot)
	e.demandTot = slices.Clone(e.demandTot)
	e.peerRes = cloneLists(e.peerRes)
	e.peerWl = cloneLists(e.peerWl)
	e.peerW = slices.Clone(e.peerW)
	e.peerOwnW = slices.Clone(e.peerOwnW)
	e.free = slices.Clone(e.free)
	e.slotGen = slices.Clone(e.slotGen)
}

// cloneLists copies a list of lists into one arena, every list clipped
// to its length so that an append to one moves it out instead of
// writing into its neighbour.
func cloneLists[T any](lists [][]T) [][]T {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	arena := make([]T, 0, total)
	out := make([][]T, len(lists))
	for i, l := range lists {
		start := len(arena)
		arena = append(arena, l...)
		out[i] = arena[start:len(arena):len(arena)]
	}
	return out
}
