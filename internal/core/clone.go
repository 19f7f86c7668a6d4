package core

import (
	"slices"

	"repro/internal/peer"
)

// Clone returns an independent engine equal to e bit for bit: every
// cost, aggregate and decision it yields is the one e would, and
// nothing done to either afterwards shows in the other. It owns
// peer.Clones of e's peers (which share the built postings until either
// side's content changes), copies of the workload and the
// configuration, and copies of every aggregate, the query index, the
// free-slot stack, the slot generations and what Rebuild remembers, so
// a content or workload edit on the clone followed by Rebuild re-asks
// only the edited peers.
//
// What is not carried over is what costs nothing to lose: scratch
// starts empty, the content indexes are left to the first join, leave
// or publish, as after a Rebuild, and the clone starts a lineage of its
// own, so its views are not diffed against e's.
//
// Clone only reads e: any number of goroutines may clone one engine
// that nobody is mutating. A clone costs a fraction of core.New over
// the same inputs, which asks every peer about every candidate query.
func (e *Engine) Clone() *Engine {
	c := &Engine{
		wl:    e.wl.Clone(),
		cfg:   e.cfg.Clone(),
		theta: e.theta,
		alpha: e.alpha,
		n:     e.n,
		nq:    e.nq,
		cmax:  e.cmax,

		totals:    slices.Clone(e.totals),
		invTot:    slices.Clone(e.invTot),
		demandTot: slices.Clone(e.demandTot),
		peerRes:   cloneLists(e.peerRes),
		peerWl:    cloneLists(e.peerWl),
		peerW:     slices.Clone(e.peerW),
		peerOwnW:  slices.Clone(e.peerOwnW),

		resFrom:    slices.Clone(e.resFrom),
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

		free:    slices.Clone(e.free),
		slotGen: slices.Clone(e.slotGen),
		queries: e.queries.clone(),

		clustersVer: -1, // no membership version: the sync below walks

		wlVersion:     e.wlVersion,
		wlCompactions: e.wlCompactions,
		cfgVersion:    e.cfgVersion,
		popVersion:    e.popVersion,
		lineage:       nextLineage.Add(1),
	}
	// A slot the result pass remembers is remembered under its clone.
	c.peers = make([]*peer.Peer, len(e.peers))
	for pid, p := range e.peers {
		if p == nil {
			continue
		}
		c.peers[pid] = p.Clone()
		if c.resFrom[pid].peer == p {
			c.resFrom[pid].peer = c.peers[pid]
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
