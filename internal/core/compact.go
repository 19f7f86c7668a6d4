package core

import (
	"fmt"

	"repro/internal/workload"
)

// This file implements in-place query compaction: the engine-side
// counterpart of workload.Compact. A long-lived engine accumulates one
// row per distinct query ever interned — under open-ended churn with
// novel queries the per-query rows and totals, the scratch slices and
// the inverted query/demander indexes grow with query history, not
// with the live population. Compact retires the dead queries and
// rewrites every QID-indexed structure under the monotone old->new
// remap in one forward pass, without a full Rebuild: the incremental
// cost state (membSumRaw, recallSum, wRecallSum, sumW, ansDemand) is
// invariant under compaction, because a dead query carries no demand
// and therefore contributes zero to every sum.
//
// The version/Stale machinery stays authoritative. Engine.Compact
// refuses to run on a stale engine (mustBeFresh), and the lower-level
// CompactQueries accepts a workload compacted exactly once since the
// engine last synchronized — any other external mutation still
// surfaces as staleness instead of being laundered by the remap.
//
// Like the other steady-state mutators, the compact path allocates
// nothing once capacities are warm: the remap is a workload-owned
// scratch buffer, rows slide down as slice headers, index lists are
// rewritten in place (emptied ones keep their capacity), and the cell
// and demander rows of removed queries are parked for reuse by
// growRowSlices.

// Compact retires every workload query that is dead under the given
// last-use policy (global count 0 and idle for at least minIdle
// demand events; minIdle <= 0 retires all zero-count queries) and
// remaps all QID-indexed engine state in one pass. It returns the
// number of queries removed (0 when nothing was dead; the engine and
// workload are then untouched). Costs are preserved exactly: Compact
// never changes SCost, WCost or any PeerCost.
func (e *Engine) Compact(minIdle int) int {
	e.mustBeFresh("Compact")
	e.own()
	// Materialize rows for any queries interned externally since the
	// last sync, so the remap covers every row the engine owns.
	e.growRows()
	remap, removed := e.wl.Compact(minIdle)
	if removed == 0 {
		return 0
	}
	e.applyQueryRemap(remap)
	e.wlVersion = e.wl.Version()
	e.wlCompactions = e.wl.Compactions()
	return removed
}

// DeadQueries reports how many of the workload's distinct queries a
// Compact(minIdle) would remove right now.
func (e *Engine) DeadQueries(minIdle int) int { return e.wl.DeadQueries(minIdle) }

// CompactQueries rewrites all QID-indexed engine state under remap,
// the old->new mapping returned by a workload.Compact the caller ran
// directly. The workload must have been compacted exactly once since
// the engine last synchronized with it, with no other mutation in
// between; CompactQueries panics otherwise — the compaction
// generation and version counters would mismatch, and remapping over
// an unrelated mutation would silently launder it. Most callers want
// Engine.Compact, which performs the workload compaction itself under
// the same guard.
func (e *Engine) CompactQueries(remap workload.CompactRemap) {
	if e.wl.Compactions() != e.wlCompactions+1 || e.wl.Version() != e.wlVersion+1 {
		panic(fmt.Sprintf("core: CompactQueries needs exactly one workload compaction since the last sync (compactions %d->%d, version %d->%d); Rebuild instead",
			e.wlCompactions, e.wl.Compactions(), e.wlVersion, e.wl.Version()))
	}
	if len(remap) < e.nq {
		panic(fmt.Sprintf("core: CompactQueries remap spans %d queries, engine has %d rows", len(remap), e.nq))
	}
	e.applyQueryRemap(remap)
	e.wlVersion = e.wl.Version()
	e.wlCompactions = e.wl.Compactions()
}

// applyQueryRemap rewrites every QID-indexed structure under the
// monotone remap. remap covers the engine's oldNq rows (possibly
// more, when queries were interned externally after the last sync —
// those have no rows and no demand, so their survivors get correct
// zero rows from the padding).
func (e *Engine) applyQueryRemap(remap workload.CompactRemap) {
	e.own()
	oldNq := e.nq
	newNq := e.wl.NumQueries()

	// Per-query totals slide down in one forward pass: the remap is
	// monotone, so nid <= q and no entry is overwritten before it moved.
	// A cell row moves as a slice header.
	liveRows := 0
	for q := 0; q < oldNq; q++ {
		nid := int(remap[q])
		if nid < 0 {
			continue
		}
		if nid != q {
			e.totals[nid] = e.totals[q]
			e.invTot[nid] = e.invTot[q]
			e.demandTot[nid] = e.demandTot[q]
		}
		liveRows++
	}
	// Shrink to the survivors, then pad back out to newNq (a no-op
	// unless external interns outran the engine); padFloats zeroes
	// everything past the live prefix either way, and growRowSlices
	// empties the rows it exposes.
	e.totals = padFloats(e.totals[:liveRows], newNq)
	e.invTot = padFloats(e.invTot[:liveRows], newNq)
	e.demandTot = padFloats(e.demandTot[:liveRows], newNq)
	e.ownScratch = padFloats(e.ownScratch[:liveRows], newNq)
	e.rows = growRowSlices(slideRows(e.rows, remap), newNq)
	e.qMark = padMarks(e.qMark[:0], newNq)

	// Per-peer lists: results of dead queries are dropped (the query
	// is forgotten; a future re-intern rediscovers its supporters),
	// demand entries are all live by construction. The remap is
	// monotone, so the queries the result lists are complete for stay a
	// prefix: its survivors.
	covered := 0
	for _, nid := range remap[:e.resCovered] {
		if nid >= 0 {
			covered++
		}
	}
	e.resCovered = covered
	for pid := range e.peerRes {
		lst := e.peerRes[pid]
		k := 0
		for i := range lst {
			if nid := remap[lst[i].qid]; nid >= 0 {
				lst[k] = resEntry{qid: nid, res: lst[i].res}
				k++
			}
		}
		e.peerRes[pid] = lst[:k]
	}
	for pid := range e.peerWl {
		lst := e.peerWl[pid]
		for i := range lst {
			nid := remap[lst[i].qid]
			if nid < 0 {
				panic(fmt.Sprintf("core: peer %d demands compacted-away query %d", pid, lst[i].qid))
			}
			lst[i].qid = nid
		}
	}

	// The query index; queries interned past its indexed prefix are
	// registered under their new ids.
	e.queries.remap(remap)
	e.queries.extend(e.wl)

	// Content-side membership indexes, when built.
	if e.peersByAttr != nil {
		// Demander rows: live rows slide down to their new ids; the
		// emptied rows of dead queries park their capacity past the
		// live prefix, where growRowSlices reuses it.
		for q := 0; q < oldNq; q++ {
			if remap[q] < 0 && len(e.demanders[q]) != 0 {
				panic(fmt.Sprintf("core: dead query %d still has demanders", q))
			}
		}
		e.demanders = growRowSlices(slideRows(e.demanders, remap), newNq)
	}
	e.nq = newNq
}
