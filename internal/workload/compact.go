package workload

import (
	"fmt"

	"repro/internal/attr"
)

// This file implements in-place workload compaction. Intern registers
// distinct queries forever, so under open-ended churn with novel
// queries every QID-indexed structure — here and in any engine built
// over the workload — grows with query history. Compact reclaims the
// rows of retired queries by densely renumbering the survivors,
// letting a long-lived process run indefinitely with memory bounded by
// its live query set instead of its lifetime query history.
//
// A query is dead when no peer currently demands it (global count 0)
// and it has not been used for at least minIdle demand-recording
// events (the per-QID last-use policy: minIdle > 0 retains recently
// retired queries so a churning population that quickly re-issues them
// does not pay the re-intern). Removing a dead query is lossless — it
// carries no demand, so no count, total or weight changes.
//
// The remap is monotone (survivors keep their relative order), so the
// sorted per-peer entry lists stay sorted and callers can rewrite
// their own QID-indexed state in a single forward pass. Compact
// reuses an internal remap buffer and rewrites every structure in
// place, so at steady state (stable capacities) it allocates nothing.

// CompactRemap is the old->new QID mapping a compaction produced.
// Dead is the sentinel for removed queries.
type CompactRemap = []QID

// Dead marks a removed query in a compaction remap.
const Dead QID = -1

// DeadQueries returns how many distinct queries are currently
// retirable under the given policy: global count 0 and last use at
// least minIdle demand-recording events ago. minIdle <= 0 retires
// every zero-count query.
func (w *Workload) DeadQueries(minIdle int) int {
	dead := 0
	for q := range w.queries {
		if w.global[q] == 0 && w.clock-w.lastUse[q] >= int64(minIdle) {
			dead++
		}
	}
	return dead
}

// Compactions counts the Compact calls that removed at least one
// query — the workload's compaction generation.
func (w *Workload) Compactions() int { return w.compactions }

// LastUse returns the demand clock stamp of qid's most recent
// Add/AddQID — or, for a query never demanded since interning, the
// clock value at intern time (so a freshly interned query starts its
// idle age at zero). The difference to Clock is the idle age the
// Compact policy compares against minIdle.
func (w *Workload) LastUse(qid QID) int64 { return w.lastUse[qid] }

// Clock returns the demand clock: the number of Add/AddQID events
// recorded so far.
func (w *Workload) Clock() int64 { return w.clock }

// Compact removes every dead query (see DeadQueries) and densely
// renumbers the survivors, rewriting the intern table, the query and
// count arrays and every per-peer entry list in place. It returns the
// monotone old->new remap (remap[old] == Dead for removed queries;
// the slice is reused by the next Compact) and the number of queries
// removed. When nothing is dead it returns (remap, 0) without
// mutating anything — the version counter moves only when the
// workload changed.
//
// Callers holding QID-indexed state of their own (a cost engine's
// aggregate rows, an index, a cache) must rewrite it with the remap —
// or rebuild it — before using it again: after Compact a QID names a
// different query than before, and stale state would silently read
// the wrong rows. core.Engine.CompactQueries is the engine-side
// counterpart.
func (w *Workload) Compact(minIdle int) (CompactRemap, int) {
	n := len(w.queries)
	if cap(w.remapScratch) < n {
		w.remapScratch = make([]QID, n)
	}
	remap := w.remapScratch[:n]
	live := 0
	for q := 0; q < n; q++ {
		if w.global[q] == 0 && w.clock-w.lastUse[q] >= int64(minIdle) {
			remap[q] = Dead
		} else {
			remap[q] = QID(live)
			live++
		}
	}
	if live == n {
		return remap, 0
	}

	// Dense arrays: survivors slide down in one forward pass (the
	// remap is monotone, so new <= old and no slot is overwritten
	// before it is read). Dropped attr.Set references are cleared so
	// the backing array does not pin dead query sets.
	for q := 0; q < n; q++ {
		if nid := int(remap[q]); nid >= 0 && nid != q {
			w.queries[nid] = w.queries[q]
			w.global[nid] = w.global[q]
			w.lastUse[nid] = w.lastUse[q]
		}
	}
	for q := live; q < n; q++ {
		w.queries[q] = attr.Set{}
	}
	w.queries = w.queries[:live]
	w.global = w.global[:live]
	w.lastUse = w.lastUse[:live]
	w.index(len(w.slots)) // the survivors, under their new QIDs

	// Per-peer entry lists reference only demanded (global > 0 =>
	// live) queries; the monotone renumbering keeps them sorted.
	for p := range w.perPeer {
		for i := range w.perPeer[p] {
			e := &w.perPeer[p][i]
			if e.Q = remap[e.Q]; e.Q == Dead {
				panic(fmt.Sprintf("workload: peer %d demands dead query", p))
			}
		}
	}

	w.compactions++
	w.version++
	return remap, n - live
}
