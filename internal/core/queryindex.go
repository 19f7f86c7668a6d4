package core

import (
	"slices"
	"sync/atomic"

	"repro/internal/peer"
	"repro/internal/workload"
)

// queryIndex registers every workload query under its first attribute:
// a query cannot match an item that lacks its first attribute, so one
// registration per query is enough to name, for a peer, the only
// queries its content can answer. Rebuild's result pass and AddPeer
// both generate their candidates from it. It depends on the workload
// alone, so it outlives content edits and Rebuilds and is only ever
// extended (queries are interned in QID order) or remapped by a
// compaction.
//
// Attribute IDs are vocabulary-dense, so a peer's candidate walk costs
// a load per attribute, not a hash probe: head, indexed by ID, names
// the attribute's list. Every engine gets a head the size of the
// vocabulary, so it holds 4-byte list numbers and not the lists
// themselves: allocating it clears a sixth of the bytes and the
// collector never scans it. The lists sit apart, one per attribute
// ever used, so a remap or reset costs the index's size, not the
// vocabulary's. All storage is reused across resets.
type queryIndex struct {
	head  []int32          // first attribute -> 1 + its index in lists; 0 = never used
	lists [][]workload.QID // QIDs ascending, one list per attribute ever used
	empty []workload.QID   // attribute-less queries: they match every item
	n     int              // the index covers the workload's QIDs [0,n)
	// shared is set once a Clone holds the storage above too (see own);
	// an index without a mark has never been shared.
	shared *atomic.Bool
}

// share marks x as held by one more engine and returns the index that
// engine holds: x's storage, until either side writes it.
func (x *queryIndex) share() queryIndex {
	x.shared.Store(true)
	return *x
}

// own gives x storage of its own before a write: while a clone may share
// it, it copies the storage and takes a fresh mark for the copy.
func (x *queryIndex) own() {
	if x.shared == nil || !x.shared.Load() {
		return
	}
	x.shared = new(atomic.Bool)
	x.head = slices.Clone(x.head)
	x.lists = cloneLists(x.lists)
	x.empty = slices.Clone(x.empty)
}

// extend registers the queries interned since the last call.
func (x *queryIndex) extend(wl *workload.Workload) {
	if x.n == wl.NumQueries() {
		return
	}
	x.own()
	// Size the table once, to the largest first attribute among the new
	// queries. IDs are vocabulary-dense, so a fresh engine's first call
	// takes it to about the vocabulary's size; reaching that by append's
	// doubling copies it many times over.
	need := len(x.head)
	for q := x.n; q < wl.NumQueries(); q++ {
		if ids := wl.Query(workload.QID(q)).IDs(); len(ids) > 0 {
			need = max(need, int(ids[0])+1)
		}
	}
	x.head = append(x.head, make([]int32, need-len(x.head))...)
	for ; x.n < wl.NumQueries(); x.n++ {
		qid := workload.QID(x.n)
		ids := wl.Query(qid).IDs()
		if len(ids) == 0 {
			x.empty = append(x.empty, qid)
			continue
		}
		a := ids[0]
		if x.head[a] == 0 {
			x.lists = append(x.lists, nil)
			x.head[a] = int32(len(x.lists))
		}
		lst := &x.lists[x.head[a]-1]
		*lst = append(*lst, qid)
	}
}

// reset forgets every query, keeping the storage: an attribute keeps
// its list, emptied.
func (x *queryIndex) reset() {
	x.own()
	for i := range x.lists {
		x.lists[i] = x.lists[i][:0]
	}
	x.empty = x.empty[:0]
	x.n = 0
}

// remap renumbers the indexed queries under a compaction's monotone
// old->new mapping (lists stay ascending), dropping the retired ones.
// Emptied lists keep their capacity for a re-intern of the same first
// attribute.
func (x *queryIndex) remap(remap workload.CompactRemap) {
	x.own()
	for i := range x.lists {
		x.lists[i] = remapQIDs(x.lists[i], remap)
	}
	x.empty = remapQIDs(x.empty, remap)
	live := 0
	for _, nid := range remap[:x.n] {
		if nid >= 0 {
			live++
		}
	}
	x.n = live
}

func remapQIDs(lst []workload.QID, remap workload.CompactRemap) []workload.QID {
	k := 0
	for _, qid := range lst {
		if nid := remap[qid]; nid >= 0 {
			lst[k] = nid
			k++
		}
	}
	return lst[:k]
}

// appendCandidates appends to dst every indexed query from QID `from`
// on that can match an item of p, each once: the attribute-less
// queries, then the queries registered under each of p's attributes in
// ascending attribute order (ascending QID within one attribute). The
// lists are ascending, so the queries interned since some earlier call
// are a suffix of each, usually an empty one.
func (x *queryIndex) appendCandidates(dst []workload.QID, p *peer.Peer, from workload.QID) []workload.QID {
	dst = append(dst, qidsFrom(x.empty, from)...)
	for _, a := range p.Attrs() {
		if int(a) < len(x.head) && x.head[a] != 0 {
			dst = append(dst, qidsFrom(x.lists[x.head[a]-1], from)...)
		}
	}
	return dst
}

// qidsFrom returns the suffix of the ascending list lst that starts at
// the first QID >= from.
func qidsFrom(lst []workload.QID, from workload.QID) []workload.QID {
	if n := len(lst); n == 0 || lst[n-1] < from {
		return nil
	}
	if lst[0] >= from {
		return lst
	}
	i, _ := slices.BinarySearch(lst, from)
	return lst[i:]
}
