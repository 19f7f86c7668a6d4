package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/peer"
)

// This file implements the snapshot-isolated read path for query
// serving: an immutable RoutingView published by a single writer and
// shared by any number of concurrent readers. The paper's
// query-routing model — route a query to the clusters that can answer
// it — is a pure read over state that only changes at membership and
// maintenance boundaries, so a long-running daemon builds a view
// after every mutation (under its write lock) and serves all queries
// from the latest published view without locking.
//
// A view answers result(q,p) from its own posting table. For every
// attribute a it holds a list of (slot, mask) entries, ascending by
// slot, one per live peer holding a: bit i of the mask is set when the
// peer's item i holds a. A query's answer for one slot is then the
// popcount of the AND of that slot's masks in q's lists, and Route
// reads nothing but the table, the slot -> cluster assignment and the
// per-cluster sizes. The view also keeps the frozen peers (see
// peer.Freeze/ResultCountRO): for export, for the delta patcher, and
// for the one case a mask cannot carry, a wide peer with more items
// than a mask has bits, whose entries say so and which Route asks
// directly. The peers are shared because their content is immutable
// while views exist (the serving daemon never mutates a live peer's
// items — churn replaces peers wholesale).
//
// Successive views of one engine share structure. Relocations (reform
// rounds) and workload compactions change neither the population nor
// any posting list, so a republish after them reuses the previous
// view's posting table and peer slice outright. A join or leave changes
// the posting lists of one peer's attributes only: the posting table is
// a paged, copy-on-write array indexed by attribute ID, and one patcher
// (postingTable.patched) rewrites just the touched lists (and the pages
// holding them) while every other page stays shared with the
// predecessor. The engine and a replica applying a delta both call it.
// Either way a republish costs O(slots + the change's footprint), never
// O(total postings); only the first view of an engine, or of a replica,
// is built from scratch (buildPostings).

// RouteHit is one cluster's share of a query's results.
type RouteHit struct {
	// Cluster is the cluster slot ID.
	Cluster cluster.CID
	// Size is the cluster's live member count.
	Size int
	// Results is Σ result(q,p) over the cluster's members.
	Results int
}

// RouteScratch holds the reusable buffers of Route so the per-query
// read path allocates nothing at steady state. A scratch must not be
// shared by concurrent readers; give each goroutine (or pool) its own.
type RouteScratch struct {
	results []int // dense per-CID accumulator, all-zero between calls
	hits    []RouteHit
	key     []byte // canonical query key buffer (RouteCached)
	// A multi-term query's posting lists, the shortest first, and a
	// cursor into each of the others. Emptied after every call so a
	// pooled scratch keeps no superseded view reachable.
	lists [][]posting
	cur   []int
}

// posting is one entry of an attribute's posting list: a live slot
// whose peer holds the attribute, and which of the peer's items do —
// bit i for item i. Every holder has at least one such item, so mask 0
// marks a wide entry: its peer holds more than maskItems items, and
// Route answers that slot with peer.ResultCountRO. An entry is 8 bytes
// with no padding.
type posting struct {
	slot int32
	mask uint32
}

// maskItems is how many items a posting's mask can carry.
const maskItems = 32

// newPosting returns slot's entry in a's list for the frozen peer p.
func newPosting(slot int32, p *peer.Peer, a attr.ID) posting {
	e := posting{slot: slot}
	if p.NumItems() <= maskItems {
		for _, i := range p.ItemsWith(a) {
			e.mask |= 1 << uint(i)
		}
	}
	return e
}

// Posting lists live in pages of postingPageLen consecutive attribute
// IDs. A page is small enough that copying one per touched attribute
// keeps a join's republish in the kilobytes, and large enough that the
// page directory of a 32k-term vocabulary is a few hundred pointers.
const (
	postingPageBits = 6
	postingPageLen  = 1 << postingPageBits
)

type postingPage [postingPageLen][]posting

// postingTable maps an attribute ID to its posting list, ascending by
// slot. It is immutable once its view is published; successor views
// share its pages (see postingPatch).
type postingTable struct {
	pages []*postingPage
}

// get returns a's posting list, nil for any ID no page covers
// (negative IDs convert to indexes far past the directory).
func (t postingTable) get(a attr.ID) []posting {
	pi := uint(a) >> postingPageBits
	if pi >= uint(len(t.pages)) || t.pages[pi] == nil {
		return nil
	}
	return t.pages[pi][uint(a)&(postingPageLen-1)]
}

// postingPatch derives a successor table: the page directory is
// copied, and a page is copied the first time one of its lists is
// replaced, so untouched pages stay shared with the source table.
type postingPatch struct {
	postingTable
	owned []bool
}

func (t postingTable) patch() postingPatch {
	return postingPatch{postingTable{slices.Clone(t.pages)}, make([]bool, len(t.pages))}
}

// set replaces a's posting list. lst must not be modified afterwards.
func (b *postingPatch) set(a attr.ID, lst []posting) {
	pi := int(a) >> postingPageBits
	for pi >= len(b.pages) {
		b.pages = append(b.pages, nil)
		b.owned = append(b.owned, false)
	}
	if !b.owned[pi] {
		pg := new(postingPage)
		if old := b.pages[pi]; old != nil {
			*pg = *old
		}
		b.pages[pi], b.owned[pi] = pg, true
	}
	at := &b.pages[pi][int(a)&(postingPageLen-1)]
	if len(lst) == 0 {
		lst = nil
	}
	*at = lst
}

// buildPostings derives the posting table of a slot table from
// scratch. The peers must be frozen and hold no negative attribute ID.
// Slots are walked in ascending order, so every list comes out sorted
// without a sort: one pass counts each attribute's holders, which sizes
// its list inside one arena, and a second appends each peer's entries.
func buildPostings(peers []*peer.Peer) postingTable {
	n := 0
	for _, p := range peers {
		if p != nil {
			if as := p.Attrs(); len(as) > 0 {
				n = max(n, int(as[len(as)-1])+1)
			}
		}
	}
	// next[a] counts a's holders, then becomes where a's next entry goes,
	// and ends as the end of a's list, which is where a+1's begins.
	next := make([]int32, n)
	for _, p := range peers {
		if p != nil {
			for _, a := range p.Attrs() {
				next[a]++
			}
		}
	}
	total := int32(0)
	for a, c := range next {
		next[a] = total
		total += c
	}
	// A peer's entries are the zeroed ones at next[a]: its items set
	// their mask bits, then its attributes stamp the slot and advance
	// next past them. This is newPosting for a whole peer at once without
	// its per-attribute lookup in the peer, which made a 1000-peer cold
	// restore 27% slower; checkPostingTable holds both to the items.
	arena := make([]posting, total)
	for slot, p := range peers {
		if p == nil {
			continue
		}
		if items := p.SharedItems(); len(items) <= maskItems {
			for i, it := range items {
				for _, a := range it.IDs() {
					arena[next[a]].mask |= 1 << uint(i)
				}
			}
		}
		for _, a := range p.Attrs() {
			arena[next[a]].slot = int32(slot)
			next[a]++
		}
	}
	var pb postingPatch
	start := int32(0)
	for a, end := range next {
		if end > start {
			// Clipped, so no successor can append into a neighbour's list.
			pb.set(attr.ID(a), arena[start:end:end])
		}
		start = end
	}
	return pb.postingTable
}

// postingEdit drops slot's entry from attribute a's list, or adds e.
type postingEdit struct {
	a   attr.ID
	add bool
	e   posting
}

// appendSwap appends the edits that carry slot from holding old to
// holding p: old's entries leave its attributes' lists and p's join
// theirs. Either peer may be nil; p must be frozen.
func appendSwap(edits []postingEdit, slot int32, old, p *peer.Peer) []postingEdit {
	if old != nil {
		for _, a := range old.Attrs() {
			edits = append(edits, postingEdit{a: a, e: posting{slot: slot}})
		}
	}
	if p != nil {
		for _, a := range p.Attrs() {
			edits = append(edits, postingEdit{a: a, add: true, e: newPosting(slot, p, a)})
		}
	}
	return edits
}

// patched returns the successor of t under edits, which name every slot
// at most once (a drop and an add for one slot are one swap). Each
// touched list is rewritten once, by merging its edits in slot order,
// on pages copied as postingPatch does; every other page is shared.
// It sorts edits in place.
func (t postingTable) patched(edits []postingEdit) postingTable {
	slices.SortFunc(edits, func(x, y postingEdit) int {
		return cmp.Or(cmp.Compare(x.a, y.a), cmp.Compare(x.e.slot, y.e.slot))
	})
	pb := t.patch()
	for len(edits) > 0 {
		n := 1
		for n < len(edits) && edits[n].a == edits[0].a {
			n++
		}
		pb.set(edits[0].a, mergeEdits(pb.get(edits[0].a), edits[:n]))
		edits = edits[n:]
	}
	return pb.postingTable
}

// mergeEdits returns a fresh copy of lst with edits, which are in
// ascending slot order, applied. A slot's drop and add may come in
// either order: everything below the slot is copied first, the drop
// skips the slot's old entry, and the add emits the new one.
func mergeEdits(lst []posting, edits []postingEdit) []posting {
	n := len(lst)
	for _, ed := range edits {
		if ed.add {
			n++
		} else {
			n--
		}
	}
	out := make([]posting, 0, max(n, 0))
	i := 0
	for _, ed := range edits {
		j := seek(lst, i, ed.e.slot)
		out = append(out, lst[i:j]...)
		i = j
		switch {
		case ed.add:
			out = append(out, ed.e)
		case i < len(lst) && lst[i].slot == ed.e.slot:
			i++
		}
	}
	return append(out, lst[i:]...)
}

// nextViewID and nextLineage hand out process-unique identities: one
// per RoutingView (what a RouteCache entry remembers instead of a
// pointer, so it keeps no view alive), and one per engine state that
// views can be diffed within (see Engine.lineage).
var nextViewID, nextLineage atomic.Uint64

// RoutingView is an immutable snapshot of the query-routing state.
// Build one with Engine.BuildRoutingView under the writer's lock,
// then share it freely: every method is safe for concurrent use and
// the view never changes once built.
type RoutingView struct {
	id uint64
	// lineage is the engine lineage the view was built in, 0 for a view
	// reconstructed from wire data. Two views of one lineage hold the
	// engine's own peer pointers, and the engine replaces peers
	// wholesale, so a slot changed between them exactly when its
	// pointers differ.
	lineage    uint64
	peers      []*peer.Peer
	postings   postingTable
	clusterOf  []cluster.CID
	sizes      []int
	nonEmpty   []cluster.CID
	live       int
	popVersion uint64
}

// BuildRoutingView snapshots the engine's routing state into an
// immutable view. Passing the previously published view of the same
// engine lets the build share structure with it: everything but the
// assignment when no join or leave happened since, and otherwise all
// posting lists and frozen peers outside the footprint of the slots
// that changed (found by comparing peer pointers, O(slots)). With nil,
// or a view from another engine or from before a Rebuild, the view is
// built from scratch. The engine must be fresh; the call builds the
// membership indexes if a Rebuild dropped them, and freezes every live
// peer it has not frozen for an earlier view.
func (e *Engine) BuildRoutingView(prev *RoutingView) *RoutingView {
	e.mustBeFresh("BuildRoutingView")
	e.ensureIndexes()
	v := &RoutingView{
		id:         nextViewID.Add(1),
		lineage:    e.lineage,
		clusterOf:  e.cfg.Assignment(),
		sizes:      make([]int, e.cfg.Cmax()),
		nonEmpty:   slices.Clone(e.nonEmptyClusters()),
		live:       e.cfg.Live(),
		popVersion: e.popVersion,
	}
	for _, c := range v.nonEmpty {
		v.sizes[c] = e.cfg.Size(c)
	}
	scratch := prev == nil || prev.lineage != e.lineage
	if !scratch && prev.popVersion == e.popVersion {
		v.peers, v.postings = prev.peers, prev.postings
		return v
	}
	v.peers = slices.Clone(e.peers)
	if scratch {
		for _, p := range v.peers {
			if p != nil {
				p.Freeze()
			}
		}
		v.postings = buildPostings(v.peers)
		return v
	}
	edits := e.editScratch[:0]
	for i, p := range v.peers {
		var old *peer.Peer
		if i < len(prev.peers) {
			old = prev.peers[i]
		}
		if p == old {
			continue
		}
		if p != nil {
			p.Freeze()
		}
		edits = appendSwap(edits, int32(i), old, p)
	}
	v.postings = prev.postings.patched(edits)
	e.editScratch = edits[:0]
	return v
}

// Live returns the live peer count at snapshot time.
func (v *RoutingView) Live() int { return v.live }

// PopVersion returns the engine population/content version the view
// was built at. Two views with equal PopVersion share peers and
// posting lists and differ at most in the cluster assignment — exactly
// the condition under which a pure-relocation delta (DiffFrom, applied
// by ApplyDelta as a ViewDelta of moves alone at that version) can
// carry one view to the other.
func (v *RoutingView) PopVersion() uint64 { return v.popVersion }

// Slots returns the peer-slot count at snapshot time.
func (v *RoutingView) Slots() int { return len(v.clusterOf) }

// NumClusters returns the non-empty cluster count at snapshot time.
func (v *RoutingView) NumClusters() int { return len(v.nonEmpty) }

// Route answers query q against the snapshot: the total result count
// over all live peers and, per non-empty cluster holding results, its
// hit. Hits are in ascending cluster order — the same order the
// engine's locked path reports. The hit slice is owned by sc and
// valid until its next Route, and the call allocates nothing at
// steady state.
//
// The answer is read from the posting table alone. A one-term query
// sums the popcounts of its list's masks into the per-cluster
// accumulator. A longer query walks its SHORTEST list (an O(|q|)
// argmin picks it): a peer can only contribute if some item holds
// every attribute of q, so every contributor appears in every list and
// the shortest visits them all. Each entry finds its slot in the other
// lists by galloping forward from where the previous entry stopped,
// and contributes the popcount of the AND of its masks. Cost is
// therefore O(shortest list × a gallop into each other list), whatever
// the peers hold; under skewed traffic, where popular queries lead
// with popular (long-posting) attributes, the argmin is the difference
// between scanning the hottest list and the coldest. No peer is read,
// except the peer of a wide entry (more items than a mask carries),
// which answers for its slot with ResultCountRO. Hit order comes from
// the non-empty cluster walk and per-cluster sums are
// order-independent, so the answer is byte-identical to any other
// scan. An empty query, or one with any attribute no live peer holds —
// including attribute IDs the view has never seen, e.g. from a router
// whose vocabulary ran ahead of this snapshot — yields (0, empty);
// unknown attributes can never panic the read path.
func (v *RoutingView) Route(q attr.Set, sc *RouteScratch) (total int, hits []RouteHit) {
	sc.hits = sc.hits[:0]
	ids := q.IDs()
	if len(ids) == 0 {
		return 0, sc.hits
	}
	if len(sc.results) < len(v.sizes) {
		sc.results = make([]int, len(v.sizes))
	}
	if len(ids) == 1 {
		total = v.countOne(q, v.postings.get(ids[0]), sc)
	} else {
		total = v.countMulti(q, sc)
	}
	if total == 0 {
		return 0, sc.hits
	}
	// Every touched cluster hosts a live peer, so iterating the
	// non-empty list both emits the hits in ascending order and
	// restores the accumulator's all-zero invariant.
	for _, c := range v.nonEmpty {
		if n := sc.results[c]; n > 0 {
			sc.hits = append(sc.hits, RouteHit{Cluster: c, Size: v.sizes[c], Results: n})
			sc.results[c] = 0
		}
	}
	return total, sc.hits
}

// countOne adds result(q,p) for every entry of lst, the list of q's one
// attribute, into sc by cluster and returns the sum.
func (v *RoutingView) countOne(q attr.Set, lst []posting, sc *RouteScratch) (total int) {
	for _, e := range lst {
		n := bits.OnesCount32(e.mask)
		if e.mask == 0 {
			n = v.peers[e.slot].ResultCountRO(q)
		}
		sc.results[v.clusterOf[e.slot]] += n
		total += n
	}
	return total
}

// countMulti is countOne for a query of two or more attributes: it
// gathers q's lists into sc, the shortest first, and intersects them.
func (v *RoutingView) countMulti(q attr.Set, sc *RouteScratch) (total int) {
	lists := sc.lists[:0]
	held := true
	for _, id := range q.IDs() {
		lst := v.postings.get(id)
		if len(lst) == 0 {
			held = false
			break
		}
		lists = append(lists, lst)
		if last := len(lists) - 1; len(lst) < len(lists[0]) {
			lists[0], lists[last] = lists[last], lists[0]
		}
	}
	if held {
		cur := sc.cur[:0]
		for range lists[1:] {
			cur = append(cur, 0)
		}
		total = v.intersect(q, lists[0], lists[1:], cur, sc)
		sc.cur = cur
	}
	clear(lists)
	sc.lists = lists[:0]
	return total
}

// intersect walks drive and, for each entry, seeks its slot in every
// list of others from that list's cursor in cur. Cursors only move
// forward because every list ascends by slot, and once one list is
// exhausted no later slot can hold all of q.
func (v *RoutingView) intersect(q attr.Set, drive []posting, others [][]posting, cur []int, sc *RouteScratch) (total int) {
	for _, e := range drive {
		n := 0
		if e.mask == 0 {
			n = v.peers[e.slot].ResultCountRO(q)
		} else {
			m := e.mask
			for k, lst := range others {
				i := seek(lst, cur[k], e.slot)
				if i == len(lst) {
					return total
				}
				cur[k] = i
				if lst[i].slot != e.slot {
					m = 0
				} else {
					m &= lst[i].mask
				}
				if m == 0 {
					break
				}
			}
			n = bits.OnesCount32(m)
		}
		if n > 0 {
			sc.results[v.clusterOf[e.slot]] += n
			total += n
		}
	}
	return total
}

// seek returns the index of the first entry of lst at or after lo whose
// slot is at least slot, len(lst) if there is none. It gallops: steps
// of 1, 2, 4, ... until one passes slot, then a binary search inside
// the last step, so a lookup costs O(log distance).
func seek(lst []posting, lo int, slot int32) int {
	if lo >= len(lst) || lst[lo].slot >= slot {
		return lo
	}
	// lst[lo].slot < slot throughout; hi is past it or at the end.
	hi, step := lo+1, 1
	for hi < len(lst) && lst[hi].slot < slot {
		lo = hi
		step <<= 1
		hi = lo + step
	}
	hi = min(hi, len(lst))
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if lst[mid].slot < slot {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// The remainder of this file is the view replication surface: the
// pieces a stateless query-router tier needs to mirror the
// authoritative engine's RoutingView over a wire protocol. A router
// bootstraps from a full export (Export -> encode -> decode ->
// FromViewData) and then follows the engine with deltas (DeltaFrom on
// the engine side, ApplyDelta on the router side): the slots whose peer
// changed, with the newcomers' content, plus the relocations. A full
// view is needed again only when no delta exists between the two views
// — a different engine, or a Rebuild in between.

// SlotMove is one relocation of a delta: the peer in Slot, unchanged
// itself, is now assigned to cluster To.
type SlotMove struct {
	Slot int32
	To   cluster.CID
}

// SlotChange is one population change of a delta: Slot now holds a
// different peer than in the base view, or none.
type SlotChange struct {
	Slot int32
	// Cluster is the new peer's cluster; cluster.None means the slot
	// was vacated.
	Cluster cluster.CID
	// Items is the new peer's content (nil for a vacated slot).
	Items []attr.Set
}

// ViewDelta carries a RoutingView at population version BasePop to a
// successor at PopVersion. With BasePop == PopVersion it holds
// relocations only. Changed is in ascending slot order; an entry for
// the slot one past the base view's last appends a slot.
type ViewDelta struct {
	BasePop    uint64
	PopVersion uint64
	Changed    []SlotChange
	Moves      []SlotMove
}

// DiffFrom extracts the pure-relocation delta that carries prev to v:
// one SlotMove per slot whose cluster assignment differs. It returns
// ok=false when no such delta exists — prev is nil, from a different
// population version, or (defensively) a different slot count — in
// which case the subscriber needs DeltaFrom or a full view instead. An
// empty, ok=true delta means the views route identically (e.g. a
// republish after a workload compaction).
func (v *RoutingView) DiffFrom(prev *RoutingView) (moves []SlotMove, ok bool) {
	if prev == nil || prev.popVersion != v.popVersion || len(prev.clusterOf) != len(v.clusterOf) {
		return nil, false
	}
	for i := range v.clusterOf {
		if v.clusterOf[i] != prev.clusterOf[i] {
			moves = append(moves, SlotMove{Slot: int32(i), To: v.clusterOf[i]})
		}
	}
	return moves, true
}

// DeltaFrom extracts the delta that carries prev to v: a SlotChange for
// every slot whose peer differs (including slots added since, vacated
// again or not) and a SlotMove for every other slot whose assignment
// differs. It returns ok=false when the two views were not built in the
// same engine lineage, the only case in which peers can be compared by
// identity; the subscriber then needs a full view. O(slots).
func (v *RoutingView) DeltaFrom(prev *RoutingView) (d ViewDelta, ok bool) {
	if prev == nil || v.lineage == 0 || prev.lineage != v.lineage || len(prev.peers) > len(v.peers) {
		return ViewDelta{}, false
	}
	d = ViewDelta{BasePop: prev.popVersion, PopVersion: v.popVersion}
	for i, p := range v.peers {
		added := i >= len(prev.peers)
		switch {
		case added || p != prev.peers[i]:
			ch := SlotChange{Slot: int32(i), Cluster: v.clusterOf[i]}
			if p != nil {
				ch.Items = p.Items()
			}
			d.Changed = append(d.Changed, ch)
		case v.clusterOf[i] != prev.clusterOf[i]:
			d.Moves = append(d.Moves, SlotMove{Slot: int32(i), To: v.clusterOf[i]})
		}
	}
	return d, true
}

// ApplyDelta derives the successor view reached from v by d, without an
// engine: a peer is built and frozen for every newcomer, the posting
// lists of the changed peers' attributes are patched on copied pages
// by the same patcher the engine's incremental build uses, and
// everything else is shared with v, so the call costs O(slots + the
// changes' footprint). The delta is validated — a base version other
// than v's, changes out of ascending slot order, a change that skips
// past the slot table's end or vacates a slot already empty, content
// naming a negative attribute, a move of an empty slot, a negative
// cluster — and an error leaves v untouched; the caller should then
// resynchronize with a full view.
func (v *RoutingView) ApplyDelta(d ViewDelta) (*RoutingView, error) {
	if d.BasePop != v.popVersion {
		return nil, fmt.Errorf("core: delta from population version %d against a view at %d", d.BasePop, v.popVersion)
	}
	next := &RoutingView{
		id:         nextViewID.Add(1),
		peers:      v.peers,
		postings:   v.postings,
		clusterOf:  slices.Clone(v.clusterOf),
		live:       v.live,
		popVersion: d.PopVersion,
	}
	if len(d.Changed) > 0 {
		next.peers = slices.Clone(v.peers)
		// A bound on the edits, so their slice is allocated once: an item
		// adds at most its attributes, a leaver drops all of its own.
		n := 0
		for _, ch := range d.Changed {
			for _, it := range ch.Items {
				n += it.Len()
			}
			if s := int(ch.Slot); s >= 0 && s < len(v.peers) && v.peers[s] != nil {
				n += len(v.peers[s].Attrs())
			}
		}
		edits := make([]postingEdit, 0, n)
		for i, ch := range d.Changed {
			slot := int(ch.Slot)
			if i > 0 && ch.Slot <= d.Changed[i-1].Slot {
				return nil, fmt.Errorf("core: change of slot %d after slot %d: changes out of slot order", ch.Slot, d.Changed[i-1].Slot)
			}
			appended := slot == len(next.peers)
			if appended {
				next.peers = append(next.peers, nil)
				next.clusterOf = append(next.clusterOf, cluster.None)
			}
			if slot < 0 || slot >= len(next.peers) {
				return nil, fmt.Errorf("core: change of slot %d skips past the %d known", ch.Slot, len(next.peers))
			}
			if ch.Cluster < cluster.None {
				return nil, fmt.Errorf("core: slot %d assigned to invalid cluster %d", ch.Slot, ch.Cluster)
			}
			old := next.peers[slot]
			if old == nil && ch.Cluster == cluster.None && !appended {
				return nil, fmt.Errorf("core: change vacates unoccupied slot %d", ch.Slot)
			}
			var p *peer.Peer
			if ch.Cluster != cluster.None {
				var err error
				if p, err = frozenPeer(slot, ch.Items); err != nil {
					return nil, err
				}
			}
			edits = appendSwap(edits, ch.Slot, old, p)
			if old != nil {
				next.live--
			}
			if p != nil {
				next.live++
			}
			next.peers[slot] = p
			next.clusterOf[slot] = ch.Cluster
		}
		next.postings = v.postings.patched(edits)
	}
	for _, m := range d.Moves {
		if m.Slot < 0 || int(m.Slot) >= len(next.clusterOf) {
			return nil, fmt.Errorf("core: move slot %d out of range [0,%d)", m.Slot, len(next.clusterOf))
		}
		if next.clusterOf[m.Slot] == cluster.None {
			return nil, fmt.Errorf("core: move of unoccupied slot %d", m.Slot)
		}
		if m.To < 0 {
			return nil, fmt.Errorf("core: move slot %d to invalid cluster %d", m.Slot, m.To)
		}
		next.clusterOf[m.Slot] = m.To
	}
	next.rebuildSizes()
	return next, nil
}

// rebuildSizes recomputes sizes and nonEmpty from clusterOf. The
// sizes slice is dimensioned to the highest occupied cluster ID + 1;
// every clusterOf entry is below that bound (Route's accumulator
// indexes by it), and nonEmpty comes out in ascending order (Route's
// hit order contract).
func (v *RoutingView) rebuildSizes() {
	maxC := -1
	for _, c := range v.clusterOf {
		if int(c) > maxC {
			maxC = int(c)
		}
	}
	v.sizes = make([]int, maxC+1)
	nonEmpty := 0
	for _, c := range v.clusterOf {
		if c != cluster.None {
			if v.sizes[c] == 0 {
				nonEmpty++
			}
			v.sizes[c]++
		}
	}
	v.nonEmpty = make([]cluster.CID, 0, nonEmpty)
	for c, n := range v.sizes {
		if n > 0 {
			v.nonEmpty = append(v.nonEmpty, cluster.CID(c))
		}
	}
}

// ViewData is the neutral, exported form of a RoutingView — the
// payload of a full-view wire record: the content and the assignment,
// from which FromViewData derives everything else. Slots are parallel
// across Items and ClusterOf; a slot is occupied iff its ClusterOf
// entry is not cluster.None (an occupied slot may legitimately share
// zero items).
type ViewData struct {
	// PopVersion is the population/content version of the source view.
	PopVersion uint64
	// Items holds each slot's shared content.
	Items [][]attr.Set
	// ClusterOf is the slot -> cluster assignment (None = unoccupied).
	ClusterOf []cluster.CID
}

// Export renders v as a ViewData. Items are copied per slot; the
// assignment aliases the view's immutable state, so the result must be
// treated as read-only.
func (v *RoutingView) Export() ViewData {
	items := make([][]attr.Set, len(v.peers))
	for i, p := range v.peers {
		if p != nil {
			items[i] = p.Items()
		}
	}
	return ViewData{PopVersion: v.popVersion, Items: items, ClusterOf: v.clusterOf}
}

// frozenPeer builds the frozen peer a replica keeps for slot. Content
// naming a negative attribute ID is rejected: the posting table is
// indexed by attribute ID.
func frozenPeer(slot int, items []attr.Set) (*peer.Peer, error) {
	p := peer.New(slot)
	p.SetItems(items)
	p.Freeze()
	if as := p.Attrs(); len(as) > 0 && as[0] < 0 {
		return nil, fmt.Errorf("core: slot %d holds negative attribute %d", slot, as[0])
	}
	return p, nil
}

// FromViewData reconstructs a servable RoutingView from an exported
// (typically wire-decoded) ViewData: fresh peers are built and frozen
// per occupied slot, sizes and the non-empty list are derived from
// the assignment, the posting table is derived from the peers by the
// same builder as an engine's first view, and the assignment is
// adopted (the caller must not mutate it afterwards). The data is
// validated — mismatched slot counts, negative cluster or attribute IDs
// are rejected — so a decoder can hand over untrusted input without
// risking a panic on the router's read path. The posting table is sized by the largest
// attribute ID the content holds; a decoder should bound that by its
// vocabulary (viewwire does).
func FromViewData(d ViewData) (*RoutingView, error) {
	if len(d.Items) != len(d.ClusterOf) {
		return nil, fmt.Errorf("core: view data has %d item slots but %d assignment slots", len(d.Items), len(d.ClusterOf))
	}
	v := &RoutingView{
		id:         nextViewID.Add(1),
		clusterOf:  d.ClusterOf,
		popVersion: d.PopVersion,
		peers:      make([]*peer.Peer, len(d.Items)),
	}
	for i, c := range d.ClusterOf {
		if c == cluster.None {
			continue
		}
		if c < 0 {
			return nil, fmt.Errorf("core: slot %d assigned to invalid cluster %d", i, c)
		}
		p, err := frozenPeer(i, d.Items[i])
		if err != nil {
			return nil, err
		}
		v.peers[i] = p
		v.live++
	}
	v.postings = buildPostings(v.peers)
	v.rebuildSizes()
	return v, nil
}
