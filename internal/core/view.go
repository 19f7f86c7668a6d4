package core

import (
	"fmt"
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
// A view carries copies of exactly the state Route touches: the
// content posting lists (attribute -> live peers holding it), the
// peer slice (pointers to peers frozen for read-only matching — see
// peer.Freeze/ResultCountRO), the slot -> cluster assignment, and the
// per-cluster sizes. The copies make the view immune to in-place
// index mutation by later joins/leaves; the peers themselves are
// shared because their content is immutable while views exist (the
// serving daemon never mutates a live peer's items — churn replaces
// peers wholesale).
//
// Successive views of one engine share structure. Relocations (reform
// rounds) and workload compactions change neither the population nor
// any posting list, so a republish after them reuses the previous
// view's posting table and peer slice outright. A join or leave changes
// the posting lists of one peer's attributes only: the posting table is
// a paged, copy-on-write array indexed by attribute ID, and the build
// re-clones just the touched lists (and the pages holding them) while
// every other page stays shared with the predecessor. Either way a
// republish costs O(slots + the change's footprint), never O(total
// postings); only the first view of an engine is built from scratch.

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
}

// Posting lists live in pages of postingPageLen consecutive attribute
// IDs. A page is small enough that copying one per touched attribute
// keeps a join's republish in the kilobytes, and large enough that the
// page directory of a 32k-term vocabulary is a few hundred pointers.
const (
	postingPageBits = 6
	postingPageLen  = 1 << postingPageBits
)

type postingPage [postingPageLen][]int32

// postingTable maps an attribute ID to the live slots whose content
// holds it. It is immutable once its view is published; successor
// views share its pages (see postingPatch).
type postingTable struct {
	pages []*postingPage
}

// get returns a's posting list, nil for any ID no page covers
// (negative IDs convert to indexes far past the directory).
func (t postingTable) get(a attr.ID) []int32 {
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
func (b *postingPatch) set(a attr.ID, lst []int32) {
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
		var pb postingPatch
		for _, p := range v.peers {
			if p != nil {
				p.Freeze()
			}
		}
		// One arena holds every copied list, each clipped to its length so
		// a successor that extends one copies it out.
		total := 0
		for _, lst := range e.peersByAttr {
			total += len(lst)
		}
		arena := make([]int32, 0, total)
		for a, lst := range e.peersByAttr {
			if len(lst) > 0 {
				at := len(arena)
				arena = append(arena, lst...)
				pb.set(attr.ID(a), arena[at:len(arena):len(arena)])
			}
		}
		v.postings = pb.postingTable
		return v
	}
	pb := prev.postings.patch()
	touched := e.attrScratch[:0]
	for i, p := range v.peers {
		var old *peer.Peer
		if i < len(prev.peers) {
			old = prev.peers[i]
		}
		if p == old {
			continue
		}
		if old != nil {
			touched = append(touched, old.Attrs()...)
		}
		if p != nil {
			p.Freeze()
			touched = append(touched, p.Attrs()...)
		}
	}
	slices.Sort(touched)
	touched = slices.Compact(touched)
	for _, a := range touched {
		pb.set(a, slices.Clone(e.peersByAttr[a]))
	}
	e.attrScratch = touched
	v.postings = pb.postingTable
	return v
}

// Live returns the live peer count at snapshot time.
func (v *RoutingView) Live() int { return v.live }

// PopVersion returns the engine population/content version the view
// was built at. Two views with equal PopVersion share peers and
// posting lists and differ at most in the cluster assignment — exactly
// the condition under which a pure-relocation delta (DiffFrom /
// ApplyMoves) can carry one view to the other.
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
// The scan is driven from the query's rarest attribute: a peer can
// only contribute results if some item holds every attribute of q, so
// every candidate appears in every one of q's posting lists and
// scanning the shortest visits them all. Cost is therefore bounded by
// the SHORTEST posting list among q's attributes (an O(|q|) argmin
// picks it), not the first — under skewed traffic, where popular
// queries tend to lead with popular (long-posting) attributes, that
// is the difference between scanning the hottest list and the
// coldest. The answer is byte-identical to a scan of any other of
// q's posting lists (hit order comes from the non-empty cluster walk,
// and per-cluster sums are order-independent). An empty query, or one
// with any attribute no live peer holds — including attribute IDs the
// view has never seen, e.g. from a router whose vocabulary ran ahead
// of this snapshot — yields (0, empty); unknown attributes can never
// panic the read path.
func (v *RoutingView) Route(q attr.Set, sc *RouteScratch) (total int, hits []RouteHit) {
	sc.hits = sc.hits[:0]
	ids := q.IDs()
	if len(ids) == 0 {
		return 0, sc.hits
	}
	// An empty list means "no live peer holds this attribute" — and any
	// empty list, including the running minimum, ends the query early.
	scan := v.postings.get(ids[0])
	for _, id := range ids[1:] {
		if len(scan) == 0 {
			break
		}
		if lst := v.postings.get(id); len(lst) < len(scan) {
			scan = lst
		}
	}
	if len(scan) == 0 {
		return 0, sc.hits
	}
	if len(sc.results) < len(v.sizes) {
		sc.results = make([]int, len(v.sizes))
	}
	for _, pid := range scan {
		if res := v.peers[pid].ResultCountRO(q); res > 0 {
			sc.results[v.clusterOf[pid]] += res
			total += res
		}
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

// ApplyMoves derives the successor view reached from v by relocations
// alone: ApplyDelta at an unchanged population version.
func (v *RoutingView) ApplyMoves(moves []SlotMove) (*RoutingView, error) {
	return v.ApplyDelta(ViewDelta{BasePop: v.popVersion, PopVersion: v.popVersion, Moves: moves})
}

// ApplyDelta derives the successor view reached from v by d, without an
// engine: a peer is built and frozen for every newcomer, the posting
// lists of the changed peers' attributes are re-derived on copied
// pages, and everything else is shared with v, so the call costs
// O(slots + the changes' footprint). The delta is validated — a base
// version other than v's, a change that skips past the slot table's
// end or vacates a slot already empty, a move of an empty slot, a
// negative cluster — and an error leaves v untouched; the caller
// should then resynchronize with a full view.
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
		pb := v.postings.patch()
		for _, ch := range d.Changed {
			slot := int(ch.Slot)
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
			if old != nil {
				for _, a := range old.Attrs() {
					lst := pb.get(a)
					pb.set(a, slices.DeleteFunc(slices.Clone(lst), func(s int32) bool { return s == ch.Slot }))
				}
				next.peers[slot] = nil
				next.live--
			}
			if ch.Cluster != cluster.None {
				p := peer.New(slot)
				p.SetItems(ch.Items)
				p.Freeze()
				for _, a := range p.Attrs() {
					lst := pb.get(a)
					pb.set(a, append(slices.Clip(lst), ch.Slot))
				}
				next.peers[slot] = p
				next.live++
			}
			next.clusterOf[slot] = ch.Cluster
		}
		next.postings = pb.postingTable
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
	for _, c := range v.clusterOf {
		if c != cluster.None {
			v.sizes[c]++
		}
	}
	v.nonEmpty = v.nonEmpty[:0]
	for c, n := range v.sizes {
		if n > 0 {
			v.nonEmpty = append(v.nonEmpty, cluster.CID(c))
		}
	}
}

// ViewData is the neutral, exported form of a RoutingView — the
// payload of a full-view wire record. Slots are parallel across Items
// and ClusterOf; a slot is occupied iff its ClusterOf entry is not
// cluster.None (an occupied slot may legitimately share zero items).
type ViewData struct {
	// PopVersion is the population/content version of the source view.
	PopVersion uint64
	// Items holds each slot's shared content.
	Items [][]attr.Set
	// ClusterOf is the slot -> cluster assignment (None = unoccupied).
	ClusterOf []cluster.CID
	// Postings lists, indexed by attribute ID, the live slots whose
	// content contains the attribute; empty (or past the end) for an
	// attribute no live peer holds.
	Postings [][]int32
}

// Export renders v as a ViewData. Items are copied per slot and the
// posting lists are laid side by side out of the view's pages; the
// assignment and the lists themselves alias the view's immutable
// state, so the result must be treated as read-only.
func (v *RoutingView) Export() ViewData {
	items := make([][]attr.Set, len(v.peers))
	for i, p := range v.peers {
		if p != nil {
			items[i] = p.Items()
		}
	}
	postings := make([][]int32, len(v.postings.pages)<<postingPageBits)
	for pi, pg := range v.postings.pages {
		if pg != nil {
			copy(postings[pi<<postingPageBits:], pg[:])
		}
	}
	return ViewData{
		PopVersion: v.popVersion,
		Items:      items,
		ClusterOf:  v.clusterOf,
		Postings:   postings,
	}
}

// FromViewData reconstructs a servable RoutingView from an exported
// (typically wire-decoded) ViewData: fresh peers are built and frozen
// per occupied slot, sizes and the non-empty list are derived from
// the assignment, and the assignment and posting lists are adopted
// (the caller must not mutate them afterwards). The data is validated
// — mismatched slot counts, postings naming unoccupied or
// out-of-range slots, and negative cluster IDs are rejected — so a
// decoder can hand over untrusted input without
// risking a panic on the router's read path. The posting table is
// sized by the largest attribute ID with a posting list; a decoder
// should bound that by its vocabulary (viewwire does).
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
		p := peer.New(i)
		p.SetItems(d.Items[i])
		p.Freeze()
		v.peers[i] = p
		v.live++
	}
	var pb postingPatch
	for a, lst := range d.Postings {
		if len(lst) == 0 {
			continue
		}
		for _, pid := range lst {
			if pid < 0 || int(pid) >= len(v.peers) || v.peers[pid] == nil {
				return nil, fmt.Errorf("core: posting list of attr %d names unoccupied slot %d", a, pid)
			}
		}
		pb.set(attr.ID(a), lst)
	}
	v.postings = pb.postingTable
	v.rebuildSizes()
	return v, nil
}
