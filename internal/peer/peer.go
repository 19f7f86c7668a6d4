// Package peer models a node of the peer-to-peer system: its shared
// data items (attribute sets) and the machinery to answer queries over
// them. result(q,p) — the number of items of p matched by q — is the
// primitive everything in the paper's cost model is built from.
package peer

import (
	"fmt"
	"slices"

	"repro/internal/attr"
)

// Peer is one autonomous node. Content may be replaced at any time
// (the update experiments of §4.2 do exactly that); query-answering
// structures are rebuilt lazily. A Peer is not safe for concurrent
// mutation; the sim package serializes access per actor.
type Peer struct {
	id    int
	items []attr.Set

	// postings maps an attribute to the indices of items containing it.
	postings map[attr.ID][]int32
	// attrs lists the distinct attributes of the items in ascending
	// order; built together with postings.
	attrs []attr.ID
	// cache memoizes ResultCount by query key; reset on content change.
	cache   map[string]int
	version int
}

// New creates a peer with the given ID and no content.
func New(id int) *Peer {
	return &Peer{id: id}
}

// ID returns the peer's identifier.
func (p *Peer) ID() int { return p.id }

// SetID rebinds the peer's identifier. The membership engine assigns
// joiners their slot ID this way (the slot is not known before the
// join is admitted); nothing else should call it.
func (p *Peer) SetID(id int) { p.id = id }

// NumItems returns how many data items the peer shares.
func (p *Peer) NumItems() int { return len(p.items) }

// Items returns a copy of the peer's item list.
func (p *Peer) Items() []attr.Set {
	return append([]attr.Set(nil), p.items...)
}

// Version increments whenever content changes; cost engines use it to
// detect stale snapshots.
func (p *Peer) Version() int { return p.version }

// Clone returns a peer with the same ID, content and version whose
// content can be changed independently of p's. The item list is copied;
// the built index (postings and attrs) is shared, which is safe because
// it is never modified in place: a content change on either side only
// drops that side's reference and rebuilds lazily. The ResultCount memo
// is written on reads, so it is not shared. Cloning only reads p, so
// any number of goroutines may clone one peer nobody is mutating.
func (p *Peer) Clone() *Peer {
	return &Peer{
		id:       p.id,
		items:    p.Items(),
		postings: p.postings,
		attrs:    p.attrs,
		version:  p.version,
	}
}

// SetItems replaces the peer's content.
func (p *Peer) SetItems(items []attr.Set) {
	p.items = append(p.items[:0:0], items...)
	p.invalidate()
}

// AddItem appends one data item.
func (p *Peer) AddItem(item attr.Set) {
	p.items = append(p.items, item)
	p.invalidate()
}

// ReplaceItem swaps the item at index i (used by the partial content
// update experiments). It panics on out-of-range i.
func (p *Peer) ReplaceItem(i int, item attr.Set) {
	if i < 0 || i >= len(p.items) {
		panic(fmt.Sprintf("peer %d: ReplaceItem index %d out of range [0,%d)", p.id, i, len(p.items)))
	}
	p.items[i] = item
	p.invalidate()
}

func (p *Peer) invalidate() {
	p.postings = nil
	p.attrs = nil
	p.cache = nil
	p.version++
}

func (p *Peer) buildPostings() {
	p.postings = make(map[attr.ID][]int32)
	for i, it := range p.items {
		for _, a := range it.IDs() {
			lst, seen := p.postings[a]
			if !seen {
				p.attrs = append(p.attrs, a)
			}
			p.postings[a] = append(lst, int32(i))
		}
	}
	slices.Sort(p.attrs)
}

// ResultCount returns result(q,p): the number of the peer's items whose
// attributes are a superset of q. The empty query matches every item.
func (p *Peer) ResultCount(q attr.Set) int {
	if q.IsEmpty() {
		return len(p.items)
	}
	if p.postings == nil {
		p.buildPostings()
	}
	if q.Len() == 1 {
		return len(p.postings[q.IDs()[0]])
	}
	key := q.Key()
	if p.cache != nil {
		if n, ok := p.cache[key]; ok {
			return n
		}
	}
	n := p.countMulti(q)
	if p.cache == nil {
		p.cache = make(map[string]int)
	}
	p.cache[key] = n
	return n
}

// Freeze pre-builds the peer's query-answering index so that
// subsequent ResultCountRO calls are pure reads. Callers that share a
// peer with concurrent readers (the routing read views) Freeze it
// under their write lock once; any content mutation re-arms the lazy
// build and requires a fresh Freeze before the next concurrent read.
func (p *Peer) Freeze() {
	if p.postings == nil {
		p.buildPostings()
	}
}

// ResultCountRO is ResultCount for concurrent readers: it never
// mutates the peer — no lazy index build and no memo cache — so any
// number of goroutines may call it on a frozen peer while a separate
// writer runs ResultCount (which only touches the cache). The peer
// must have been Frozen since its last content mutation.
func (p *Peer) ResultCountRO(q attr.Set) int {
	if q.IsEmpty() {
		return len(p.items)
	}
	if p.postings == nil {
		panic(fmt.Sprintf("peer %d: ResultCountRO before Freeze", p.id))
	}
	if q.Len() == 1 {
		return len(p.postings[q.IDs()[0]])
	}
	return p.countMulti(q)
}

// countMulti intersects posting lists, starting from the rarest term.
// It is read-only and allocation-free.
func (p *Peer) countMulti(q attr.Set) int {
	ids := q.IDs()
	// Find the shortest posting list to drive the intersection.
	best := -1
	for i, a := range ids {
		l := len(p.postings[a])
		if l == 0 {
			return 0
		}
		if best < 0 || l < len(p.postings[ids[best]]) {
			best = i
		}
	}
	n := 0
	for _, idx := range p.postings[ids[best]] {
		if q.SubsetOf(p.items[idx]) {
			n++
		}
	}
	return n
}

// Attrs returns the distinct attributes appearing in the peer's items
// in ascending order. The slice is shared and must not be modified; it
// is built together with the postings, so on a frozen peer this is a
// pure read.
func (p *Peer) Attrs() []attr.ID {
	if p.postings == nil {
		p.buildPostings()
	}
	return p.attrs
}

// AttrFrequencies returns, for every attribute appearing in the peer's
// items, the number of items containing it. The baseline re-clustering
// algorithm uses this as the peer's term vector.
func (p *Peer) AttrFrequencies() map[attr.ID]int {
	if p.postings == nil {
		p.buildPostings()
	}
	out := make(map[attr.ID]int, len(p.postings))
	for a, lst := range p.postings {
		out[a] = len(lst)
	}
	return out
}
