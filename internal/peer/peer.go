// Package peer models a node of the peer-to-peer system: its shared
// data items (attribute sets) and the machinery to answer queries over
// them. result(q,p) — the number of items of p matched by q — is the
// primitive everything in the paper's cost model is built from.
//
// A peer answers from an inverted index over its items, built lazily on
// the first query after a content change. The index is three flat
// arrays: the distinct attributes ascending, the item indices of every
// attribute back to back, and an open-addressed table, sized once, of
// (attribute, offset, count) slots that finds an attribute's run of
// item indices in one probe. All three are filled from one sort of
// packed (attribute, item) pairs: a build allocates five slices
// whatever the peer holds and grows or rehashes nothing.
package peer

import (
	"fmt"
	"slices"

	"repro/internal/attr"
)

// Peer is one autonomous node. Content may be replaced at any time
// (the update experiments of §4.2 do exactly that); query-answering
// structures are rebuilt lazily. A Peer is not safe for concurrent
// use, and ResultCount counts as a write while the index is unbuilt (it
// builds it): goroutines that share a peer Freeze it first and call
// only ResultCountRO.
type Peer struct {
	id int
	// items is never written in place: a content change installs a new
	// list, or appends past the length every clone was cut to, so clones
	// share it.
	items []attr.Set

	// The inverted index, nil until built (idx is non-nil once it is,
	// even for a peer without items). attrs lists the distinct attributes
	// of the items in ascending order. idx holds, one attribute's run
	// after another in that order, the indices of the items containing
	// the attribute, ascending within a run. slots is the lookup table
	// over the runs (see postingSlot), two slots per attribute. None of
	// the three is modified once built, so clones share them.
	attrs   []attr.ID
	idx     []int32
	slots   []postingSlot
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

// SharedItems returns the peer's item list itself, not a copy. It must
// not be modified and is valid until the next content change; readers
// of a peer nobody mutates may share it.
func (p *Peer) SharedItems() []attr.Set { return p.items }

// Version increments whenever content changes; cost engines use it to
// detect stale snapshots.
func (p *Peer) Version() int { return p.version }

// Clone returns a peer with the same ID, content and version whose
// content can be changed independently of p's. It copies nothing but
// the Peer itself: the item list and the built index (attrs, idx and
// slots) are shared, which is safe because neither is written in place.
// A content change on either side installs that side's own item list
// and drops its reference to the index, which it rebuilds lazily; an
// AddItem on the clone moves the list, cut to its length here, to an
// allocation of its own. Cloning only reads p, so any number of
// goroutines may clone one peer nobody is mutating.
func (p *Peer) Clone() *Peer {
	c := new(Peer)
	p.cloneInto(c)
	return c
}

// CloneAll returns Clones of peers in one allocation, nil where peers
// holds nil.
func CloneAll(peers []*Peer) []*Peer {
	live := 0
	for _, p := range peers {
		if p != nil {
			live++
		}
	}
	arena := make([]Peer, live)
	out := make([]*Peer, len(peers))
	for i, p := range peers {
		if p != nil {
			p.cloneInto(&arena[0])
			out[i], arena = &arena[0], arena[1:]
		}
	}
	return out
}

func (p *Peer) cloneInto(c *Peer) {
	*c = *p
	c.items = p.items[:len(p.items):len(p.items)]
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
// update experiments) in a copy of the item list, which a clone may
// share. It panics on out-of-range i.
func (p *Peer) ReplaceItem(i int, item attr.Set) {
	if i < 0 || i >= len(p.items) {
		panic(fmt.Sprintf("peer %d: ReplaceItem index %d out of range [0,%d)", p.id, i, len(p.items)))
	}
	p.items = slices.Clone(p.items)
	p.items[i] = item
	p.invalidate()
}

func (p *Peer) invalidate() {
	p.attrs, p.idx, p.slots = nil, nil, nil
	p.version++
}

// postingSlot is one slot of a peer's lookup table: attribute a's run
// of item indices is idx[off:off+n]. A slot with n == 0 is empty; every
// attribute the peer holds has at least one item.
type postingSlot struct {
	a      attr.ID
	off, n int32
}

// attrKeyFlip maps an attribute ID onto the high word of a pair key so
// that unsigned key order is signed ID order.
const attrKeyFlip = 1 << 31

// buildPostings builds the inverted index: every (attribute, item) pair
// packed into one word and sorted, which groups the pairs by ascending
// attribute with the item indices ascending inside a group. The groups
// are copied out as attrs and idx and each one's place is recorded in a
// table of twice their number of slots, which keeps linear probing to a
// slot or two.
func (p *Peer) buildPostings() {
	n := 0
	for _, it := range p.items {
		n += it.Len()
	}
	// An item's attributes are ascending, so the pairs are laid down as
	// one sorted run per item and sorted by merging the runs.
	both := make([]uint64, 2*n)
	pairs := both[:0:n]
	ends := make([]int, 0, len(p.items))
	for i, it := range p.items {
		for _, a := range it.IDs() {
			pairs = append(pairs, uint64(uint32(a)^attrKeyFlip)<<32|uint64(uint32(i)))
		}
		if !it.IsEmpty() {
			ends = append(ends, len(pairs))
		}
	}
	pairs = mergeRuns(pairs, both[n:], ends)
	distinct := 0
	for i, k := range pairs {
		if i == 0 || k>>32 != pairs[i-1]>>32 {
			distinct++
		}
	}
	p.attrs = make([]attr.ID, 0, distinct)
	p.idx = make([]int32, n)
	p.slots = make([]postingSlot, 2*distinct)
	start := 0
	for i, k := range pairs {
		p.idx[i] = int32(uint32(k))
		if i+1 < n && pairs[i+1]>>32 == k>>32 {
			continue
		}
		// Pair i is the last of its attribute's run, which began at start.
		a := attr.ID(uint32(k>>32) ^ attrKeyFlip)
		p.attrs = append(p.attrs, a)
		h := p.slotOf(a)
		for p.slots[h].n != 0 {
			if h++; h == len(p.slots) {
				h = 0
			}
		}
		p.slots[h] = postingSlot{a: a, off: int32(start), n: int32(i + 1 - start)}
		start = i + 1
	}
}

// mergeRuns sorts src, which is a sequence of ascending runs the i-th
// of which ends at ends[i], by merging neighbouring runs pass after pass
// between src and the equally long dst. It returns whichever of the two
// holds the sorted result and uses ends as scratch.
func mergeRuns(src, dst []uint64, ends []int) []uint64 {
	for len(ends) > 1 {
		lo, merged := 0, 0
		for i := 0; i < len(ends); i += 2 {
			mid, hi := ends[i], ends[min(i+1, len(ends)-1)]
			a, b, k := lo, mid, lo
			for a < mid && b < hi {
				if src[a] <= src[b] {
					dst[k] = src[a]
					a++
				} else {
					dst[k] = src[b]
					b++
				}
				k++
			}
			k += copy(dst[k:], src[a:mid])
			copy(dst[k:], src[b:hi])
			ends[merged] = hi
			merged++
			lo = hi
		}
		ends = ends[:merged]
		src, dst = dst, src
	}
	return src
}

// slotOf returns the slot a probe for attribute a starts at: the top
// bits of a's Fibonacci hash (attribute IDs are small and dense; the
// multiplier is 2^32/phi) scaled onto the table.
func (p *Peer) slotOf(a attr.ID) int {
	return int(uint64(uint32(a)*2654435769) * uint64(len(p.slots)) >> 32)
}

// posting returns the indices of the items containing a, ascending; nil
// for an attribute the peer does not hold. The index must be built. One
// probe of the table usually answers. (A binary search over attrs read a
// different cache line per step, each waiting for the one before, and
// made a routed query twice as slow as it was with a hash map per peer.)
func (p *Peer) posting(a attr.ID) []int32 {
	if len(p.slots) == 0 {
		return nil
	}
	for h := p.slotOf(a); ; {
		s := &p.slots[h]
		if s.n == 0 {
			return nil
		}
		if s.a == a {
			return p.idx[s.off : s.off+s.n]
		}
		if h++; h == len(p.slots) {
			h = 0
		}
	}
}

// ResultCount returns result(q,p): the number of the peer's items whose
// attributes are a superset of q. The empty query matches every item.
// It builds the index first if a content change dropped it.
func (p *Peer) ResultCount(q attr.Set) int {
	p.Freeze()
	return p.ResultCountRO(q)
}

// Freeze pre-builds the peer's query-answering index so that
// subsequent ResultCountRO calls are pure reads. Callers that share a
// peer with concurrent readers (the routing read views) Freeze it
// under their write lock once; any content mutation re-arms the lazy
// build and requires a fresh Freeze before the next concurrent read.
func (p *Peer) Freeze() {
	if p.idx == nil {
		p.buildPostings()
	}
}

// ResultCountRO is ResultCount for concurrent readers: it never
// mutates the peer (no lazy index build), so any number of goroutines
// may call it on a frozen peer, beside a ResultCount, which on a frozen
// peer reads too. The peer must have been Frozen since its last content
// mutation.
func (p *Peer) ResultCountRO(q attr.Set) int {
	if q.IsEmpty() {
		return len(p.items)
	}
	if p.idx == nil {
		panic(fmt.Sprintf("peer %d: ResultCountRO before Freeze", p.id))
	}
	if q.Len() == 1 {
		return len(p.posting(q.IDs()[0]))
	}
	return p.countMulti(q)
}

// countMulti intersects posting lists, starting from the rarest term.
// It is read-only and allocation-free.
func (p *Peer) countMulti(q attr.Set) int {
	// Find the shortest posting list to drive the intersection.
	var best []int32
	for i, a := range q.IDs() {
		lst := p.posting(a)
		if len(lst) == 0 {
			return 0
		}
		if i == 0 || len(lst) < len(best) {
			best = lst
		}
	}
	n := 0
	for _, idx := range best {
		if q.SubsetOf(p.items[idx]) {
			n++
		}
	}
	return n
}

// Attrs returns the distinct attributes appearing in the peer's items
// in ascending order. The slice is shared and must not be modified; it
// is part of the inverted index, so on a frozen peer this is a pure
// read.
func (p *Peer) Attrs() []attr.ID {
	if p.idx == nil {
		p.buildPostings()
	}
	return p.attrs
}

// ItemsWith returns the indices of the items containing a, ascending;
// nil for an attribute the peer does not hold. The slice is part of the
// inverted index, shared and not to be modified; on a frozen peer this
// is a pure read.
func (p *Peer) ItemsWith(a attr.ID) []int32 {
	if p.idx == nil {
		p.buildPostings()
	}
	return p.posting(a)
}

// AttrFrequencies returns, for every attribute appearing in the peer's
// items, the number of items containing it. The baseline re-clustering
// algorithm uses this as the peer's term vector.
func (p *Peer) AttrFrequencies() map[attr.ID]int {
	if p.idx == nil {
		p.buildPostings()
	}
	out := make(map[attr.ID]int, len(p.attrs))
	for _, s := range p.slots {
		if s.n != 0 {
			out[s.a] = int(s.n)
		}
	}
	return out
}
