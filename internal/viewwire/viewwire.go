// Package viewwire is the versioned wire encoding of the routing-view
// replication protocol: the byte records the authoritative serving
// daemon streams over GET /v1/view/watch and a stateless router
// replica decodes to maintain its local core.RoutingView.
//
// Two record kinds share a common header:
//
//	magic "RV" | format version (3) | kind | seq uvarint | ...
//
// A FULL record carries the content a replica needs to serve queries
// from scratch: the term table (attribute names in vocabulary order,
// so the replica can resolve query strings to the engine's attribute
// IDs), every slot's content items and the slot -> cluster assignment.
// Everything else a view holds — its posting lists, the per-cluster
// sizes — the replica derives from those, so the record does not carry
// it. A DELTA record carries what changed between two views of one
// publisher: the base and the new population version, the names
// appended to the vocabulary, each slot whose peer differs (with the
// newcomer's cluster and content, or the mark of a vacated slot) and
// each relocation of a peer that stayed. It is valid against exactly
// the base population version it names, so deltas chain: a replica at
// version p applies only a delta whose base is p and then stands at the
// delta's new version. A maintenance period's republish is a few bytes
// per granted move and a join is the newcomer's content, instead of a
// full snapshot; full records remain for first contact and for a
// replica the publisher can no longer diff against. seq is the
// publisher's monotone view sequence number and totally orders records
// from one publisher.
//
// All integers are unsigned varints. Sorted ID lists (item attribute
// sets) are gap-encoded; the decoder is strict — unknown versions
// (versions 1 and 2 included), non-positive gaps, counts that cannot
// fit the remaining input, attribute IDs outside a full record's term
// table, occupancy that content and assignment disagree on, trailing
// bytes and truncations are all errors, never panics or unbounded
// allocations — so a replica can feed it untrusted bytes (pinned by
// FuzzViewWire).
package viewwire

import (
	"encoding/binary"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/wire"
)

// Kind discriminates the record types of the protocol.
type Kind byte

const (
	// KindFull is a complete view snapshot.
	KindFull Kind = 1
	// KindDelta is the diff from the view at one population version to
	// a later view of the same publisher.
	KindDelta Kind = 2
)

// FormatVersion is the wire format this package speaks. Bump on any
// incompatible layout change; decoders reject other versions. Version
// 2 gave delta records their population section; version 3 took the
// size table and the posting lists out of full records.
const FormatVersion = 3

// magic opens every record.
const magic = "RV"

// Record is one decoded protocol record.
type Record struct {
	Kind Kind
	// Seq is the publisher's monotone view sequence number.
	Seq uint64
	// PopVersion is the population version a replica stands at after
	// applying the record (for a full record it equals View.PopVersion).
	PopVersion uint64

	// Terms and View are set for KindFull: the attribute names in
	// vocabulary order and the view's content and assignment.
	Terms []string
	View  core.ViewData

	// The rest is set for KindDelta. BasePop is the population version
	// the delta applies to, Names the attribute names interned since
	// that view (taking the next IDs in order), Changed the slots whose
	// peer differs and Moves the relocations. All three may be empty: a
	// republish that changed nothing a replica sees, e.g. after a
	// workload compaction.
	BasePop uint64
	Names   []string
	Changed []core.SlotChange
	Moves   []core.SlotMove
}

// Delta returns a delta record's payload in the form
// core.RoutingView.ApplyDelta takes.
func (r *Record) Delta() core.ViewDelta {
	return core.ViewDelta{BasePop: r.BasePop, PopVersion: r.PopVersion, Changed: r.Changed, Moves: r.Moves}
}

func appendHeader(dst []byte, kind Kind, seq uint64) []byte {
	dst = wire.AppendHeader(dst, magic, FormatVersion, byte(kind))
	return binary.AppendUvarint(dst, seq)
}

// AppendFull encodes a full-view record onto dst and returns the
// extended slice. terms must be the attribute names in vocabulary
// order covering every attribute ID appearing in d.
//
//	pop | names | slot count | each slot's content | each slot's cluster+1
func AppendFull(dst []byte, seq uint64, terms []string, d core.ViewData) []byte {
	dst = appendHeader(dst, KindFull, seq)
	dst = binary.AppendUvarint(dst, d.PopVersion)
	dst = appendNames(dst, terms)
	dst = binary.AppendUvarint(dst, uint64(len(d.ClusterOf)))
	for slot, items := range d.Items {
		if d.ClusterOf[slot] == cluster.None {
			dst = binary.AppendUvarint(dst, 0)
			continue
		}
		dst = appendItems(dst, items)
	}
	for _, c := range d.ClusterOf {
		dst = binary.AppendUvarint(dst, uint64(c)+1) // None (-1) -> 0
	}
	return dst
}

// appendNames encodes a counted list of length-prefixed strings.
func appendNames(dst []byte, names []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, t := range names {
		dst = binary.AppendUvarint(dst, uint64(len(t)))
		dst = append(dst, t...)
	}
	return dst
}

// appendItems encodes an occupied slot's content: the item count plus
// one (zero marks an unoccupied slot), then each item's gap-encoded
// attribute IDs.
func appendItems(dst []byte, items []attr.Set) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(items))+1)
	for _, it := range items {
		ids := it.IDs()
		dst = binary.AppendUvarint(dst, uint64(len(ids)))
		prev := attr.ID(0)
		for _, id := range ids {
			dst = binary.AppendUvarint(dst, uint64(id-prev))
			prev = id
		}
	}
	return dst
}

// AppendViewDelta encodes a delta record onto dst and returns the
// extended slice: d carries a replica from the view at d.BasePop to the
// view at d.PopVersion, and names are the attribute names interned
// between the two, in ID order.
//
//	base_pop | pop | names | changed: count, then per slot
//	(slot, cluster+1, content if cluster+1 > 0) | moves: count, then
//	(slot, cluster) pairs
func AppendViewDelta(dst []byte, seq uint64, names []string, d core.ViewDelta) []byte {
	dst = appendHeader(dst, KindDelta, seq)
	dst = binary.AppendUvarint(dst, d.BasePop)
	dst = binary.AppendUvarint(dst, d.PopVersion)
	dst = appendNames(dst, names)
	dst = binary.AppendUvarint(dst, uint64(len(d.Changed)))
	for _, ch := range d.Changed {
		dst = binary.AppendUvarint(dst, uint64(ch.Slot))
		dst = binary.AppendUvarint(dst, uint64(ch.Cluster)+1) // None (-1) -> 0
		if ch.Cluster != cluster.None {
			dst = appendItems(dst, ch.Items)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(d.Moves)))
	for _, m := range d.Moves {
		dst = binary.AppendUvarint(dst, uint64(m.Slot))
		dst = binary.AppendUvarint(dst, uint64(m.To))
	}
	return dst
}

// AppendDelta encodes the delta record of a republish that relocated
// peers and changed none: AppendViewDelta at an unchanged population
// version.
func AppendDelta(dst []byte, seq, popVersion uint64, moves []core.SlotMove) []byte {
	return AppendViewDelta(dst, seq, nil, core.ViewDelta{BasePop: popVersion, PopVersion: popVersion, Moves: moves})
}

// maxID bounds every slot, cluster and attribute ID on the wire: they
// are int32 in memory.
const maxID = 1<<31 - 1

// Decode parses one record from data. The whole input must be exactly
// one record; trailing bytes are an error. Full records are
// structurally validated (assignment/content slot parity, sorted item
// sets, attribute IDs inside the term table) but not semantically
// checked — pair with core.FromViewData before serving from the result.
func Decode(data []byte) (Record, error) {
	r := wire.NewReader("viewwire", data)
	rec := Record{Kind: Kind(r.Header(magic, FormatVersion))}
	rec.Seq = r.Uvarint()
	switch rec.Kind {
	case KindFull:
		decodeFull(&r, &rec)
	case KindDelta:
		decodeDelta(&r, &rec)
	default:
		r.Failf("unknown record kind %d", rec.Kind)
	}
	if err := r.Finish(); err != nil {
		return Record{}, err
	}
	return rec, nil
}

func decodeFull(r *wire.Reader, rec *Record) {
	rec.PopVersion = r.Uvarint()
	rec.View.PopVersion = rec.PopVersion
	rec.Terms = names(r)
	// A slot occupies at least its content tag and its cluster.
	slots := r.Count(2, "slot")
	rec.View.Items = make([][]attr.Set, slots)
	occupied := make([]bool, slots)
	for slot := range slots {
		rec.View.Items[slot], occupied[slot] = items(r, slot, int64(len(rec.Terms)))
	}
	rec.View.ClusterOf = make([]cluster.CID, slots)
	for slot := range slots {
		v := r.Uvarint()
		c := cluster.CID(int64(v) - 1) // 0 -> None
		switch {
		case v > maxID+1:
			r.Failf("slot %d: cluster id %d out of range", slot, v)
		case (c == cluster.None) == occupied[slot]:
			r.Failf("slot %d: occupancy disagrees between content and assignment", slot)
		}
		rec.View.ClusterOf[slot] = c
	}
}

func decodeDelta(r *wire.Reader, rec *Record) {
	rec.BasePop = r.Uvarint()
	rec.PopVersion = r.Uvarint()
	rec.Names = names(r)
	rec.Changed = make([]core.SlotChange, r.Count(2, "change"))
	for i := range rec.Changed {
		slot := r.Uvarint()
		c := r.Uvarint()
		if slot > maxID || c > maxID+1 {
			r.Failf("change %d out of range (slot %d, cluster %d)", i, slot, c)
		}
		ch := &rec.Changed[i]
		ch.Slot, ch.Cluster = int32(slot), cluster.CID(int64(c)-1) // 0 -> None
		if ch.Cluster != cluster.None {
			// The vocabulary the IDs index is the replica's; it checks
			// them against it when it applies the record.
			var occupied bool
			if ch.Items, occupied = items(r, int(slot), maxID+1); !occupied {
				r.Failf("change %d: slot %d joins cluster %d without content", i, slot, ch.Cluster)
			}
		}
	}
	rec.Moves = make([]core.SlotMove, r.Count(2, "move"))
	for i := range rec.Moves {
		slot := r.Uvarint()
		to := r.Uvarint()
		if slot > maxID || to > maxID {
			r.Failf("move %d out of range (slot %d, to %d)", i, slot, to)
		}
		rec.Moves[i] = core.SlotMove{Slot: int32(slot), To: cluster.CID(to)}
	}
}

// names reads a counted list of length-prefixed strings.
func names(r *wire.Reader) []string {
	out := make([]string, r.Count(1, "name"))
	for i := range out {
		out[i] = string(r.Blob())
	}
	return out
}

// items reads one slot's content as appendItems wrote it; occupied is
// false for the unoccupied mark. Attribute IDs must ascend within an
// item and stay below limit.
func items(r *wire.Reader, slot int, limit int64) (items []attr.Set, occupied bool) {
	tag := r.Count(1, "item")
	if tag == 0 {
		return nil, false
	}
	items = make([]attr.Set, tag-1)
	for k := range items {
		ids := make([]attr.ID, r.Count(1, "item id"))
		prev := int64(0)
		for j := range ids {
			v := r.Uvarint()
			id := prev + int64(v)
			switch {
			case v > maxID:
				r.Failf("slot %d item %d: attribute id gap %d out of range", slot, k, v)
			case j > 0 && v == 0:
				r.Failf("slot %d item %d: non-increasing attribute ids", slot, k)
			case id >= limit:
				r.Failf("slot %d item %d: attribute id %d out of range", slot, k, id)
			}
			ids[j], prev = attr.ID(id), id
		}
		if r.Err() != nil {
			return nil, false // FromSorted panics on what a failed read left
		}
		items[k] = attr.FromSorted(ids)
	}
	return items, true
}
