// Package viewwire is the versioned wire encoding of the routing-view
// replication protocol: the byte records the authoritative serving
// daemon streams over GET /v1/view/watch and a stateless router
// replica decodes to maintain its local core.RoutingView.
//
// Two record kinds share a common header:
//
//	magic "RV" | format version (2) | kind | seq uvarint | ...
//
// A FULL record carries everything a replica needs to serve queries
// from scratch: the term table (attribute names in vocabulary order,
// so the replica can resolve query strings to the engine's attribute
// IDs), every slot's content items, the slot -> cluster assignment,
// the per-cluster sizes, and the content posting lists. A DELTA
// record carries what changed between two views of one publisher: the
// base and the new population version, the names appended to the
// vocabulary, each slot whose peer differs (with the newcomer's
// cluster and content, or the mark of a vacated slot) and each
// relocation of a peer that stayed. It is valid against exactly the
// base population version it names, so deltas chain: a replica at
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
// (version-1 records included), non-positive gaps, counts that cannot
// fit the remaining input, attribute IDs outside a full record's term
// table, inconsistent sizes, trailing bytes and truncations are all
// errors, never panics or unbounded allocations — so a replica can feed
// it untrusted bytes (pinned by FuzzViewWire).
package viewwire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core"
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
// 2 gave delta records their population section.
const FormatVersion = 2

// magic opens every record.
var magic = [2]byte{'R', 'V'}

// Record is one decoded protocol record.
type Record struct {
	Kind Kind
	// Seq is the publisher's monotone view sequence number.
	Seq uint64
	// PopVersion is the population version a replica stands at after
	// applying the record (for a full record it equals View.PopVersion).
	PopVersion uint64

	// Terms and View are set for KindFull: the attribute names in
	// vocabulary order and the full routing state.
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
	dst = append(dst, magic[0], magic[1], FormatVersion, byte(kind))
	return binary.AppendUvarint(dst, seq)
}

// AppendFull encodes a full-view record onto dst and returns the
// extended slice. terms must be the attribute names in vocabulary
// order covering every attribute ID appearing in d.
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

	// Per-cluster sizes, derived from the assignment: redundant on the
	// wire, verified by the decoder — a cheap end-to-end integrity
	// check on the record.
	sizes := deriveSizes(d.ClusterOf)
	dst = binary.AppendUvarint(dst, uint64(len(sizes)))
	for _, n := range sizes {
		dst = binary.AppendUvarint(dst, uint64(n))
	}

	held := 0
	for _, lst := range d.Postings {
		if len(lst) > 0 {
			held++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(held))
	for a, lst := range d.Postings {
		if len(lst) == 0 {
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(a))
		dst = binary.AppendUvarint(dst, uint64(len(lst)))
		for _, pid := range lst {
			dst = binary.AppendUvarint(dst, uint64(pid))
		}
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

func deriveSizes(clusterOf []cluster.CID) []int {
	maxC := -1
	for _, c := range clusterOf {
		if int(c) > maxC {
			maxC = int(c)
		}
	}
	sizes := make([]int, maxC+1)
	for _, c := range clusterOf {
		if c != cluster.None {
			sizes[c]++
		}
	}
	return sizes
}

// reader walks a record with strict bounds checking.
type reader struct {
	data []byte
	pos  int
}

var errTruncated = errors.New("viewwire: truncated record")

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, errTruncated
	}
	r.pos += n
	return v, nil
}

// count reads a uvarint element count whose elements each occupy at
// least min encoded bytes, rejecting counts the remaining input
// cannot possibly hold — the guard that keeps hostile lengths from
// turning into unbounded allocations.
func (r *reader) count(min int, what string) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if rem := len(r.data) - r.pos; v > uint64(rem/min)+1 && v > uint64(rem) {
		return 0, fmt.Errorf("viewwire: %s count %d exceeds remaining input", what, v)
	}
	return int(v), nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || len(r.data)-r.pos < n {
		return nil, errTruncated
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

// names reads a counted list of length-prefixed strings.
func (r *reader) names() ([]string, error) {
	n, err := r.count(1, "name")
	if err != nil {
		return nil, err
	}
	out := make([]string, n)
	for i := range out {
		l, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		b, err := r.bytes(int(l))
		if err != nil {
			return nil, err
		}
		out[i] = string(b)
	}
	return out, nil
}

// maxID bounds every slot, cluster and attribute ID on the wire: they
// are int32 in memory.
const maxID = 1<<31 - 1

// items reads one slot's content as appendItems wrote it; occupied is
// false for the unoccupied mark. Attribute IDs must ascend within an
// item and stay below limit.
func (r *reader) items(slot int, limit int64) (items []attr.Set, occupied bool, err error) {
	tag, err := r.count(1, "item")
	if err != nil || tag == 0 {
		return nil, false, err
	}
	items = make([]attr.Set, 0, tag-1)
	for k := 0; k < tag-1; k++ {
		n, err := r.count(1, "item id")
		if err != nil {
			return nil, false, err
		}
		ids := make([]attr.ID, 0, n)
		prev := int64(-1)
		for j := 0; j < n; j++ {
			v, err := r.uvarint()
			if err != nil {
				return nil, false, err
			}
			if v > maxID {
				return nil, false, fmt.Errorf("viewwire: slot %d item %d: attribute id %d out of range", slot, k, v)
			}
			id := int64(v)
			if j > 0 {
				if v == 0 {
					return nil, false, fmt.Errorf("viewwire: slot %d item %d: non-increasing attribute ids", slot, k)
				}
				id = prev + int64(v)
			}
			if id >= limit {
				return nil, false, fmt.Errorf("viewwire: slot %d item %d: attribute id %d out of range", slot, k, id)
			}
			ids = append(ids, attr.ID(id))
			prev = id
		}
		items = append(items, attr.FromSorted(ids))
	}
	return items, true, nil
}

// Decode parses one record from data. The whole input must be exactly
// one record; trailing bytes are an error. Full records are
// structurally validated (assignment/content slot parity, sorted item
// sets, size table consistency) but not semantically checked against
// the peer contents — pair with core.FromViewData, which validates
// the posting lists, before serving from the result.
func Decode(data []byte) (Record, error) {
	r := &reader{data: data}
	hdr, err := r.bytes(4)
	if err != nil {
		return Record{}, err
	}
	if hdr[0] != magic[0] || hdr[1] != magic[1] {
		return Record{}, fmt.Errorf("viewwire: bad magic %q", hdr[:2])
	}
	if hdr[2] != FormatVersion {
		return Record{}, fmt.Errorf("viewwire: unsupported format version %d (speaking %d)", hdr[2], FormatVersion)
	}
	rec := Record{Kind: Kind(hdr[3])}
	if rec.Seq, err = r.uvarint(); err != nil {
		return Record{}, err
	}
	switch rec.Kind {
	case KindFull:
		err = decodeFull(r, &rec)
	case KindDelta:
		err = decodeDelta(r, &rec)
	default:
		return Record{}, fmt.Errorf("viewwire: unknown record kind %d", rec.Kind)
	}
	if err != nil {
		return Record{}, err
	}
	if r.pos != len(r.data) {
		return Record{}, fmt.Errorf("viewwire: %d trailing bytes after record", len(r.data)-r.pos)
	}
	return rec, nil
}

func decodeFull(r *reader, rec *Record) error {
	var err error
	if rec.PopVersion, err = r.uvarint(); err != nil {
		return err
	}
	rec.View.PopVersion = rec.PopVersion

	if rec.Terms, err = r.names(); err != nil {
		return err
	}

	slots, err := r.count(1, "slot")
	if err != nil {
		return err
	}
	rec.View.Items = make([][]attr.Set, slots)
	occupied := make([]bool, slots)
	for slot := 0; slot < slots; slot++ {
		items, occ, err := r.items(slot, int64(len(rec.Terms)))
		if err != nil {
			return err
		}
		occupied[slot] = occ
		rec.View.Items[slot] = items
	}

	rec.View.ClusterOf = make([]cluster.CID, slots)
	for slot := 0; slot < slots; slot++ {
		v, err := r.uvarint()
		if err != nil {
			return err
		}
		if v > maxID+1 {
			return fmt.Errorf("viewwire: slot %d: cluster id %d out of range", slot, v)
		}
		c := cluster.CID(int64(v) - 1) // 0 -> None
		if (c == cluster.None) == occupied[slot] {
			return fmt.Errorf("viewwire: slot %d: occupancy disagrees between content and assignment", slot)
		}
		rec.View.ClusterOf[slot] = c
	}

	numSizes, err := r.count(1, "size")
	if err != nil {
		return err
	}
	sizes := make([]int, numSizes)
	for i := range sizes {
		v, err := r.uvarint()
		if err != nil {
			return err
		}
		sizes[i] = int(v)
	}
	derived := deriveSizes(rec.View.ClusterOf)
	if len(derived) != len(sizes) {
		return fmt.Errorf("viewwire: size table has %d clusters, assignment implies %d", len(sizes), len(derived))
	}
	for c := range sizes {
		if sizes[c] != derived[c] {
			return fmt.Errorf("viewwire: cluster %d size %d disagrees with assignment (%d)", c, sizes[c], derived[c])
		}
	}

	numAttrs, err := r.count(2, "posting")
	if err != nil {
		return err
	}
	rec.View.Postings = make([][]int32, len(rec.Terms))
	for i := 0; i < numAttrs; i++ {
		a, err := r.uvarint()
		if err != nil {
			return err
		}
		if a >= uint64(len(rec.Terms)) {
			return fmt.Errorf("viewwire: posting attribute id %d outside the %d terms", a, len(rec.Terms))
		}
		n, err := r.count(1, "posting entry")
		if err != nil {
			return err
		}
		lst := make([]int32, 0, n)
		for j := 0; j < n; j++ {
			pid, err := r.uvarint()
			if err != nil {
				return err
			}
			if pid >= uint64(slots) {
				return fmt.Errorf("viewwire: posting of attr %d names slot %d of %d", a, pid, slots)
			}
			lst = append(lst, int32(pid))
		}
		if rec.View.Postings[a] != nil {
			return fmt.Errorf("viewwire: duplicate posting list for attr %d", a)
		}
		rec.View.Postings[a] = lst
	}
	return nil
}

func decodeDelta(r *reader, rec *Record) error {
	var err error
	if rec.BasePop, err = r.uvarint(); err != nil {
		return err
	}
	if rec.PopVersion, err = r.uvarint(); err != nil {
		return err
	}
	if rec.Names, err = r.names(); err != nil {
		return err
	}
	n, err := r.count(2, "change")
	if err != nil {
		return err
	}
	rec.Changed = make([]core.SlotChange, 0, n)
	for i := 0; i < n; i++ {
		slot, err := r.uvarint()
		if err != nil {
			return err
		}
		c, err := r.uvarint()
		if err != nil {
			return err
		}
		if slot > maxID || c > maxID+1 {
			return fmt.Errorf("viewwire: change %d out of range (slot %d, cluster %d)", i, slot, c)
		}
		ch := core.SlotChange{Slot: int32(slot), Cluster: cluster.CID(int64(c) - 1)} // 0 -> None
		if ch.Cluster != cluster.None {
			// The vocabulary the IDs index is the replica's; it checks
			// them against it when it applies the record.
			items, occupied, err := r.items(int(slot), maxID+1)
			if err != nil {
				return err
			}
			if !occupied {
				return fmt.Errorf("viewwire: change %d: slot %d joins cluster %d without content", i, slot, ch.Cluster)
			}
			ch.Items = items
		}
		rec.Changed = append(rec.Changed, ch)
	}
	n, err = r.count(2, "move")
	if err != nil {
		return err
	}
	rec.Moves = make([]core.SlotMove, 0, n)
	for i := 0; i < n; i++ {
		slot, err := r.uvarint()
		if err != nil {
			return err
		}
		to, err := r.uvarint()
		if err != nil {
			return err
		}
		if slot > maxID || to > maxID {
			return fmt.Errorf("viewwire: move %d out of range (slot %d, to %d)", i, slot, to)
		}
		rec.Moves = append(rec.Moves, core.SlotMove{Slot: int32(slot), To: cluster.CID(to)})
	}
	return nil
}
