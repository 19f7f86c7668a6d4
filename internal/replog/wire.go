package replog

import (
	"encoding/binary"

	"repro/internal/wire"
)

// This file is the wire framing of GET /v1/replog/watch, following the
// viewwire discipline: versioned binary records, a catch-up kind that
// carries everything a fresh follower needs, an incremental kind that
// carries a batch of log entries, and a strict decoder over the shared
// wire.Reader — truncations, hostile counts and trailing bytes are
// errors, never panics or unbounded allocations — so a follower can
// feed it untrusted bytes (pinned by FuzzReplogRecord).
//
//	magic "RM" | format version (1) | record kind | leader term uvarint | ...
//
// A SNAPSHOT record carries the serving state at one log position as
// an opaque payload (the service layer's catch-up document: vocabulary
// in ID order, distinct queries in QID order, every live peer) plus
// the (index, term) the follower resumes streaming from. An ENTRIES
// record carries consecutive log entries; the follower applies each in
// order and advances its position to the last one's index.

// RecordKind discriminates the wire records.
type RecordKind byte

const (
	// RecSnapshot is a full catch-up record.
	RecSnapshot RecordKind = 1
	// RecEntries is a batch of consecutive log entries.
	RecEntries RecordKind = 2
)

// WireVersion is the framing version; decoders reject others.
const WireVersion = 1

// wireMagic opens every record ("RM": replicated mutations).
const wireMagic = "RM"

// maxEntryData bounds one entry payload accepted by the decoder.
const maxEntryData = 1 << 26

// Record is one decoded wire record.
type Record struct {
	Kind RecordKind
	// Term is the sending leader's current term.
	Term uint64

	// Index and Snapshot are set for RecSnapshot: the log position the
	// snapshot captures and the opaque catch-up payload.
	Index    uint64
	Snapshot []byte

	// Entries is set for RecEntries.
	Entries []Entry
}

// AppendSnapshot encodes a catch-up record onto dst.
func AppendSnapshot(dst []byte, term, index uint64, payload []byte) []byte {
	dst = wire.AppendHeader(dst, wireMagic, WireVersion, byte(RecSnapshot))
	dst = binary.AppendUvarint(dst, term)
	dst = binary.AppendUvarint(dst, index)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// AppendEntries encodes an entry-batch record onto dst.
func AppendEntries(dst []byte, term uint64, entries []Entry) []byte {
	dst = wire.AppendHeader(dst, wireMagic, WireVersion, byte(RecEntries))
	dst = binary.AppendUvarint(dst, term)
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for _, e := range entries {
		dst = binary.AppendUvarint(dst, e.Index)
		dst = binary.AppendUvarint(dst, e.Term)
		dst = append(dst, byte(e.Kind))
		dst = binary.AppendUvarint(dst, uint64(len(e.Data)))
		dst = append(dst, e.Data...)
	}
	return dst
}

// DecodeRecord parses exactly one wire record; trailing bytes are an
// error. An entry batch must hold consecutive indexes, terms that never
// regress, and no term above the record's.
func DecodeRecord(data []byte) (Record, error) {
	r := wire.NewReader("replog", data)
	rec := Record{Kind: RecordKind(r.Header(wireMagic, WireVersion))}
	rec.Term = r.Uvarint()
	switch rec.Kind {
	case RecSnapshot:
		rec.Index = r.Uvarint()
		rec.Snapshot = r.Blob()
	case RecEntries:
		// Every entry occupies at least 4 encoded bytes.
		rec.Entries = make([]Entry, r.Count(4, "entry"))
		for i := range rec.Entries {
			e := &rec.Entries[i]
			e.Index = r.Uvarint()
			e.Term = r.Uvarint()
			e.Kind = Kind(r.Byte())
			e.Data = r.Blob()
			switch {
			case len(e.Data) > maxEntryData:
				r.Failf("entry %d payload %d bytes exceeds limit", i, len(e.Data))
			case e.Term > rec.Term:
				r.Failf("entry %d term %d exceeds record term %d", i, e.Term, rec.Term)
			case i == 0:
			case e.Index != rec.Entries[i-1].Index+1:
				r.Failf("entry %d index %d, want %d", i, e.Index, rec.Entries[i-1].Index+1)
			case e.Term < rec.Entries[i-1].Term:
				r.Failf("entry %d term %d regresses from %d", i, e.Term, rec.Entries[i-1].Term)
			}
		}
	default:
		r.Failf("unknown record kind %d", rec.Kind)
	}
	if err := r.Finish(); err != nil {
		return Record{}, err
	}
	return rec, nil
}
