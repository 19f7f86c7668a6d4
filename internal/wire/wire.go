// Package wire is the bounds-checked cursor behind the project's three
// binary decoders: viewwire's routing-view records, replog's
// mutation-log records and asyncnet's actor messages. All three open
// with the same four bytes,
//
//	magic (2 bytes) | format version | kind
//
// and carry varints, length-prefixed byte strings and counted lists
// after it. Their decoders are strict: truncations, counts the
// remaining input cannot hold, out-of-range values and trailing bytes
// are errors, never panics or unbounded allocations, so each can be
// fed untrusted bytes (FuzzViewWire, FuzzReplogRecord and
// FuzzMessageCodec pin it).
//
// A Reader's error is sticky. The first failed read, or the first
// Failf, records an error prefixed with the decoder's package name and
// cuts the input there, so every later read comes back empty or zero. A decoder therefore reads a
// record field after field and asks Finish once at the end, which also
// rejects trailing bytes. Every count a decoder loops over comes from
// Count, which bounds it by the remaining input, so a decoder that
// keeps looping after an error still does work proportional to the
// input alone.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendHeader appends the four bytes that open a record: magic, the
// format version and the record kind.
func AppendHeader(dst []byte, magic string, version, kind byte) []byte {
	return append(append(dst, magic...), version, kind)
}

// Reader walks one record.
type Reader struct {
	data []byte
	pos  int
	err  error
	pkg  string // prefixes every error
}

// NewReader returns a cursor at the start of data. pkg names the
// decoder in its errors.
func NewReader(pkg string, data []byte) Reader {
	return Reader{data: data, pkg: pkg}
}

// Err returns the first error, nil while every read succeeded.
func (r *Reader) Err() error { return r.err }

// Failf records a decoding error unless one is already recorded, and
// cuts the input at the cursor, so no later read finds a byte. That cut
// is what makes the error sticky: no read checks Err.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(r.pkg+": "+format, args...)
		r.data = r.data[:r.pos]
	}
}

// Finish returns the first error, or an error if bytes are left after
// the record.
func (r *Reader) Finish() error {
	if r.pos != len(r.data) {
		r.Failf("%d trailing bytes after record", len(r.data)-r.pos)
	}
	return r.err
}

func (r *Reader) truncated() { r.Failf("truncated input") }

// Header reads the four opening bytes, checks magic and version, and
// returns the record kind; the decoder judges the kind.
func (r *Reader) Header(magic string, version byte) (kind byte) {
	h := r.Bytes(4)
	switch {
	case h == nil:
	case h[0] != magic[0] || h[1] != magic[1]:
		r.Failf("bad magic %q", h[:2])
	case h[2] != version:
		r.Failf("unsupported wire version %d (speaking %d)", h[2], version)
	default:
		return h[3]
	}
	return 0
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	// A one-byte varint, most of what the formats carry, skips
	// binary.Uvarint. It needs no error check: Failf cut the input.
	if p := r.pos; p < len(r.data) && r.data[p] < 0x80 {
		r.pos = p + 1
		return uint64(r.data[p])
	}
	return r.uvarint()
}

func (r *Reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.truncated()
		return 0
	}
	r.pos += n
	return v
}

// Uint32 reads an unsigned varint that must fit 32 bits.
func (r *Reader) Uint32() uint32 {
	v := r.Uvarint()
	if v > math.MaxUint32 {
		r.Failf("uvarint %d outside uint32", v)
		return 0
	}
	return uint32(v)
}

// Int32 reads a zigzag varint that must fit an int32.
func (r *Reader) Int32() int32 {
	u := r.Uvarint()
	v := int64(u>>1) ^ -int64(u&1)
	if v < math.MinInt32 || v > math.MaxInt32 {
		r.Failf("varint %d outside int32", v)
		return 0
	}
	return int32(v)
}

// Bytes reads the next n bytes. The result aliases the input.
func (r *Reader) Bytes(n uint64) []byte {
	if n > uint64(len(r.data)-r.pos) {
		r.truncated()
		return nil
	}
	b := r.data[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b
}

// Blob reads a uvarint byte length and that many bytes, aliasing the
// input.
func (r *Reader) Blob() []byte { return r.Bytes(r.Uvarint()) }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if p := r.pos; p < len(r.data) {
		r.pos = p + 1
		return r.data[p]
	}
	r.truncated()
	return 0
}

// Bool reads one byte that must be 0 or 1, which keeps the encoding
// canonical.
func (r *Reader) Bool() bool {
	b := r.Byte()
	if b > 1 {
		r.Failf("bool byte %d", b)
	}
	return b == 1
}

// Float64 reads the 8 little-endian bytes of an IEEE 754 double.
func (r *Reader) Float64() float64 {
	if b := r.Bytes(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// Count reads a uvarint element count whose elements each occupy at
// least min encoded bytes, and rejects a count the remaining input
// cannot hold: the guard that keeps a hostile length from turning into
// an unbounded allocation. One element of slack lets a count-plus-one
// tag (viewwire's occupancy mark) use the same guard.
func (r *Reader) Count(min int, what string) int {
	v := r.Uvarint()
	if v > uint64((len(r.data)-r.pos)/min)+1 {
		r.Failf("%s count %d exceeds remaining input", what, v)
		return 0
	}
	return int(v)
}
