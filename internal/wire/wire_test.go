package wire

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// TestReaderReadsWhatWasWritten walks one record holding every field
// kind the three formats use and gets each value back, with the cursor
// at the end.
func TestReaderReadsWhatWasWritten(t *testing.T) {
	b := AppendHeader(nil, "XY", 3, 9)
	b = binary.AppendUvarint(b, 1<<40)
	b = binary.AppendUvarint(b, math.MaxUint32)
	b = binary.AppendVarint(b, math.MinInt32)
	b = binary.AppendUvarint(b, 3)
	b = append(b, "abc"...)
	b = append(b, 7, 1)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(-0.25))
	b = binary.AppendUvarint(b, 2) // a count of two one-byte elements
	b = append(b, 4, 5)

	r := NewReader("test", b)
	if kind := r.Header("XY", 3); kind != 9 {
		t.Fatalf("kind %d, want 9", kind)
	}
	if v := r.Uvarint(); v != 1<<40 {
		t.Fatalf("uvarint %d", v)
	}
	if v := r.Uint32(); v != math.MaxUint32 {
		t.Fatalf("uint32 %d", v)
	}
	if v := r.Int32(); v != math.MinInt32 {
		t.Fatalf("int32 %d", v)
	}
	if v := r.Blob(); string(v) != "abc" {
		t.Fatalf("blob %q", v)
	}
	if v := r.Byte(); v != 7 {
		t.Fatalf("byte %d", v)
	}
	if v := r.Bool(); !v {
		t.Fatal("bool false")
	}
	if v := r.Float64(); v != -0.25 {
		t.Fatalf("float64 %v", v)
	}
	if n := r.Count(1, "element"); n != 2 {
		t.Fatalf("count %d", n)
	}
	r.Bytes(2)
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderRejects pins what the cursor refuses, each error naming
// the decoder, and that the first error sticks: later reads return
// zero values and Finish reports the first failure, not trailing bytes.
func TestReaderRejects(t *testing.T) {
	hdr := AppendHeader(nil, "XY", 3, 1)
	for name, c := range map[string]struct {
		data []byte
		read func(r *Reader)
		want string
	}{
		"empty header":     {nil, func(r *Reader) { r.Header("XY", 3) }, "truncated"},
		"bad magic":        {AppendHeader(nil, "XZ", 3, 1), func(r *Reader) { r.Header("XY", 3) }, "bad magic"},
		"other version":    {hdr, func(r *Reader) { r.Header("XY", 2) }, "unsupported wire version 3"},
		"truncated varint": {[]byte{0x80}, func(r *Reader) { r.Uvarint() }, "truncated"},
		"varint overflow":  {[]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, func(r *Reader) { r.Uvarint() }, "truncated"},
		"uint32 overflow":  {binary.AppendUvarint(nil, 1<<32), func(r *Reader) { r.Uint32() }, "outside uint32"},
		"int32 overflow":   {binary.AppendVarint(nil, math.MaxInt32+1), func(r *Reader) { r.Int32() }, "outside int32"},
		"short blob":       {[]byte{3, 'a', 'b'}, func(r *Reader) { r.Blob() }, "truncated"},
		"huge blob":        {binary.AppendUvarint(nil, math.MaxUint64), func(r *Reader) { r.Blob() }, "truncated"},
		"bool byte 2":      {[]byte{2}, func(r *Reader) { r.Bool() }, "bool byte 2"},
		"short float":      {make([]byte, 7), func(r *Reader) { r.Float64() }, "truncated"},
		"hostile count":    {[]byte{0xFF, 0xFF, 0x03, 0, 0}, func(r *Reader) { r.Count(1, "widget") }, "widget count 65535 exceeds remaining input"},
		"count past width": {[]byte{4, 0, 0, 0, 0}, func(r *Reader) { r.Count(2, "pair") }, "pair count 4"},
		"trailing bytes":   {[]byte{1, 2}, func(r *Reader) { r.Byte() }, "1 trailing bytes"},
		"first error sticks": {[]byte{0x80}, func(r *Reader) {
			r.Uvarint()
			r.Failf("later")
			if r.Uvarint() != 0 || r.Byte() != 0 || len(r.Blob()) != 0 || r.Count(1, "x") != 0 {
				r.err = nil // make the test fail on the message
			}
		}, "truncated"},
	} {
		r := NewReader("test", c.data)
		c.read(&r)
		err := r.Finish()
		if err == nil || !strings.HasPrefix(err.Error(), "test: ") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming %q", name, err, c.want)
		}
	}
}

// TestCountSlack pins the one element of slack Count allows, and that a
// count the input can hold passes.
func TestCountSlack(t *testing.T) {
	for _, c := range []struct {
		count, rem, min int
		ok              bool
	}{
		{0, 0, 1, true}, {1, 0, 1, true}, {2, 0, 1, false},
		{5, 4, 1, true}, {6, 4, 1, false},
		{3, 4, 2, true}, {4, 4, 2, false},
		{2, 7, 4, true}, {3, 7, 4, false},
	} {
		r := NewReader("test", append(binary.AppendUvarint(nil, uint64(c.count)), make([]byte, c.rem)...))
		n := r.Count(c.min, "x")
		if ok := r.Err() == nil; ok != c.ok || (ok && n != c.count) {
			t.Errorf("count %d over %d bytes at %d a piece: got %d, err %v", c.count, c.rem, c.min, n, r.Err())
		}
	}
}
