package replog

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestLogNextAssignsDenseIndexes(t *testing.T) {
	l := NewLog()
	for i := 1; i <= 5; i++ {
		e := l.Next(1, KindJoin, []byte("x"))
		if e.Index != uint64(i) {
			t.Fatalf("entry %d got index %d", i, e.Index)
		}
		if e.Term != 1 {
			t.Fatalf("entry %d got term %d", i, e.Term)
		}
	}
	if got := l.LastIndex(); got != 5 {
		t.Fatalf("LastIndex = %d, want 5", got)
	}
	if got := l.Len(); got != 5 {
		t.Fatalf("Len = %d, want 5", got)
	}
}

func TestLogNextPanicsOnTermRegression(t *testing.T) {
	l := NewLog()
	l.Next(3, KindJoin, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Next with a stale term did not panic")
		}
	}()
	l.Next(2, KindJoin, nil)
}

func TestLogAppendEnforcesContiguityAndTerms(t *testing.T) {
	l := NewLog()
	if err := l.Append(Entry{Index: 1, Term: 1, Kind: KindJoin}); err != nil {
		t.Fatal(err)
	}
	// Gap.
	if err := l.Append(Entry{Index: 3, Term: 1, Kind: KindJoin}); err == nil {
		t.Fatal("gapped append accepted")
	}
	// Duplicate.
	if err := l.Append(Entry{Index: 1, Term: 1, Kind: KindJoin}); err == nil {
		t.Fatal("duplicate append accepted")
	}
	// Term regression.
	l.Next(2, KindLeave, nil)
	if err := l.Append(Entry{Index: 3, Term: 1, Kind: KindJoin}); err == nil {
		t.Fatal("term-regressing append accepted")
	}
	// Term advance is fine.
	if err := l.Append(Entry{Index: 3, Term: 5, Kind: KindJoin}); err != nil {
		t.Fatal(err)
	}
	if got := l.Term(); got != 5 {
		t.Fatalf("Term = %d, want 5", got)
	}
}

func TestLogSinceAndTruncate(t *testing.T) {
	l := NewLog()
	for i := 0; i < 10; i++ {
		l.Next(1, KindGrants, nil)
	}
	batch, ok := l.Since(0, 0)
	if !ok || len(batch) != 10 || batch[0].Index != 1 {
		t.Fatalf("Since(0) = %d entries ok=%v", len(batch), ok)
	}
	batch, ok = l.Since(7, 2)
	if !ok || len(batch) != 2 || batch[0].Index != 8 {
		t.Fatalf("Since(7, 2) = %v ok=%v", batch, ok)
	}
	if batch, ok = l.Since(10, 0); !ok || len(batch) != 0 {
		t.Fatalf("Since(last) should be an empty ok batch, got %v ok=%v", batch, ok)
	}
	if _, ok = l.Since(11, 0); ok {
		t.Fatal("Since past the end reported ok")
	}

	l.TruncateBefore(4)
	if got := l.Base(); got != 4 {
		t.Fatalf("Base = %d, want 4", got)
	}
	if _, ok = l.Since(3, 0); ok {
		t.Fatal("Since below the truncation floor reported ok")
	}
	batch, ok = l.Since(4, 0)
	if !ok || len(batch) != 6 || batch[0].Index != 5 {
		t.Fatalf("Since(4) after truncate = %d entries ok=%v", len(batch), ok)
	}
	// Truncating past the end clamps to the newest entry.
	l.TruncateBefore(99)
	if got, last := l.Base(), l.LastIndex(); got != last {
		t.Fatalf("Base %d != LastIndex %d after over-truncate", got, last)
	}
}

func TestLogReset(t *testing.T) {
	l := NewLog()
	l.Next(1, KindJoin, nil)
	l.Reset(42, 3)
	if got := l.Base(); got != 42 {
		t.Fatalf("Base = %d, want 42", got)
	}
	if got := l.LastIndex(); got != 42 {
		t.Fatalf("LastIndex = %d, want 42", got)
	}
	if err := l.Append(Entry{Index: 43, Term: 3, Kind: KindJoin}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Entry{Index: 44, Term: 2, Kind: KindJoin}); err == nil {
		t.Fatal("append below the reset term floor accepted")
	}
}

func TestLogWatchFiresOnAppend(t *testing.T) {
	l := NewLog()
	ch := l.Watch()
	select {
	case <-ch:
		t.Fatal("watch channel closed before any append")
	default:
	}
	done := make(chan struct{})
	go func() {
		<-ch
		close(done)
	}()
	l.Next(1, KindJoin, nil)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("append did not wake the watcher")
	}
}

func TestOpRoundTrip(t *testing.T) {
	in := JoinOp{
		Items:   [][]string{{"genre:jazz", "era:50s"}},
		Queries: []QueryCount{{Terms: []string{"genre:jazz"}, Count: 3}},
		Slot:    7, Cluster: 2,
	}
	out, err := DecodeOp[JoinOp](EncodeOp(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Slot != 7 || out.Cluster != 2 || len(out.Items) != 1 || len(out.Queries) != 1 {
		t.Fatalf("round-trip mismatch: %+v", out)
	}
	if _, err := DecodeOp[JoinOp]([]byte("{nope")); err == nil {
		t.Fatal("malformed op decoded")
	}
}

func TestWireEntriesRoundTrip(t *testing.T) {
	entries := []Entry{
		{Index: 11, Term: 2, Kind: KindJoin, Data: []byte(`{"slot":1}`)},
		{Index: 12, Term: 2, Kind: KindGrants, Data: nil},
		{Index: 13, Term: 3, Kind: KindPeriodEnd, Data: []byte(`{}`)},
	}
	buf := AppendEntries(nil, 3, entries)
	rec, err := DecodeRecord(buf)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != RecEntries || rec.Term != 3 {
		t.Fatalf("decoded kind=%d term=%d", rec.Kind, rec.Term)
	}
	if len(rec.Entries) != len(entries) {
		t.Fatalf("decoded %d entries, want %d", len(rec.Entries), len(entries))
	}
	for i, e := range rec.Entries {
		w := entries[i]
		if e.Index != w.Index || e.Term != w.Term || e.Kind != w.Kind || !bytes.Equal(e.Data, w.Data) {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, e, w)
		}
	}
}

func TestWireSnapshotRoundTrip(t *testing.T) {
	payload := []byte(`{"snapshot":true}`)
	buf := AppendSnapshot(nil, 4, 99, payload)
	rec, err := DecodeRecord(buf)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != RecSnapshot || rec.Term != 4 || rec.Index != 99 {
		t.Fatalf("decoded %+v", rec)
	}
	if !bytes.Equal(rec.Snapshot, payload) {
		t.Fatalf("payload mismatch: %q", rec.Snapshot)
	}
}

func TestWireRejectsHostileInput(t *testing.T) {
	good := AppendEntries(nil, 1, []Entry{{Index: 1, Term: 1, Kind: KindJoin, Data: []byte("x")}})
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "truncated"},
		{"bad magic", []byte{'X', 'Y', 1, 2, 0, 0}, "bad magic"},
		{"bad version", []byte{'R', 'M', 9, 2, 0, 0}, "unsupported wire version"},
		{"unknown kind", []byte{'R', 'M', 1, 7, 0}, "unknown record kind"},
		{"truncated mid-entry", good[:len(good)-1], "truncated"},
		{"trailing bytes", append(append([]byte{}, good...), 0xEE), "trailing"},
		{"hostile count", []byte{'R', 'M', 1, 2, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, "exceeds remaining"},
	}
	for _, c := range cases {
		_, err := DecodeRecord(c.data)
		if err == nil {
			t.Fatalf("%s: decode accepted", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestWireRejectsNonContiguousEntries(t *testing.T) {
	buf := AppendEntries(nil, 2, []Entry{
		{Index: 5, Term: 1, Kind: KindJoin},
		{Index: 7, Term: 1, Kind: KindJoin},
	})
	if _, err := DecodeRecord(buf); err == nil {
		t.Fatal("gapped entry batch decoded")
	}
	buf = AppendEntries(nil, 2, []Entry{
		{Index: 5, Term: 2, Kind: KindJoin},
		{Index: 6, Term: 1, Kind: KindJoin},
	})
	if _, err := DecodeRecord(buf); err == nil {
		t.Fatal("term-regressing entry batch decoded")
	}
	buf = AppendEntries(nil, 2, []Entry{{Index: 5, Term: 3, Kind: KindJoin}})
	if _, err := DecodeRecord(buf); err == nil {
		t.Fatal("entry term above record term decoded")
	}
}

// FuzzReplogRecord feeds the strict decoder arbitrary bytes. It must
// never panic, and any record it accepts must re-encode to bytes that
// decode to the same record and re-encode to the same bytes again.
// (The input itself need not come back: varints admit non-minimal
// encodings the decoder tolerates.) More seeds, accepted and rejected
// records, are in testdata/fuzz.
func FuzzReplogRecord(f *testing.F) {
	f.Add(AppendEntries(nil, 1, nil))
	f.Add([]byte("RM\x01"))
	f.Add([]byte{})
	encode := func(rec Record) []byte {
		if rec.Kind == RecSnapshot {
			return AppendSnapshot(nil, rec.Term, rec.Index, rec.Snapshot)
		}
		return AppendEntries(nil, rec.Term, rec.Entries)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		if err != nil {
			return
		}
		enc := encode(rec)
		again, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("re-encoding of accepted input failed to decode: %v", err)
		}
		if again.Kind != rec.Kind || again.Term != rec.Term || again.Index != rec.Index ||
			!bytes.Equal(again.Snapshot, rec.Snapshot) || len(again.Entries) != len(rec.Entries) {
			t.Fatalf("re-encode changed the record: %+v vs %+v", again, rec)
		}
		if re := encode(again); !bytes.Equal(enc, re) {
			t.Fatalf("round trip not bit-stable:\n first %x\nsecond %x", enc, re)
		}
	})
}
