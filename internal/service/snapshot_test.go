package service

import (
	"bytes"
	"cmp"
	"encoding/json"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/bench/gen"
	"repro/internal/core"
)

// TestRestoreRejectsMalformedSnapshots feeds both state documents
// that decode but describe no overlay: each row's snapshot to
// NewFromSnapshot, and its catch-up document (the same text unless the
// row gives one) to a follower's installCatchUp. Each must come back as
// an error naming the fault; none may panic.
func TestRestoreRejectsMalformedSnapshots(t *testing.T) {
	for _, c := range []struct {
		name, doc, catchUp, want string
	}{
		{"negative slots", `{"version":1,"slots":-1}`, "", "slots -1 out of range"},
		{"slots past the bound", `{"version":1,"slots":99999999999}`, "", "slots 99999999999 out of range"},
		{"negative epsilon", `{"version":1,"epsilon":-0.5}`, "", "epsilon -0.5"},
		{"negative alpha", `{"version":1,"alpha":-1}`, `{"version":1,"slots":2,"alpha":-1,"peers":[]}`, "alpha -1"},
		{"wrong version", `{"version":2}`, "", "version 2"},
		{"slot out of range", `{"version":1,"slots":1,"peers":[{"slot":1}]}`, "", "slot 1 out of range"},
		{"slot duplicated", `{"version":1,"slots":2,"peers":[{"slot":1},{"slot":1}]}`, "", "slot 1 duplicated"},
		{"cluster out of range", `{"version":1,"slots":2,"peers":[{"slot":0,"cluster":2}]}`, "", "invalid cluster 2"},
		{"query without terms", `{"version":1,"slots":1,"peers":[{"slot":0,"queries":[{"terms":[],"count":1}]}]}`,
			`{"version":1,"slots":1,"terms":["a"],"queries":[[]]}`, "invalid query"},
		{"query count zero", `{"version":1,"slots":1,"peers":[{"slot":0,"queries":[{"terms":["a"],"count":0}]}]}`,
			`{"version":1,"slots":1,"terms":["a"],"queries":[[0]],"peers":[{"slot":0,"workload":[[0,0]]}]}`, "invalid query"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var snap Snapshot
			if err := json.Unmarshal([]byte(c.doc), &snap); err != nil {
				t.Fatal(err)
			}
			_, err := NewFromSnapshot(Config{}, &snap)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("NewFromSnapshot(%s) = %v, want an error containing %q", c.doc, err, c.want)
			}
			doc := cmp.Or(c.catchUp, c.doc)
			err = New(Config{Join: []string{"http://invalid.invalid"}}).installCatchUp([]byte(doc))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("installCatchUp(%s) = %v, want an error containing %q", doc, err, c.want)
			}
		})
	}
}

// TestRestoreWorkersByteIdentical restores one snapshot, large enough
// that a restore fans out, at GOMAXPROCS 1 and 4. The vocabulary must
// name the same terms in the same ID order, the restored daemons must
// snapshot to the same JSON, and a maintenance period on each must end
// in the same report and the same state.
func TestRestoreWorkersByteIdentical(t *testing.T) {
	const peers = 1100
	in := gen.New(gen.Sizes{Peers: peers, Pool: 8, Batch: 8, Clients: 1, Draws: 8, Kits: 1, ZipfS: 1.1}, 1)
	var snap Snapshot
	if err := json.Unmarshal(in.Snapshot, &snap); err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		names                  []string
		restored, report, done []byte
	}
	restore := func(procs int) outcome {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		if w := core.RestoreWorkers(peers); w != procs {
			t.Fatalf("GOMAXPROCS %d: RestoreWorkers(%d) = %d, want %d", procs, peers, w, procs)
		}
		s, err := NewFromSnapshot(Config{}, &snap)
		if err != nil {
			t.Fatal(err)
		}
		var o outcome
		o.names = slices.Clone(s.vocab.Names())
		if o.restored, err = json.Marshal(s.Snapshot()); err != nil {
			t.Fatal(err)
		}
		// The report holds every granted move and both costs after every
		// round; its floats print as the shortest decimal that reads back
		// to the same bits.
		if o.report, err = json.Marshal(s.Reform()); err != nil {
			t.Fatal(err)
		}
		if o.done, err = json.Marshal(s.Snapshot()); err != nil {
			t.Fatal(err)
		}
		return o
	}
	one, four := restore(1), restore(4)
	if !slices.Equal(four.names, one.names) {
		i := 0
		for i < min(len(one.names), len(four.names)) && one.names[i] == four.names[i] {
			i++
		}
		t.Fatalf("vocabularies differ from ID %d on (%d and %d terms on 1 and 4 workers)", i, len(one.names), len(four.names))
	}
	if !bytes.Equal(four.restored, one.restored) {
		t.Fatal("restored snapshots differ between 1 and 4 workers")
	}
	if !bytes.Equal(four.report, one.report) {
		t.Fatalf("reform reports differ between 1 and 4 workers (%d and %d bytes)", len(one.report), len(four.report))
	}
	if !bytes.Equal(four.done, one.done) {
		t.Fatal("snapshots after the reform differ between 1 and 4 workers")
	}
}

// fuzzRestoreSlots bounds the slot count FuzzRestoreSnapshot restores:
// a count up to maxSnapshotSlots is valid, but allocating for millions
// of slots on every input would leave no time for anything else. Counts
// past maxSnapshotSlots are still fuzzed: they must be rejected.
const fuzzRestoreSlots = 1 << 12

// FuzzRestoreSnapshot feeds arbitrary JSON to both state documents'
// loaders: decoded into a Snapshot it goes to NewFromSnapshot, and as
// a catch-up document it goes to installCatchUp on a fresh follower.
// Each must either build the state or return an error, never panic,
// and a state built must snapshot again with the document's slots and
// peers. CI runs a short continuation of this fuzz on top of the
// committed seed corpus in testdata/fuzz.
func FuzzRestoreSnapshot(f *testing.F) {
	f.Add([]byte(`{"version":1,"alpha":1,"epsilon":0.001,"slots":3,"peers":[` +
		`{"slot":0,"cluster":0,"items":[["a","b"],["b","c"]],"queries":[{"terms":["a"],"count":2}]},` +
		`{"slot":2,"cluster":0,"items":[["c"],[]],"queries":[{"terms":["b","c"],"count":1}]}]}`))
	f.Add([]byte(`{"version":1,"slots":0,"peers":[]}`))
	f.Fuzz(func(t *testing.T, doc []byte) {
		var head struct {
			Slots int `json:"slots"`
		}
		if json.Unmarshal(doc, &head) != nil {
			return // neither document decodes
		}
		if head.Slots > fuzzRestoreSlots && head.Slots <= maxSnapshotSlots {
			t.Skip("too many slots to restore per input")
		}
		restored := func(s *Server, peers int) {
			if got := s.Snapshot(); got.Slots != head.Slots || len(got.Peers) != peers {
				t.Fatalf("restored %d slots and %d peers, snapshot again as %d and %d", head.Slots, peers, got.Slots, len(got.Peers))
			}
		}
		var snap Snapshot
		if json.Unmarshal(doc, &snap) == nil {
			if s, err := NewFromSnapshot(Config{}, &snap); err == nil {
				restored(s, len(snap.Peers))
			}
		}
		var cu catchUp
		s := New(Config{Join: []string{"http://invalid.invalid"}})
		if s.installCatchUp(doc) == nil && json.Unmarshal(doc, &cu) == nil {
			restored(s, len(cu.Peers))
		}
	})
}
