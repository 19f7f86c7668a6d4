package workload

import (
	"fmt"
	"testing"

	"repro/internal/attr"
)

// FuzzWorkloadCompact drives a Workload through byte-encoded op
// sequences — intern, add-count, clear-peer, compact under varying
// retention windows — against an oracle that tracks the same state as
// plain per-peer count maps. After every op the workload must
// validate, and every count, total and intern decision must match the
// oracle; after every compaction the remap must be monotone and
// retire exactly the queries the oracle's policy predicts.
//
// The encoding is deliberately dense (every byte sequence decodes to
// a valid op stream) so the fuzzer spends its budget on state-space
// exploration instead of format guessing:
//
//	op = b[i] % 4:   0 intern, 1 add, 2 clear-peer, 3 compact
//	args              drawn from the following bytes, modulo-reduced
//
// Seed inputs live in testdata/fuzz/FuzzWorkloadCompact; CI runs a
// short -fuzztime smoke on top of the committed corpus.
func FuzzWorkloadCompact(f *testing.F) {
	// Build/churn/compact/rebuild-over-reclaimed-ids phases.
	f.Add([]byte{1, 0, 5, 2, 1, 1, 9, 1, 3, 0, 2, 0, 3, 0, 1, 2, 5, 3})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 0, 1, 1, 2, 1, 2, 2, 3, 7, 3, 0})
	f.Add([]byte{1, 1, 30, 3, 1, 2, 30, 3, 2, 1, 3, 1, 2, 2, 3, 0, 1, 0, 30, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		const numPeers = 4
		const universe = 32 // distinct single-attr queries the ops range over

		w := New(numPeers)
		oracle := newCompactOracle(numPeers)
		next := func(i *int) byte {
			if *i >= len(data) {
				return 0
			}
			b := data[*i]
			*i++
			return b
		}
		for i := 0; i < len(data); {
			switch next(&i) % 4 {
			case 0: // intern only (a query may exist before any demand)
				q := attr.NewSet(attr.ID(next(&i) % universe))
				w.Intern(q)
				oracle.intern(q.Key())
			case 1: // add demand
				p := int(next(&i)) % numPeers
				q := attr.NewSet(attr.ID(next(&i) % universe))
				count := int(next(&i))%4 + 1
				w.Add(p, q, count)
				oracle.add(p, q.Key(), count)
			case 2: // clear a peer's workload (strands its queries)
				p := int(next(&i)) % numPeers
				w.ClearPeer(p)
				oracle.clear(p)
			case 3: // compact under a varying retention window
				minIdle := int(next(&i)) % 8
				before := w.NumQueries()
				remap, removed := w.Compact(minIdle)
				wantDead := oracle.compact(minIdle)
				if removed != wantDead {
					t.Fatalf("Compact(%d) removed %d, oracle predicts %d", minIdle, removed, wantDead)
				}
				if len(remap) != before {
					t.Fatalf("remap spans %d, want %d", len(remap), before)
				}
				nextID := QID(0)
				for q, nid := range remap {
					if nid == Dead {
						continue
					}
					if nid != nextID {
						t.Fatalf("remap not monotone-dense at old %d: %d want %d", q, nid, nextID)
					}
					nextID++
				}
				if int(nextID) != w.NumQueries() {
					t.Fatalf("remap keeps %d queries, workload has %d", nextID, w.NumQueries())
				}
			}
			if err := w.Validate(); err != nil {
				t.Fatalf("op %d: workload invalid: %v", i, err)
			}
			if err := oracle.check(w); err != nil {
				t.Fatalf("op %d: oracle mismatch: %v", i, err)
			}
		}
	})
}

// compactOracle is the reference model: per-peer counts keyed by the
// query's canonical string, plus the same demand clock and last-use
// stamps the retirement policy reads.
type compactOracle struct {
	peers   []map[string]int
	lastUse map[string]int64
	clock   int64
}

func newCompactOracle(numPeers int) *compactOracle {
	o := &compactOracle{
		peers:   make([]map[string]int, numPeers),
		lastUse: map[string]int64{},
	}
	for i := range o.peers {
		o.peers[i] = map[string]int{}
	}
	return o
}

func (o *compactOracle) intern(key string) {
	if _, ok := o.lastUse[key]; !ok {
		o.lastUse[key] = o.clock
	}
}

func (o *compactOracle) add(p int, key string, count int) {
	o.intern(key)
	o.peers[p][key] += count
	o.clock++
	o.lastUse[key] = o.clock
}

func (o *compactOracle) clear(p int) {
	clear(o.peers[p])
}

func (o *compactOracle) globalCount(key string) int {
	n := 0
	for _, m := range o.peers {
		n += m[key]
	}
	return n
}

func (o *compactOracle) compact(minIdle int) (dead int) {
	for key, last := range o.lastUse {
		if o.globalCount(key) == 0 && o.clock-last >= int64(minIdle) {
			delete(o.lastUse, key)
			dead++
		}
	}
	return dead
}

func (o *compactOracle) check(w *Workload) error {
	if got, want := w.NumQueries(), len(o.lastUse); got != want {
		return fmt.Errorf("%d distinct queries, oracle has %d", got, want)
	}
	qids := make(map[string]QID, w.NumQueries())
	for q := range w.NumQueries() {
		qids[w.Query(QID(q)).Key()] = QID(q)
	}
	total := 0
	for key, last := range o.lastUse {
		qid, ok := qids[key]
		if !ok {
			return fmt.Errorf("query %q lost", key)
		}
		if got, want := w.GlobalCount(qid), o.globalCount(key); got != want {
			return fmt.Errorf("query %q global %d, oracle %d", key, got, want)
		}
		if got := w.LastUse(qid); got != last {
			return fmt.Errorf("query %q lastUse %d, oracle %d", key, got, last)
		}
		for p, m := range o.peers {
			if got, want := w.Count(p, qid), m[key]; got != want {
				return fmt.Errorf("peer %d query %q count %d, oracle %d", p, key, got, want)
			}
		}
		total += o.globalCount(key)
	}
	if got := w.Total(); got != total {
		return fmt.Errorf("total %d, oracle %d", got, total)
	}
	if got := w.Clock(); got != o.clock {
		return fmt.Errorf("clock %d, oracle %d", got, o.clock)
	}
	return nil
}
