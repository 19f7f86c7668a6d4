// The race detector's instrumentation allocates on some of the gated
// paths, so under -race the gate would judge the detector.

//go:build !race

package benchsuite

import (
	"flag"
	"fmt"
	"slices"
	"testing"
)

// gateRuns is the iteration count of each entry that does not run at
// the gate's default of 100.
var gateRuns = map[string]int{
	// Its cache misses' inserts amortize to 0 allocs/op only over a
	// long enough order.
	"QueryServeZipf": 2000,
	// Each iteration forks and builds a LargePeers engine with the timer
	// stopped.
	"FirstJoinAfterRestore": 10,
	// About a millisecond an iteration.
	"RebuildLarge": 20,
}

// TestAllocGate is the allocation gate. It builds the fixtures once,
// runs every gated entry's body in table order through
// testing.Benchmark at a fixed iteration count, and fails when an
// entry's allocs/op exceed BENCH_BASELINE.json's or a 0-alloc contract
// reads above 0. Ungated entries are neither built nor run, which holds
// the gated ones to the numbers of a whole table run only while the
// ungated ones among them (BuildSystem, ColdRestore,
// ProtocolRoundParallel) leave the shared fixtures as they found them.
// After a change that is meant to move allocs/op, or to add, rename or
// reorder an entry, regenerate the baseline with
// `go run ./cmd/reform bench -o BENCH_BASELINE.json`.
func TestAllocGate(t *testing.T) {
	base := readBaseline(t)
	if base.Scale != Scale {
		t.Fatalf("BENCH_BASELINE.json is recorded at scale %d, the Small class runs at %d", base.Scale, Scale)
	}
	benchtime := flag.Lookup("test.benchtime").Value
	defer benchtime.Set(benchtime.String())

	f := NewFixtures(LargePeers)
	for _, e := range Table {
		if e.Gate == GateNone {
			continue
		}
		i := slices.IndexFunc(base.Benchmarks, func(b baselineEntry) bool { return b.Name == e.Name })
		peers := f.Small.Peers
		if e.Class == Large {
			peers = f.Large.Peers
		}
		if i < 0 || base.Benchmarks[i].Peers != peers {
			t.Errorf("%s: not in BENCH_BASELINE.json at %d peers", e.Name, peers)
			continue
		}
		runs := gateRuns[e.Name]
		if runs == 0 {
			runs = 100
		}
		benchtime.Set(fmt.Sprintf("%dx", runs))
		r := testing.Benchmark(e.New(f))
		got, want := r.AllocsPerOp(), base.Benchmarks[i].AllocsPerOp
		t.Logf("%-22s %4d allocs/op over %4d runs, baseline %d", e.Name, got, r.N, want)
		switch {
		case r.N == 0:
			t.Errorf("%s: the body failed", e.Name)
		case e.Gate == GateZeroAlloc && got != 0:
			t.Errorf("%s: %d allocs/op over %d runs, want 0 (0-alloc contract)", e.Name, got, r.N)
		case got > want:
			t.Errorf("%s: %d allocs/op over %d runs, baseline %d", e.Name, got, r.N, want)
		}
	}
}
