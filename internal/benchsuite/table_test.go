package benchsuite

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// baselineReport is what the tests read of BENCH_BASELINE.json, the report
// `go run ./cmd/reform bench -o BENCH_BASELINE.json` writes.
type baselineReport struct {
	Scale      int             `json:"scale"`
	Benchmarks []baselineEntry `json:"benchmarks"`
}

type baselineEntry struct {
	Name        string `json:"name"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	Peers       int    `json:"peers"`
}

func readBaseline(t *testing.T) baselineReport {
	t.Helper()
	data, err := os.ReadFile("../../BENCH_BASELINE.json")
	if err != nil {
		t.Fatal(err)
	}
	var base baselineReport
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	return base
}

// TestTable holds the table to its shape: every entry named once, of a
// known class and gate kind (GateZeroAlloc is the top of one ordered
// kind, so a 0-alloc contract cannot exist without the allocs gate), and
// the names, in order, exactly those of the committed baseline: dropping,
// renaming or reordering an entry without regenerating
// BENCH_BASELINE.json fails here before it fails the gate.
func TestTable(t *testing.T) {
	var names []string
	for i, e := range Table {
		if e.Name == "" || slices.Contains(names, e.Name) {
			t.Errorf("entry %d: name %q is empty or taken", i, e.Name)
		}
		names = append(names, e.Name)
		if e.Class != Small && e.Class != Large {
			t.Errorf("%s: class %d", e.Name, e.Class)
		}
		if e.Gate < GateNone || e.Gate > GateZeroAlloc {
			t.Errorf("%s: gate %d", e.Name, e.Gate)
		}
		if e.New == nil {
			t.Errorf("%s: no body", e.Name)
		}
	}

	var committed []string
	for _, b := range readBaseline(t).Benchmarks {
		committed = append(committed, b.Name)
	}
	if !slices.Equal(names, committed) {
		t.Errorf("table and BENCH_BASELINE.json disagree:\n table    %v\n baseline %v", names, committed)
	}
}
