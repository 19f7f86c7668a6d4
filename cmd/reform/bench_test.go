package main

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/benchsuite"
)

// TestCompareReports drives the gate over synthetic reports: only a
// baseline at another scale, allocs/op on gated entries, the 0-alloc
// contracts and a baseline name missing from the fresh run may fail it.
func TestCompareReports(t *testing.T) {
	first := map[benchsuite.Gate]string{} // the first table entry of each gate kind
	for _, e := range benchsuite.Table {
		if first[e.Gate] == "" {
			first[e.Gate] = e.Name
		}
	}
	none, gated, zero := first[benchsuite.GateNone], first[benchsuite.GateAllocs], first[benchsuite.GateZeroAlloc]

	// report has every table entry at 100 ns/op and 5 allocs/op (0 under
	// a 0-alloc contract), then edit applied to each result; a result
	// whose name edit clears is left out.
	report := func(edit func(r *benchResult)) benchReport {
		var rep benchReport
		for _, e := range benchsuite.Table {
			r := benchResult{Name: e.Name, NsPerOp: 100, AllocsPerOp: 5, BytesPerOp: 64}
			if e.Gate == benchsuite.GateZeroAlloc {
				r.AllocsPerOp, r.BytesPerOp = 0, 0
			}
			if edit != nil {
				edit(&r)
			}
			if r.Name != "" {
				rep.Benchmarks = append(rep.Benchmarks, r)
			}
		}
		return rep
	}
	on := func(name string, change func(r *benchResult)) func(r *benchResult) {
		return func(r *benchResult) {
			if r.Name == name {
				change(r)
			}
		}
	}
	grow := func(r *benchResult) { r.AllocsPerOp++ }
	drop := func(r *benchResult) { r.Name = "" }

	for _, tc := range []struct {
		name        string
		base, fresh benchReport
		wantErr     string // substring of the error; empty: the gate passes
		wantPrinted string
	}{
		{name: "equal", base: report(nil), fresh: report(nil)},
		{name: "allocs growth", base: report(nil), fresh: report(on(gated, grow)),
			wantErr: gated + " allocs/op 5 -> 6"},
		{name: "allocs growth, ungated", base: report(nil), fresh: report(on(none, grow)),
			wantPrinted: "allocs/op 5 -> 6  recorded"},
		{name: "fewer allocs", base: report(on(gated, grow)), fresh: report(nil)},
		{name: "0-alloc contract", base: report(nil), fresh: report(on(zero, grow)),
			wantErr: zero + " allocs/op 1, want 0"},
		{name: "0-alloc contract, not in baseline", base: report(on(zero, drop)), fresh: report(on(zero, grow)),
			wantErr: zero + " allocs/op 1, want 0"},
		{name: "gated name missing", base: report(nil), fresh: report(on(gated, drop)),
			wantErr: gated + " is in the baseline, missing from the fresh run"},
		{name: "ungated name missing", base: report(nil), fresh: report(on(none, drop)),
			wantErr: none + " is in the baseline, missing from the fresh run"},
		{name: "not in baseline", base: report(on(gated, drop)), fresh: report(on(gated, grow)),
			wantPrinted: "not in baseline (skipped)"},
		{name: "another scale", base: benchReport{Scale: 8, Benchmarks: report(nil).Benchmarks},
			fresh:   benchReport{Scale: 4, Benchmarks: report(on(gated, grow)).Benchmarks},
			wantErr: "recorded at -scale 8, this run is at -scale 4: rerun with -scale 8"},
		{name: "10x ns/op and B/op", base: report(nil),
			fresh:       report(on(gated, func(r *benchResult) { r.NsPerOp *= 10; r.BytesPerOp *= 10 })),
			wantPrinted: fmt.Sprintf("ns/op %12.1f -> %12.1f  B/op 64 -> 640  allocs/op 5 -> 5  ok", 100.0, 1000.0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := compareReports(tc.base, tc.fresh, &out)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("gate failed: %v\n%s", err, &out)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("error %v, want one naming %q\n%s", err, tc.wantErr, &out)
			}
			if !strings.Contains(out.String(), tc.wantPrinted) {
				t.Fatalf("output lacks %q:\n%s", tc.wantPrinted, &out)
			}
		})
	}
}
