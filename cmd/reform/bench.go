package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"testing"

	"repro/internal/benchsuite"
	"repro/internal/experiments"
)

// benchResult is one microbenchmark measurement in BENCH.json. Peers
// and Scale record the system the entry measured: the small class
// shares the report-level scale, the maintenance-at-scale class runs
// at -peers regardless of -scale.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Peers       int     `json:"peers,omitempty"`
	Scale       int     `json:"scale,omitempty"`
	// Extra holds what the benchmark reported through b.ReportMetric.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// benchReport is the BENCH.json schema: one result per entry of
// benchsuite.Table, so the perf trajectory of the hot paths is tracked
// across PRs.
type benchReport struct {
	Scale      int           `json:"scale"`
	Peers      int           `json:"peers"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// runBenchCommand implements `reform bench`: it runs benchsuite.Table
// through testing.Benchmark and writes the results as JSON, for CI to
// archive and compare across commits. With -baseline it additionally
// diffs the fresh results against a stored report and exits nonzero when
// the gate fails: the same comparator the CI gate runs.
func runBenchCommand(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	out := fs.String("o", "BENCH.json", "output path; - writes to stdout")
	scale := fs.Int("scale", 4, "shrink factor for the small benchmark class (`go test -bench Suite` runs it at 4)")
	peers := fs.Int("peers", benchsuite.LargePeers, "population for the at-scale benchmark class (unaffected by -scale)")
	baseline := fs.String("baseline", "", "baseline BENCH.json to diff against; allocs/op growth, a broken 0-alloc contract or a benchmark missing from the fresh run fails, ns/op and B/op are printed only")
	fs.Parse(args)

	// The baseline is read first, so a run it cannot be compared with
	// fails before the table runs.
	var base benchReport
	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: baseline:", err)
			os.Exit(1)
		}
		if err := json.Unmarshal(data, &base); err != nil {
			fmt.Fprintf(os.Stderr, "bench: baseline %s: %v\n", *baseline, err)
			os.Exit(1)
		}
		if err := sameScale(base, *scale); err != nil {
			fmt.Fprintf(os.Stderr, "bench: baseline %s: %v\n", *baseline, err)
			os.Exit(1)
		}
	}

	p := experiments.DefaultParams().Scaled(*scale)
	p.MaxRounds = 150
	f := benchsuite.NewFixtures(p, *peers)

	report := benchReport{Scale: *scale, Peers: p.Peers}
	for _, e := range benchsuite.Table {
		r := testing.Benchmark(e.New(f))
		if r.N == 0 {
			// The body called b.Fatal; testing has printed why.
			fmt.Fprintf(os.Stderr, "bench: %s failed\n", e.Name)
			os.Exit(1)
		}
		res := benchResult{
			Name:        e.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Peers:       p.Peers,
			Scale:       *scale,
			Extra:       r.Extra,
		}
		if e.Class == benchsuite.Large {
			res.Peers, res.Scale = f.Large.Peers, 1
		}
		report.Benchmarks = append(report.Benchmarks, res)
	}

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: encode:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench: write:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(report.Benchmarks))
	}

	if *baseline != "" {
		// The gate table goes to stderr so `-o -` keeps stdout pure JSON.
		fmt.Fprintf(os.Stderr, "bench gate vs %s (allocs/op judged, ns/op and B/op recorded):\n", *baseline)
		if err := compareReports(base, report, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
}

// compareReports prints every fresh result beside the baseline's and
// returns an error when the gate fails. It judges only what repeats from
// run to run on any machine: an entry gated in benchsuite.Table fails
// when its allocs/op grew, a 0-alloc contract fails on any allocation
// whatever the baseline says, and a name the baseline has and the fresh
// run lacks fails (a renamed or dropped benchmark must not pass unseen).
// Ns/op and B/op are the trajectory: printed old -> new, never a
// verdict. A result the baseline lacks is skipped, so adding a benchmark
// needs no baseline first. A baseline recorded at another -scale fails
// before anything is compared: the small class's allocs/op grow with
// its population, so every row would judge a size, not a change.
func compareReports(base, fresh benchReport, w io.Writer) error {
	if err := sameScale(base, fresh.Scale); err != nil {
		return err
	}
	gates := make(map[string]benchsuite.Gate, len(benchsuite.Table))
	for _, e := range benchsuite.Table {
		gates[e.Name] = e.Gate
	}
	missing := make(map[string]benchResult, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		missing[b.Name] = b
	}
	var failures []string
	fail := func(format string, args ...any) string {
		failures = append(failures, fmt.Sprintf(format, args...))
		return "FAIL: " + failures[len(failures)-1]
	}
	for _, f := range fresh.Benchmarks {
		gate := gates[f.Name]
		b, inBase := missing[f.Name]
		delete(missing, f.Name)
		var verdict string
		switch {
		case gate == benchsuite.GateZeroAlloc && f.AllocsPerOp != 0:
			verdict = fail("%s allocs/op %d, want 0 (0-alloc contract)", f.Name, f.AllocsPerOp)
		case inBase && gate != benchsuite.GateNone && f.AllocsPerOp > b.AllocsPerOp:
			verdict = fail("%s allocs/op %d -> %d", f.Name, b.AllocsPerOp, f.AllocsPerOp)
		case !inBase:
			verdict = "not in baseline (skipped)"
		case gate == benchsuite.GateNone:
			verdict = "recorded"
		case gate == benchsuite.GateZeroAlloc:
			verdict = "ok (0-alloc contract holds)"
		default:
			verdict = "ok"
		}
		if inBase {
			fmt.Fprintf(w, "  %-24s ns/op %12.1f -> %12.1f  B/op %d -> %d  allocs/op %d -> %d  %s\n",
				f.Name, b.NsPerOp, f.NsPerOp, b.BytesPerOp, f.BytesPerOp, b.AllocsPerOp, f.AllocsPerOp, verdict)
		} else {
			fmt.Fprintf(w, "  %-24s ns/op %12.1f  B/op %d  allocs/op %d  %s\n",
				f.Name, f.NsPerOp, f.BytesPerOp, f.AllocsPerOp, verdict)
		}
	}
	for _, b := range base.Benchmarks {
		if _, ok := missing[b.Name]; ok {
			fmt.Fprintf(w, "  %-24s %s\n", b.Name, fail("%s is in the baseline, missing from the fresh run", b.Name))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench regression gate failed: %v", failures)
	}
	return nil
}

// sameScale returns an error naming both scales unless the baseline was
// recorded at -scale scale.
func sameScale(base benchReport, scale int) error {
	if base.Scale != scale {
		return fmt.Errorf("recorded at -scale %d, this run is at -scale %d: rerun with -scale %d", base.Scale, scale, base.Scale)
	}
	return nil
}
