package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/benchsuite"
)

// benchResult is one microbenchmark measurement in BENCH.json. Peers
// and Scale record the system the entry measured: the Small class
// shares the report-level scale, the Large class runs at -peers.
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
// archive as the trajectory across commits. Its output at the default
// -peers is BENCH_BASELINE.json, which benchsuite's TestAllocGate holds
// the gated entries to.
func runBenchCommand(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	out := fs.String("o", "BENCH.json", "output path; - writes to stdout")
	peers := fs.Int("peers", benchsuite.LargePeers, "population for the at-scale benchmark class")
	fs.Parse(args)

	f := benchsuite.NewFixtures(*peers)
	report := benchReport{Scale: benchsuite.Scale, Peers: f.Small.Peers}
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
			Peers:       f.Small.Peers,
			Scale:       benchsuite.Scale,
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
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench: write:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(report.Benchmarks))
}
