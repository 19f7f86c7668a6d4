// Command reform regenerates the paper's evaluation — every table and
// figure of §4 plus ablations and extensions — and runs the overlay as
// an online daemon.
//
// Usage:
//
//	reform -exp table1             # one experiment
//	reform -exp all                # the whole evaluation
//	reform -exp fig2 -seed 7 -csv  # CSV output for plotting
//	reform -workers 8 -exp all     # bound the experiment worker pool
//	reform bench -o BENCH.json     # machine-readable microbenchmarks
//	reform bench -peers 10000      # the at-scale class at 10 000 peers
//	reform serve -addr :8080       # long-running join/leave/query daemon
//	reform serve -join URL         # follower replica of a running leader
//	reform route -upstream URL     # stateless query-router replica
//	reform loadtest -workers 8     # load-generate against the daemon
//	reform cluster                 # 3-node failover smoke test (kills the leader)
//
// Experiments: table1, fig1, fig2, fig3, fig4, counterexample, theta,
// epsilon, hybrid, paired, clgain, shared, async, asyncnet, baseline,
// discovery, churn, flashcrowd, longhaul, lookup, routing,
// multicluster, all. The asyncnet experiment runs the
// protocol on the actor-style message-passing runtime
// (internal/asyncnet) under injected latency, reordering, loss and
// straggler peers, and reports convergence quality against the
// synchronous oracle.
//
// Experiment cells run on a worker pool (default: one per CPU; see
// -workers). Outputs are deterministic per seed for every worker
// count. The bench subcommand runs internal/benchsuite's table and
// emits ns/op, B/op and allocs/op as BENCH.json, tracking the
// performance trajectory across commits; internal/benchsuite's
// TestAllocGate holds the gated entries' allocs/op to the committed
// BENCH_BASELINE.json, one such report. The serve subcommand exposes
// the overlay over HTTP under /v1 (see API.md): POST /v1/peers
// (join), DELETE /v1/peers/{id} (leave), POST /v1/query and
// POST /v1/query/batch (lock-free reads from atomically published
// views), POST /v1/reform, POST /v1/compact, GET /v1/stats
// (lock-free, exact), GET /v1/snapshot and GET /v1/view/watch (the
// routing-view replication feed), with reformulation and workload
// compaction on tickers and snapshot/restore across restarts;
// in-place compaction bounds memory by the live query set, so the
// daemon runs indefinitely under novel-query churn. The route
// subcommand runs a stateless query-router replica that follows the
// watch feed and serves the data plane byte-identically to the
// daemon. The loadtest subcommand seeds a target with bench/gen's
// generated population and replays that generator's queries with
// concurrent workers — against a remote daemon, an in-process
// one, or a router tier — and reports throughput and p50/p95/p99
// latency, optionally with maintenance and churn running
// concurrently.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "bench":
			runBenchCommand(os.Args[2:])
			return
		case "serve":
			runServeCommand(os.Args[2:])
			return
		case "cluster":
			runClusterCommand(os.Args[2:])
			return
		case "route":
			runRouteCommand(os.Args[2:])
			return
		case "loadtest":
			os.Exit(loadtestMain(os.Args[2:], os.Stdout, os.Stderr))
		}
	}
	os.Exit(expMain(os.Args[1:], os.Stdout, os.Stderr))
}

// expMain runs the -exp experiments and returns the exit code: 2 for
// a bad command line, 1 when the §2.3 counterexample fails to verify.
// Results go to stdout, complaints to stderr.
func expMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reform", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run (see package doc; 'all' runs everything)")
	seed := fs.Uint64("seed", 1, "random seed; every experiment is deterministic per seed")
	scale := fs.Int("scale", 1, "shrink factor for quick runs (peers and queries divided by it)")
	workers := fs.Int("workers", 0, "experiment worker pool size; 0 = one per CPU")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	plot := fs.Bool("plot", false, "render crude ASCII plots for figure series")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	p := experiments.DefaultParams()
	p.Seed = *seed
	p = p.Scaled(*scale)
	p.Workers = *workers

	out := &printer{w: stdout, csv: *csv, plot: *plot}
	// The paper's five results print from one PaperResult, so that `all`
	// can run them over shared systems (experiments.RunPaper) and a
	// single one builds only its own.
	var paper experiments.PaperResult
	var counterexampleErr error
	// Every -exp name, in the order `all` prints them.
	table := []struct {
		name string
		run  func()
	}{
		{"table1", func() { out.table(paper.Table1.Table()) }},
		{"fig1", func() { out.series(paper.Fig1.SCost); out.series(paper.Fig1.WCost) }},
		{"fig2", func() { out.series(paper.Fig2.UpdatedPeers); out.series(paper.Fig2.UpdatedWorkload) }},
		{"fig3", func() { out.series(paper.Fig3.UpdatedPeers); out.series(paper.Fig3.UpdatedData) }},
		{"fig4", func() { out.series(paper.Fig4) }},
		{"counterexample", func() { counterexampleErr = out.counterexample() }},
		{"theta", func() { out.table(experiments.RunThetaAblation(p)) }},
		{"epsilon", func() { out.table(experiments.RunEpsilonAblation(p)) }},
		{"hybrid", func() { out.table(experiments.RunHybridComparison(p)) }},
		{"paired", func() { out.table(experiments.RunPairedDemandAblation(p)) }},
		{"clgain", func() { out.table(experiments.RunClgainAblation(p)) }},
		{"shared", func() { out.table(experiments.RunSharedVocabAblation(p)) }},
		{"async", func() { out.table(experiments.RunAsyncComparison(p)) }},
		{"asyncnet", func() { out.table(experiments.RunAsyncNet(p)) }},
		{"baseline", func() { out.table(experiments.RunBaselineComparison(p)) }},
		{"discovery", func() { out.table(experiments.RunKMeansDiscovery(p)) }},
		{"churn", func() { out.series(experiments.RunChurn(p, 10, 0.05)) }},
		{"flashcrowd", func() { out.table(experiments.RunFlashCrowd(p, nil)) }},
		{"longhaul", func() { out.table(experiments.RunLongHaul(p, 0, nil)) }},
		{"lookup", func() { out.table(experiments.RunLookupCost(p)) }},
		{"routing", func() { out.table(experiments.RunRoutingAblation(p)) }},
		{"multicluster", func() { out.table(experiments.RunMultiClusterAnalysis(p, 4)) }},
	}

	name := strings.ToLower(*exp)
	run := table
	if name != "all" {
		run = nil
		var names []string
		for i, e := range table {
			names = append(names, e.name)
			if e.name == name {
				run = table[i : i+1]
			}
		}
		if run == nil {
			fmt.Fprintf(stderr, "unknown experiment %q; known: %s, all\n", name, strings.Join(names, ", "))
			return 2
		}
	}
	switch name {
	case "all":
		paper = *experiments.RunPaper(p)
	case "table1":
		paper.Table1 = experiments.RunTable1(p)
	case "fig1":
		paper.Fig1 = experiments.RunFig1(p, 0)
	case "fig2":
		paper.Fig2 = experiments.RunFig2(p)
	case "fig3":
		paper.Fig3 = experiments.RunFig3(p)
	case "fig4":
		paper.Fig4 = experiments.RunFig4(p, nil)
	}
	for _, e := range run {
		if name == "all" {
			fmt.Fprintf(stdout, "=== %s ===\n", e.name)
		}
		e.run()
		if counterexampleErr != nil {
			fmt.Fprintln(stderr, "counterexample FAILED:", counterexampleErr)
			return 1
		}
	}
	return 0
}

type printer struct {
	w    io.Writer
	csv  bool
	plot bool
}

func (p *printer) table(t *metrics.Table) {
	if p.csv {
		fmt.Fprint(p.w, t.CSV())
		return
	}
	fmt.Fprintln(p.w, t.Render())
}

func (p *printer) series(s *metrics.Series) {
	if p.csv {
		fmt.Fprint(p.w, s.CSV())
		return
	}
	fmt.Fprintln(p.w, s.Render())
	if p.plot {
		fmt.Fprintln(p.w, s.Plot(60, 15))
	}
}

// counterexample prints the §2.3 deviation trace, or returns why it
// failed to verify.
func (p *printer) counterexample() error {
	inst := core.NewTwoPeerInstance(1)
	trace, err := inst.VerifyNoNash()
	if err != nil {
		return err
	}
	fmt.Fprintln(p.w, "§2.3 two-peer instance (alpha=1): no configuration is a pure Nash equilibrium")
	fmt.Fprint(p.w, trace)
	fmt.Fprintln(p.w)
	return nil
}
