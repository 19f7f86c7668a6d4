// Command bench is the repository's end-to-end benchmark: five
// workloads over the real service.Server, router.Router and a follower
// in one process, reached over loopback sockets, plus the offline
// paper evaluation. See README.md beside this file.
//
//	go run ./bench                              # every workload, both passes, tables
//	go run ./bench -workload churn-replicated -seed 7 -seconds 12 -trace 0
//
// With -workload the last line of standard output is one JSON object:
// correct, attempted, failed and the metrics of the chosen pass.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// scenario is one workload. The runner calls setUp (several times on
// an end-to-end run, closing in between), then measure, then check;
// the trace pass adds layers.
type scenario interface {
	// setUp generates the seed's inputs and builds everything
	// measurement starts from.
	setUp(seed uint64) error
	// measure drives the workload for about d. With a tracer it also
	// records one span per client operation.
	measure(d time.Duration, tr *tracer) measurement
	// check verifies the outputs at quiesce; a mismatch is a failed
	// operation.
	check(t *tally)
	// layers replays the generated inputs through each layer's public
	// functions under spans and fills in the per-layer numbers.
	layers(tr *tracer, v values)
	close()
}

// measurement is what one measure call saw.
type measurement struct {
	tally tally
	// op holds the latency of each operation, in milliseconds.
	op samples
	// work is the units of work completed per second, as the median of
	// fixed windows where the workload has enough of them.
	work float64
	// cpuMs is the user-mode CPU time the phase used, per operation,
	// in milliseconds.
	cpuMs float64
	// detail carries the client.* numbers of the trace pass.
	detail values
}

// workloadDef names one workload and why it exists; BENCHMARK.json
// carries the same two strings.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// heapMB is how much heap is faulted in before an end-to-end run
	// of the workload: what its heap grows to while it is measured. 0
	// for a workload whose heap has its size when set-up ends.
	heapMB int
	new    func(o options) scenario
}

var workloads = []workloadDef{
	{Name: "query-single",
		Why: "20000-query pool, 5x the route cache, one POST /v1/query at a time: most requests miss and Route runs, yet socket, JSON and net/http dominate. HTTP and codec changes show here, cache changes do not.",
		new: func(o options) scenario { return newQueryScenario(o, false) }},
	{Name: "query-batch-zipf",
		Why: "Zipf(1.1) batches of 64, half to a router: HTTP is amortised 64x and the working set fits the cache, so RouteCached, batch dedup and encode do the work. The opposite use of the route layer.",
		new: func(o options) scenario { return newQueryScenario(o, true) }},
	{Name: "churn-replicated",
		Why:    "Open-loop joins, leaves and reforms on a leader with a follower and a router that two clients read from: the path from engine to publish to wire to replica; every publish empties the route cache.",
		heapMB: churnHeapMB,
		new:    func(o options) scenario { return newChurnScenario(o) }},
	{Name: "maintain-converge",
		Why: "3000 singleton clusters restored and reformed to convergence: protocol and core.Engine do nearly all the work, HTTP almost none, and the service republishes after each granting step.",
		new: func(o options) scenario { return newConvergeScenario(o) }},
	{Name: "paper-eval",
		Why: "Table 1 and Figs 1-4 at the paper's 200-peer defaults: the offline user reproducing the paper. A simplification must keep this flat and the output byte-identical.",
		new: func(o options) scenario { return newPaperScenario(o) }},
}

// churnHeapMB: every view churn-replicated publishes stays referenced
// for a while, by the daemons' rings of recent views and by stale route
// cache entries, so its heap grows from 0.4 GB to 2 GB over 12 seconds.
const churnHeapMB = 2560

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// options are the settings of one run.
type options struct {
	seed    uint64
	seconds int
	// short shrinks every population to at most 200 peers, for the
	// smoke test.
	short bool
	// outDir is where the trace pass writes its span file.
	outDir string
	log    io.Writer
}

// setUpRepeats is how many times an end-to-end run sets up: setup_s is
// the median, because one set-up is a single noisy sample.
const setUpRepeats = 3

// result is the last line of a run.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`
}

// cpuTime is the user-mode CPU time this process has used. System time
// is left out: on this class of virtual machine it is mostly first-touch
// page faults, and back-to-back runs of one binary on one seed used
// 14.1 to 14.6 s of user time and 4.5 to 16.4 s of system time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano())
}

// endToEndRun sets up, measures with tracing off and checks, then sets
// up again until it has setUpRepeats timings. The extra set-ups come
// last: three set-ups leave a heap of several gigabytes behind, and
// measured after them the same binary on the same inputs read 50 to 67
// microseconds a query where after one it read 50 to 54.
func endToEndRun(w workloadDef, o options) (result, values, error) {
	if w.heapMB > 0 && !o.short {
		faultIn(w.heapMB, o.log)
	}
	sc := w.new(o)
	var setups samples
	setUp := func() error {
		// Collect what the last system left, or this set-up is timed
		// growing the heap past both.
		runtime.GC()
		t0 := time.Now()
		if err := sc.setUp(o.seed); err != nil {
			return fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return nil
	}
	if err := setUp(); err != nil {
		return result{}, nil, err
	}
	// Set-up's own garbage is collected too, so that when the first
	// collection of the measured phase falls is not set-up's doing.
	runtime.GC()
	m := sc.measure(time.Duration(o.seconds)*time.Second, nil)
	sc.check(&m.tally)
	sc.close()
	for len(setups) < setUpRepeats && !o.short {
		if err := setUp(); err != nil {
			return result{}, nil, err
		}
		sc.close()
	}
	v := values{
		"setup_s":        median(setups),
		"op_p50_ms":      median(m.op),
		"op_user_cpu_ms": m.cpuMs,
	}
	// With fewer than twenty operations no percentile has ten samples
	// beyond it, and the tail reads as p0.
	tailV, tailQ := tail(m.op)
	fmt.Fprintf(o.log, "%s seed %d: set-ups %.3f s; %d operations, %d attempted, %d failed; op p50 %.4f ms, p%g %.4f ms; work %.1f/s\n",
		w.Name, o.seed, setups, len(m.op), m.tally.attempted, m.tally.failed, v["op_p50_ms"], 100*tailQ, tailV, m.work)
	return finish(endToEnd, v, m.tally, o), v, nil
}

// traceRun sets up once, measures with tracing on, checks and replays
// the layers.
func traceRun(w workloadDef, o options) (result, values, error) {
	sc := w.new(o)
	if err := sc.setUp(o.seed); err != nil {
		return result{}, nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	defer sc.close()
	// The traced half runs between two untraced quarters, so that a
	// system still warming up, or slowing down, does not read as
	// tracing overhead.
	quarter := time.Duration(o.seconds) * time.Second / 4
	runtime.GC()
	before := sc.measure(quarter, nil)
	tr := newTracer()
	m := sc.measure(2*quarter, tr)
	after := sc.measure(quarter, nil)
	plain := append(before.op, after.op...)
	m.tally.merge(before.tally)
	m.tally.merge(after.tally)
	sc.check(&m.tally)

	v := values{}
	for k, x := range m.detail {
		v[k] = x
	}
	v["client.samples"] = float64(len(m.op))
	v["client.ops_per_s"] = m.work
	tailV, tailQ := tail(m.op)
	v["client.op_tail_ms"], v["client.op_tail_pct"] = tailV, 100*tailQ
	v["client.failed_ratio"] = float64(m.tally.failed) / float64(max(m.tally.attempted, 1))
	if p := median(plain); p > 0 {
		v["client.trace_overhead_ratio"] = median(m.op)/p - 1
	}
	sc.layers(tr, v)
	path, err := tr.write(o.outDir, w.Name)
	if err != nil {
		return result{}, nil, fmt.Errorf("%s: trace file: %w", w.Name, err)
	}
	fmt.Fprintf(o.log, "%s seed %d: %d spans in %s\n", w.Name, o.seed, len(tr.spans), path)
	return finish(perLayer, v, m.tally, o), v, nil
}

func finish(defs []metric, v values, t tally, o options) result {
	if t.failed > 0 {
		fmt.Fprintf(o.log, "FAILED %d of %d, first: %s\n", t.failed, t.attempted, t.firstFailure)
	}
	return result{Correct: t.failed == 0, Attempted: max(t.attempted, 1), Failed: t.failed, Metrics: report(defs, v)}
}

// printTable lists metrics in registry order, leaving out per-layer
// zeros: layers the workload did not touch.
func printTable(w io.Writer, defs []metric, v values, gated bool) {
	for _, d := range defs {
		x := v[d.Name]
		if x == 0 && !gated {
			continue
		}
		line := fmt.Sprintf("  %-36s %16.4f %s", d.Name, x, d.Unit)
		if gated {
			line += fmt.Sprintf("   (%s is better, bound %.2f)", d.Better, d.Bound)
		}
		fmt.Fprintln(w, line)
	}
}

// disagreements lists the end-to-end metrics whose values over the
// repeated sets of one workload differ by more than the bound.
func disagreements(sets []values) []string {
	var out []string
	for _, d := range endToEnd {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range sets {
			lo, hi = min(lo, v[d.Name]), max(hi, v[d.Name])
		}
		if lo <= 0 || (hi-lo)/lo > d.Bound {
			out = append(out, fmt.Sprintf("%s: %.4f .. %.4f %s is beyond the bound %.2f", d.Name, lo, hi, d.Unit, d.Bound))
		}
	}
	sort.Strings(out)
	return out
}

// faultIn grows the heap by mb megabytes, touches every page and frees
// them again. A first touch costs from 0.5 to 5 microseconds on this
// class of virtual machine, depending on whether the host has the page
// backed yet: the same 3.5 GB took 1.6 s in one process and 17.7 s in
// the next. A workload whose heap grows by gigabytes while it is
// measured is timed taking those faults, a different share every run,
// unless the host has been made to back that much memory first. The
// runtime hands most of it back to the kernel, which hands it out
// again: a page the guest has seen before costs the least.
func faultIn(mb int, log io.Writer) {
	t0 := time.Now()
	const chunkMB = 64
	keep := make([][]byte, 0, mb/chunkMB)
	for len(keep) < cap(keep) {
		b := make([]byte, chunkMB<<20)
		for j := 0; j < len(b); j += 4096 {
			b[j] = 1
		}
		keep = append(keep, b)
	}
	runtime.KeepAlive(keep)
	keep = nil
	runtime.GC()
	fmt.Fprintf(log, "%d MB of heap faulted in in %.2f s\n", mb, time.Since(t0).Seconds())
}

// runSeconds is how long one run measures unless -seconds says
// otherwise; BENCHMARK.json names the same number.
const runSeconds = 12

// describe renders BENCHMARK.json from the registries, so the file
// cannot drift from what the harness prints.
func describe() ([]byte, error) {
	type ungated struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	layers := make([]ungated, len(perLayer))
	for i, d := range perLayer {
		layers[i] = ungated{d.Name, d.Unit, d.Better}
	}
	return json.MarshalIndent(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metric      `json:"end_to_end"`
		PerLayer   []ungated     `json:"per_layer"`
	}{[]string{"go", "run", "./bench"}, []string{"bench"}, runSeconds, workloads, endToEnd, layers}, "", "  ")
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run; empty runs all of them, both passes")
		seed    = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds = flag.Int("seconds", runSeconds, "measured seconds per run")
		// An int, not a bool: the flag package reads "-trace 0" with a
		// bool flag as "-trace" followed by a stray argument.
		trace  = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced pass")
		repeat = flag.Int("repeat", 1, "run the end-to-end pass this many times and fail if any metric disagrees beyond its bound")
		short  = flag.Bool("short", false, "smoke-test sizes: at most 200 peers")
		spec   = flag.Bool("describe", false, "print BENCHMARK.json as the registries define it, and exit")
	)
	flag.Parse()
	if *spec {
		out, err := describe()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", out)
		return
	}
	if flag.NArg() > 0 || *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: go run ./bench [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-repeat n] [-short]")
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, short: *short, outDir: "bench/out", log: os.Stdout}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workloadDef{w}
	}
	passes := []int{*trace}
	if *name == "" {
		passes = []int{0, 1}
	}
	ok := true
	for _, w := range selected {
		for _, pass := range passes {
			var res result
			if pass == 1 {
				r, v, err := traceRun(w, o)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				printTable(os.Stdout, perLayer, v, false)
				res = r
			} else {
				var sets []values
				for i := 0; i < *repeat; i++ {
					r, v, err := endToEndRun(w, o)
					if err != nil {
						fmt.Fprintln(os.Stderr, err)
						os.Exit(1)
					}
					printTable(os.Stdout, endToEnd, v, true)
					sets = append(sets, v)
					res = r
					ok = ok && r.Correct
				}
				for _, d := range disagreements(sets) {
					fmt.Printf("DISAGREE %s %s\n", w.Name, d)
					ok = false
				}
			}
			ok = ok && res.Correct
			line, err := json.Marshal(res)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("%s\n", line)
		}
	}
	if !ok {
		os.Exit(1)
	}
}
