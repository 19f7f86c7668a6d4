package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
)

// seed1Digest is the SHA-256 of the evaluation's output at paperSeed
// and full scale, as this repository produced it when the benchmark was
// defined. `reform -exp interleaved` is left out of the evaluation: it
// prints wall-clock latencies, the one block of `-exp all` that is not
// deterministic.
//
//go:embed testdata/paper-eval-seed1.sha256
var seed1Digest string

// experimentNames are the paper's results, in the order `reform -exp
// all` prints them.
var experimentNames = []string{"table1", "fig1", "fig2", "fig3", "fig4"}

// evaluate runs the first n experiments of the paper's evaluation and
// renders them exactly as `reform -exp <name>` prints each, timing
// each.
func evaluate(p experiments.Params, n int, tr *tracer, req int) (out string, seconds []float64) {
	var sb strings.Builder
	runs := []func(){
		func() { fmt.Fprintln(&sb, experiments.RunTable1(p).Table().Render()) },
		func() {
			r := experiments.RunFig1(p, 0)
			fmt.Fprintln(&sb, r.SCost.Render())
			fmt.Fprintln(&sb, r.WCost.Render())
		},
		func() {
			r := experiments.RunFig2(p)
			fmt.Fprintln(&sb, r.UpdatedPeers.Render())
			fmt.Fprintln(&sb, r.UpdatedWorkload.Render())
		},
		func() {
			r := experiments.RunFig3(p)
			fmt.Fprintln(&sb, r.UpdatedPeers.Render())
			fmt.Fprintln(&sb, r.UpdatedData.Render())
		},
		func() { fmt.Fprintln(&sb, experiments.RunFig4(p, nil).Render()) },
	}
	root := tr.begin("client.eval", -1, req)
	for i, run := range runs[:n] {
		t0 := time.Now()
		tr.in("experiments."+experimentNames[i], root, req, run)
		seconds = append(seconds, time.Since(t0).Seconds())
	}
	tr.end(root)
	return sb.String(), seconds
}

// paperScenario is paper-eval: the offline evaluation, repeated.
type paperScenario struct {
	o      options
	params experiments.Params
	outs   []string
	perExp [][]float64
}

func newPaperScenario(o options) *paperScenario {
	return &paperScenario{o: o}
}

// paperSeed is the evaluation's seed whatever -seed says: the
// evaluation has no traffic to draw, its input is the paper's parameter
// set, and at other seeds it takes up to 40% longer or shorter. At this
// seed its output can always be held to the committed digest.
const paperSeed = 1

// warmUp is how many experiments set-up runs: Table 1 and Fig 1, the
// two light ones.
const warmUp = 2

// setUp runs the light experiments once: it pages the code in and
// fills the allocator, so the first measured evaluation is like the
// rest.
func (s *paperScenario) setUp(uint64) error {
	s.params = experiments.DefaultParams()
	s.params.Seed = paperSeed
	s.params.Workers = runtime.GOMAXPROCS(0)
	if s.o.short {
		s.params = s.params.Scaled(8)
	}
	evaluate(s.params, warmUp, nil, 0)
	s.outs, s.perExp = nil, nil
	return nil
}

func (s *paperScenario) close() {}

func (s *paperScenario) measure(d time.Duration, tr *tracer) measurement {
	m := measurement{detail: values{}}
	cpu0, start := cpuTime(), time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		t0 := time.Now()
		out, secs := evaluate(s.params, len(experimentNames), tr, i)
		m.op = append(m.op, ms(time.Since(t0)))
		s.outs, s.perExp = append(s.outs, out), append(s.perExp, secs)
		m.tally.ok()
	}
	m.cpuMs = ms(cpuTime()-cpu0) / float64(len(m.op))
	// Work is experiments completed.
	m.work = float64(len(m.op)*len(experimentNames)) / time.Since(start).Seconds()
	m.detail["client.eval_s"] = median(m.op) / 1e3
	return m
}

// check holds the evaluation to its determinism: every repetition
// printed the same bytes, they are the committed ones, and
// one worker prints what all of them print. The last is checked at a
// quarter of the population, where both evaluations take about as long
// as one measured one.
func (s *paperScenario) check(t *tally) {
	for i, out := range s.outs {
		t.check(out == s.outs[0], fmt.Sprintf("evaluation %d printed different output from evaluation 0", i))
	}
	if !s.o.short && len(s.outs) > 0 {
		sum := sha256.Sum256([]byte(s.outs[0]))
		got := hex.EncodeToString(sum[:])
		t.check(got == strings.TrimSpace(seed1Digest), "the evaluation's output hashes to "+got+", not to the committed digest")
	}
	small := s.params
	if !s.o.short {
		small = small.Scaled(4)
	}
	all, _ := evaluate(small, len(experimentNames), nil, 0)
	small.Workers = 1
	one, _ := evaluate(small, len(experimentNames), nil, 0)
	t.check(one == all, fmt.Sprintf("the evaluation prints differently at 1 worker and at %d", s.params.Workers))
}

func (s *paperScenario) layers(_ *tracer, v values) {
	for i, name := range experimentNames {
		var col samples
		for _, secs := range s.perExp {
			col = append(col, secs[i])
		}
		v["experiments."+name+"_s"] = median(col)
	}
}
