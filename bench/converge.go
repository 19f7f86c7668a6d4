package main

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"time"

	"repro/bench/gen"
	"repro/internal/service"
)

// convergeScenario is maintain-converge: the population restored into
// singleton clusters and reformed until a period reports convergence,
// over and over, each cycle from a fresh daemon.
type convergeScenario struct {
	o    options
	sz   gen.Sizes
	in   *gen.Inputs
	snap *service.Snapshot
	// cycles are the outcomes of every cycle measured so far; each must
	// equal the oracle's.
	cycles []reformResponse
	// last is the daemon's stats at the end of the latest cycle.
	last daemonStats
	// oracleMs is how long the twin took to converge with no service.
	oracleMs float64
}

func newConvergeScenario(o options) *convergeScenario {
	// No pool to speak of and one kit: this workload sends no queries
	// and admits nobody.
	sz := gen.Sizes{Peers: 3000, Pool: 64, Batch: 64, Clients: 1, Draws: 64, Kits: 1, ZipfS: 1.1}
	if o.short {
		sz.Peers = 200
	}
	return &convergeScenario{o: o, sz: sz}
}

func (s *convergeScenario) setUp(seed uint64) error {
	s.in = gen.New(s.sz, seed)
	snap, err := parseSnapshot(s.in.Snapshot)
	s.snap, s.cycles = snap, nil
	return err
}

func (s *convergeScenario) close() { s.in, s.snap = nil, nil }

// cycle restores a daemon, converges it over HTTP and shuts it down.
func (s *convergeScenario) cycle(tr *tracer, req int) (restoreMs, convergeMs float64, err error) {
	root := tr.begin("client.cycle", -1, req)
	defer tr.end(root)
	t0 := time.Now()
	id := tr.begin("service.restore", root, req)
	srv, err := restore(s.snap)
	tr.end(id)
	if err != nil {
		return 0, 0, err
	}
	restoreMs = ms(time.Since(t0))
	t := &topology{leader: startNode(srv), client: &http.Client{Timeout: time.Minute}}
	defer t.close()
	t1 := time.Now()
	id = tr.begin("service.converge", root, req)
	total, err := t.converge()
	tr.end(id)
	if err != nil {
		return 0, 0, err
	}
	convergeMs = ms(time.Since(t1))
	s.cycles = append(s.cycles, total)
	s.last, err = t.stats(t.leader.url())
	return restoreMs, convergeMs, err
}

func (s *convergeScenario) measure(d time.Duration, tr *tracer) measurement {
	var restores, converges samples
	m := measurement{detail: values{}}
	rounds, totalMs := 0, 0.0
	cpu0, start := cpuTime(), time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		// Each cycle builds a daemon of about a gigabyte. Collect the
		// last one first, or the cycle is timed growing the heap.
		runtime.GC()
		r, c, err := s.cycle(tr, i)
		if err != nil {
			m.tally.fail(err.Error())
			break
		}
		m.tally.ok()
		restores, converges = append(restores, r), append(converges, c)
		m.op = append(m.op, r+c)
		totalMs += r + c
		rounds += s.cycles[len(s.cycles)-1].Rounds
	}
	m.cpuMs = ms(cpuTime()-cpu0) / float64(max(len(m.op), 1))
	// Work is protocol rounds: a seed that needs more rounds to
	// converge takes longer per cycle, and does as many a second.
	m.work = 1e3 * float64(rounds) / max(totalMs, 1)
	m.detail["client.restore_ms"] = median(restores)
	m.detail["client.converge_ms"] = median(converges)
	if n := len(s.cycles); n > 0 {
		m.detail["client.scost_final"] = s.cycles[n-1].SCost
	}
	return m
}

// check runs the oracle: protocol.Runner.Run on a twin engine, no
// service, no stepping, no publishing. Every cycle must have ended
// bit-equal to it in SCost, and equal in clusters and rounds.
func (s *convergeScenario) check(t *tally) {
	tw := newTwin(s.snap)
	t0 := time.Now()
	want := tw.converge()
	s.oracleMs = ms(time.Since(t0))
	t.check(want.Converged, "the oracle did not converge")
	for i, got := range s.cycles {
		t.check(math.Float64bits(got.SCost) == math.Float64bits(want.SCost) && got.Clusters == want.Clusters && got.Rounds == want.Rounds,
			fmt.Sprintf("cycle %d ended at scost %v, %d clusters, %d rounds; the oracle at %v, %d, %d",
				i, got.SCost, got.Clusters, got.Rounds, want.SCost, want.Clusters, want.Rounds))
	}
}

func (s *convergeScenario) layers(tr *tracer, v values) {
	if len(s.cycles) == 0 {
		return
	}
	// One daemon ran one cycle, so its counters are the cycle's.
	last := s.cycles[len(s.cycles)-1]
	v["protocol.rounds"] = float64(last.Rounds)
	v["protocol.moves"] = s.last.Moves
	v["protocol.round_us"] = 1e3 * v["client.converge_ms"] / float64(max(last.Rounds, 1))
	v["protocol.scan_evaluated"] = s.last.Maintenance.Scanned
	if all := s.last.Maintenance.Scanned + s.last.Maintenance.SkippedClean; all > 0 {
		v["protocol.scan_skipped_clean_ratio"] = s.last.Maintenance.SkippedClean / all
	}
	v["protocol.oracle_run_ms"] = s.oracleMs
	v["service.views_published"] = s.last.PublishedViews
	v["service.lock_hold_mean_us"] = s.last.MutationLock.MeanUs
	v["experiments.build_system_ms"] = ms(s.in.BuildTime)
	fmt.Fprintf(s.o.log, "converge %.1f ms in the service, %.1f ms in the oracle: the difference is stepping and publishing\n",
		v["client.converge_ms"], s.oracleMs)
}
