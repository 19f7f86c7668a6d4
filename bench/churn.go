package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/bench/gen"
)

// lagEvery is how often the trace pass samples the follower's lag.
const lagEvery = 50 * time.Millisecond

// churnScenario is churn-replicated: a leader, a follower and a router.
// Two clients read from the router in a closed loop, and the second
// also issues the mutations of an open-loop schedule, each timed from
// the moment it was due.
//
// The reads are a closed loop because a paced one leaves the two CPUs
// idle between requests, and how fast a halted virtual CPU wakes
// decides every latency: at 1000 paced reads a second, one binary on
// one seed showed a join on the router after 30 ms in one run and 40 ms
// in the next, and after 22 ms whenever the collector's idle workers
// happened to keep the CPUs awake. With the CPUs never idle the same
// numbers measure the code.
type churnScenario struct {
	o   options
	sz  gen.Sizes
	b   *built
	pop *population
	// events is the whole schedule; next is the first event a measured
	// phase has not yet issued, so a second phase carries on from it.
	events []gen.Event
	next   int
	// turn is how far each client is into its draw sequence.
	turn [clients]int
}

func newChurnScenario(o options) *churnScenario {
	// Four joins a second, the warm-up kit and the trace pass's replays.
	sz := gen.Sizes{Peers: 500, Pool: 20000, Batch: 64, Clients: clients, Draws: 1 << 16, Kits: 4*o.seconds + 8 + 1 + replayJoins, ZipfS: 1.1}
	if o.short {
		sz.Peers, sz.Pool, sz.Draws = 200, 2000, 1<<12
	}
	return &churnScenario{o: o, sz: sz}
}

func (s *churnScenario) setUp(seed uint64) error {
	b, err := setUp(s.sz, seed, shape{follower: true, router: true})
	if err != nil {
		return err
	}
	s.b, s.pop = b, &population{in: b.in, gone: map[int]bool{}}
	s.events, s.next, s.turn = b.in.Schedule(time.Duration(s.o.seconds)*time.Second, seed), 0, [clients]int{}
	return nil
}

func (s *churnScenario) close() {
	s.b.topo.close()
	s.b, s.pop = nil, nil
}

// visible is one acknowledged join or leave waiting to show on the
// router.
type visible struct {
	due  time.Time
	seq  uint64
	join bool
}

func (s *churnScenario) measure(d time.Duration, tr *tracer) measurement {
	topo, in := s.b.topo, s.b.in
	type clientOut struct {
		reads samples
		win   *windows
		t     tally
	}
	var (
		outs                                     [clients]clientOut
		joins, leaves, periods, shown, joinShown samples
		mutT, shownT                             tally
		late, lag                                samples
	)
	for c := range outs {
		outs[c].win = newWindows(d, window)
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, start := cpuTime(), time.Now()
	var wg sync.WaitGroup

	// read sends client c's next Zipf-ranked single query to the router.
	read := func(c int) {
		out, i := &outs[c], s.turn[c]
		s.turn[c]++
		ix := in.Zipf[c][i%len(in.Zipf[c])]
		id := tr.begin("client.query", -1, i*clients+c)
		t0 := time.Now()
		code, answer, err := topo.do(http.MethodPost, topo.rts.URL+"/v1/query", in.Pool[ix].Body)
		tr.end(id)
		out.reads = append(out.reads, ms(time.Since(t0)))
		switch {
		case err != nil:
			out.t.fail(err.Error())
		case code != http.StatusOK:
			out.t.fail(fmt.Sprintf("router /v1/query: status %d: %s", code, answer))
		default:
			out.t.ok()
		}
		out.win.add(time.Since(start), 1)
	}

	// The first client only reads.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Since(start) < d {
			read(0)
		}
	}()

	// The observer waits, in this process and on no connection, for
	// each acknowledged join and leave to reach the router.
	watch := make(chan visible, len(s.events)) // the whole schedule fits: the mutator never blocks on it
	wg.Add(1)
	go func() {
		defer wg.Done()
		for w := range watch {
			if topo.rt.WaitSynced(w.seq, settleTimeout) {
				shown = append(shown, ms(time.Since(w.due)))
				if w.join {
					joinShown = append(joinShown, ms(time.Since(w.due)))
				}
				shownT.ok()
			} else {
				shownT.fail(fmt.Sprintf("router at view %d, not at %d, %v after the join was due", topo.rt.Seq(), w.seq, time.Since(w.due)))
			}
		}
	}()

	// The second client issues each join, leave and maintenance period
	// on the leader when it falls due, and reads in between.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(watch)
		p := pacer{start: start}
		var base time.Duration
		if s.next < len(s.events) {
			base = s.events[s.next].At
		}
		for time.Since(start) < d {
			if s.next == len(s.events) || !p.due(s.events[s.next].At-base) {
				read(1)
				continue
			}
			ev := s.events[s.next]
			due := p.issue(ev.At - base)
			var err error
			switch ev.Kind {
			case gen.Join:
				id := tr.begin("client.join", -1, s.next)
				_, err = topo.join(in.Kits[ev.Arg].Body)
				tr.end(id)
				joins = append(joins, ms(time.Since(due)))
				if err == nil {
					s.pop.joined = append(s.pop.joined, ev.Arg)
				}
			case gen.Leave:
				id := tr.begin("client.leave", -1, s.next)
				err = topo.leave(ev.Arg)
				tr.end(id)
				leaves = append(leaves, ms(time.Since(due)))
				if err == nil {
					s.pop.gone[ev.Arg] = true
				}
			case gen.Reform:
				id := tr.begin("client.reform", -1, s.next)
				_, err = topo.reform()
				tr.end(id)
				periods = append(periods, ms(time.Since(due)))
			}
			// The view a mutation must show in is the leader's, read
			// right after the acknowledgement.
			if err == nil && ev.Kind != gen.Reform {
				var st daemonStats
				if st, err = topo.stats(topo.leader.url()); err == nil {
					watch <- visible{due, st.ViewSeq, ev.Kind == gen.Join}
				}
			}
			mutT.check(err == nil, fmt.Sprint(err))
			outs[1].win.add(time.Since(start), 1)
			s.next++
		}
		late = p.late
	}()

	// The trace pass samples how many log entries the follower is
	// behind, through the handlers and on no connection.
	if tr != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				time.Sleep(lagEvery)
				lead, errL := handlerStats(topo.leader.h)
				fol, errF := handlerStats(topo.follower.h)
				if errL == nil && errF == nil {
					lag = append(lag, float64(lead.Replication.LogLast)-float64(fol.Replication.LogLast))
				}
			}
		}()
	}
	wg.Wait()

	cpu := cpuTime() - cpu0
	m := measurement{op: shown, detail: values{}}
	var reads samples
	win := newWindows(d, window)
	for _, out := range outs {
		reads = append(reads, out.reads...)
		m.tally.merge(out.t)
		win.merge(out.win)
	}
	m.tally.merge(mutT)
	m.tally.merge(shownT)
	// Work is every operation completed: reads, and the few mutations.
	m.work = win.perSecond()
	m.cpuMs = ms(cpu) / float64(max(len(reads)+len(joins)+len(leaves)+len(periods), 1))

	dt := m.detail
	dt["client.query_p50_us"] = 1e3 * median(reads)
	tv, tq := tail(reads)
	dt["client.query_tail_us"], dt["client.query_tail_pct"] = 1e3*tv, 100*tq
	dt["client.join_p50_ms"] = median(joins)
	tv, tq = tail(joins)
	dt["client.join_tail_ms"], dt["client.join_tail_pct"] = tv, 100*tq
	dt["client.leave_p50_ms"] = median(leaves)
	dt["client.join_visible_p50_ms"] = median(joinShown)
	dt["client.period_p50_ms"] = median(periods)
	tv, tq = tail(late)
	dt["client.late_tail_us"], dt["client.late_tail_pct"] = 1e3*tv, 100*tq
	if tr != nil {
		dt["service.follower_lag_entries_p50"] = median(lag)
		t0 := time.Now()
		if err := topo.waitReplicas(); err == nil {
			dt["service.follower_drain_ms"] = ms(time.Since(t0))
		}
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		dt["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	}
	return m
}

func (s *churnScenario) check(t *tally) {
	in := s.b.in
	replay := make([]request, replayed)
	for i := range replay {
		ix := in.Zipf[0][i]
		replay[i] = request{"/v1/query", in.Pool[ix].Body, []int32{ix}}
	}
	s.b.checkQuiesce(t, s.pop, replay)
}

func (s *churnScenario) layers(tr *tracer, v values) {
	serveLayers(s.b, tr, v, s.b.in.Zipf[0], nil, s.o.log)
}
