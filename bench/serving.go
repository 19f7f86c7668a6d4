package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/bench/gen"
	"repro/internal/api"
	"repro/internal/attr"
)

// window is the width of one throughput window. Throughput is the
// median window: back-to-back closed-loop runs on this class of
// machine ranged from 7.3k to 18.1k req/s by their mean while the
// median latency stayed put, because a stall of a second or two moves
// a mean and leaves a median of windows alone.
const window = 500 * time.Millisecond

// replayJoins is how many newcomer kits the trace pass replays through
// the join path.
const replayJoins = 16

// population tracks what the generated population looks like after the
// churn applied so far, so totals can be counted by brute force.
type population struct {
	in *gen.Inputs
	// gone marks seed peers that left; joined lists the kits admitted.
	gone   map[int]bool
	joined []int
}

// total counts the results of q over every live peer's items, one
// subset test per item: no index, no view, no cache.
func (p *population) total(q attr.Set) int {
	n := 0
	count := func(items []attr.Set) {
		for _, it := range items {
			if q.SubsetOf(it) {
				n++
			}
		}
	}
	for pid, pr := range p.in.System.Peers {
		if !p.gone[pid] {
			count(pr.Items())
		}
	}
	for _, k := range p.joined {
		count(p.in.Kits[k].Items)
	}
	return n
}

func (p *population) live() int {
	return len(p.in.System.Peers) - len(p.gone) + len(p.joined)
}

// request is one data-plane request body with the queries it carries.
type request struct {
	path    string
	body    []byte
	queries []int32 // pool indices, one per answer expected
}

// totals parses a data-plane answer into one total per query.
func totals(path string, body []byte) ([]int, error) {
	if path == "/v1/query" {
		var r api.QueryResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		return []int{r.Total}, nil
	}
	var r api.BatchResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	out := make([]int, len(r.Results))
	for i, q := range r.Results {
		out[i] = q.Total
	}
	return out, nil
}

// verify compares an answer's totals with the brute-force count.
func (p *population) verify(rq request, answer []byte) error {
	got, err := totals(rq.path, answer)
	if err != nil {
		return fmt.Errorf("%s answer: %w", rq.path, err)
	}
	if len(got) != len(rq.queries) {
		return fmt.Errorf("%s answered %d queries, sent %d", rq.path, len(got), len(rq.queries))
	}
	for i, ix := range rq.queries {
		if want := p.total(p.in.Pool[ix].Set); got[i] != want {
			return fmt.Errorf("query %v: total %d, brute force counts %d", p.in.Pool[ix].Terms, got[i], want)
		}
	}
	return nil
}

// checkQuiesce holds the checks every serving workload ends with, made
// once the replicas have caught up: the replayed bodies answer
// byte-identically on every node and their totals equal the
// brute-force count, the leader's peers gauge equals the population
// the churn should have left, and the router never failed a sync.
func (b *built) checkQuiesce(t *tally, pop *population, replay []request) {
	if err := b.topo.waitReplicas(); err != nil {
		t.fail(err.Error())
		return
	}
	nodes := b.topo.nodes()
	names := make([]string, 0, len(nodes))
	for name := range nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, rq := range replay {
		var first []byte
		for _, name := range names {
			out, err := b.topo.expect(http.StatusOK, http.MethodPost, nodes[name]+rq.path, rq.body)
			switch {
			case err != nil:
				t.fail(err.Error())
			case first == nil:
				first = out
				err := pop.verify(rq, out)
				t.check(err == nil, fmt.Sprint(err))
			default:
				t.check(bytes.Equal(first, out), fmt.Sprintf("%s answers %s differently from %s", name, rq.body, names[0]))
			}
		}
	}
	st, err := b.topo.stats(b.topo.leader.url())
	if err != nil {
		t.fail(err.Error())
		return
	}
	t.check(st.Peers == pop.live(), fmt.Sprintf("leader counts %d peers, the schedule leaves %d", st.Peers, pop.live()))
	if b.topo.rt != nil {
		t.check(b.topo.rt.SyncErrors() == 0, fmt.Sprintf("router failed %d syncs", b.topo.rt.SyncErrors()))
	}
}

// replayed is how many request bodies the quiesce check replays.
const replayed = 256

// queryScenario is query-single and query-batch-zipf: a static,
// converged population under a closed loop of `clients` clients.
type queryScenario struct {
	o     options
	batch bool
	sz    gen.Sizes
	b     *built
	pop   *population
	// turn is how far each client is into its draw sequence, so that a
	// second measured phase carries on where the first stopped.
	turn [clients]int
}

func newQueryScenario(o options, batch bool) *queryScenario {
	sz := gen.Sizes{Peers: 2000, Pool: 20000, Batch: 64, Clients: clients, Draws: 1 << 16, Kits: 1 + replayJoins, ZipfS: 1.1}
	if o.short {
		sz.Peers, sz.Pool, sz.Draws = 200, 2000, 1<<12
	}
	return &queryScenario{o: o, batch: batch, sz: sz}
}

func (s *queryScenario) setUp(seed uint64) error {
	b, err := setUp(s.sz, seed, shape{router: s.batch})
	if err != nil {
		return err
	}
	s.b, s.pop, s.turn = b, &population{in: b.in}, [clients]int{}
	return nil
}

func (s *queryScenario) close() {
	s.b.topo.close()
	s.b, s.pop = nil, nil
}

// request returns client c's i-th request and the base URL it goes to:
// singles all go to the leader, batches alternate between the router
// and the leader.
func (s *queryScenario) request(c, i int) (string, request) {
	in := s.b.in
	if !s.batch {
		ix := in.Uniform[c][i%len(in.Uniform[c])]
		return s.b.topo.leader.url(), request{"/v1/query", in.Pool[ix].Body, []int32{ix}}
	}
	n := i % len(in.BatchBodies[c])
	base := s.b.topo.leader.url()
	if i%2 == 0 {
		base = s.b.topo.rts.URL
	}
	return base, request{"/v1/query/batch", in.BatchBodies[c][n], in.Zipf[c][n*s.sz.Batch : (n+1)*s.sz.Batch]}
}

// verifyEvery is how often a client checks an answer's totals against
// the brute-force count while measuring; the status is checked always.
const verifyEvery = 512

func (s *queryScenario) measure(d time.Duration, tr *tracer) measurement {
	type clientOut struct {
		lat samples
		win *windows
		t   tally
	}
	outs := make([]clientOut, clients)
	span := "client.query"
	if s.batch {
		span = "client.batch"
	}
	cpu0, start := cpuTime(), time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			out.win = newWindows(d, window)
			for i := s.turn[c]; ; i++ {
				t0 := time.Now()
				if t0.Sub(start) >= d {
					s.turn[c] = i
					return
				}
				base, rq := s.request(c, i)
				id := tr.begin(span, -1, i*clients+c)
				code, answer, err := s.b.topo.do(http.MethodPost, base+rq.path, rq.body)
				tr.end(id)
				out.lat = append(out.lat, ms(time.Since(t0)))
				switch {
				case err != nil:
					out.t.fail(err.Error())
				case code != http.StatusOK:
					out.t.fail(fmt.Sprintf("%s: status %d: %s", rq.path, code, answer))
				case i%verifyEvery == 0:
					err := s.pop.verify(rq, answer)
					out.t.check(err == nil, fmt.Sprint(err))
				default:
					out.t.ok()
				}
				out.win.add(time.Since(start), len(rq.queries))
			}
		}(c)
	}
	wg.Wait()
	cpu := cpuTime() - cpu0
	m := measurement{detail: values{}}
	win := newWindows(d, window)
	for _, out := range outs {
		m.op = append(m.op, out.lat...)
		m.tally.merge(out.t)
		win.merge(out.win)
	}
	m.work = win.perSecond()
	m.cpuMs = ms(cpu) / float64(max(len(m.op), 1))
	tailV, tailQ := tail(m.op)
	m.detail["client.query_p50_us"] = 1e3 * median(m.op)
	m.detail["client.query_tail_us"], m.detail["client.query_tail_pct"] = 1e3*tailV, 100*tailQ
	return m
}

func (s *queryScenario) check(t *tally) {
	n := replayed
	if s.batch {
		n /= 16 // 16 batches carry 1024 queries
	}
	replay := make([]request, n)
	for i := range replay {
		_, replay[i] = s.request(0, i)
	}
	s.b.checkQuiesce(t, s.pop, replay)
}

func (s *queryScenario) layers(tr *tracer, v values) {
	draw, batches := s.b.in.Uniform[0], [][]byte(nil)
	if s.batch {
		draw, batches = s.b.in.Zipf[0], s.b.in.BatchBodies[0]
	}
	serveLayers(s.b, tr, v, draw, batches, s.o.log)
}
