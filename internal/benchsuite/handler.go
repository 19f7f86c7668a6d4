package benchsuite

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/api"
	"repro/internal/replog"
	"repro/internal/router"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/viewwire"
)

// The HTTP handlers themselves, the layer every entry above sits below:
// a request body decoded, answered and encoded by ServeHTTP on the
// daemon's or a router's mux, api.Instrument included. No socket is
// opened; one recorder and one request are reused, so what an entry
// counts is what the handler allocates.

// recorder is a reusable http.ResponseWriter.
type recorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header  { return r.header }
func (r *recorder) WriteHeader(code int) { r.code = code }

func (r *recorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(p)
}

// poster replays POST bodies at one path through a handler.
type poster struct {
	h    http.Handler
	rec  recorder
	req  *http.Request
	rd   bytes.Reader
	body io.ReadCloser
}

func newPoster(h http.Handler, path string) *poster {
	p := &poster{h: h, rec: recorder{header: http.Header{}}}
	p.req = httptest.NewRequest(http.MethodPost, path, nil)
	p.body = io.NopCloser(&p.rd)
	return p
}

// post serves one request and returns the status code. The handler may
// have wrapped the request body (http.MaxBytesReader), so it is set
// again every time.
func (p *poster) post(body []byte) int {
	clear(p.rec.header)
	p.rec.code = 0
	p.rec.body.Reset()
	p.rd.Reset(body)
	p.req.Body = p.body
	p.h.ServeHTTP(&p.rec, p.req)
	return p.rec.code
}

// mustPost is post outside the timed loop: anything but want panics,
// since a body answering an error would time the error path.
func (p *poster) mustPost(body []byte, want int) []byte {
	if code := p.post(body); code != want {
		panic(fmt.Sprintf("benchsuite: POST %s: %d %s", p.req.URL.Path, code, p.rec.body.Bytes()))
	}
	return p.rec.body.Bytes()
}

// daemon is a leader restored from the serve fixture's engine, the way a
// restarted daemon loads its snapshot: same slots, clusters, content and
// workload. It is built when the first entry that needs it is.
func daemon(f *Fixtures) *service.Server {
	if f.daemon != nil {
		return f.daemon
	}
	eng, vocab := f.serve.eng, f.serve.sys.Gen.Vocab()
	snap := service.Snapshot{Version: 1, Alpha: f.Large.Alpha, Epsilon: f.Large.Epsilon, Slots: eng.NumSlots()}
	wl := eng.Workload()
	for pid := 0; pid < eng.NumSlots(); pid++ {
		if !eng.IsLive(pid) {
			continue
		}
		ps := service.PeerSnapshot{Slot: pid, Cluster: int(eng.Config().ClusterOf(pid))}
		for _, it := range eng.Peers()[pid].Items() {
			ps.Items = append(ps.Items, it.Names(vocab))
		}
		for _, en := range wl.Peer(pid) {
			ps.Queries = append(ps.Queries, replog.QueryCount{Terms: wl.Query(en.Q).Names(vocab), Count: en.Count})
		}
		snap.Peers = append(snap.Peers, ps)
	}
	srv, err := service.NewFromSnapshot(service.Config{}, &snap)
	if err != nil {
		panic("benchsuite: daemon restore: " + err.Error())
	}
	f.daemon = srv
	return srv
}

// queryBodies renders the serve fixture's replay queries as POST
// /v1/query bodies.
func queryBodies(f *Fixtures) [][]byte {
	vocab := f.serve.sys.Gen.Vocab()
	bodies := make([][]byte, len(f.serve.queries))
	for i, q := range f.serve.queries {
		bodies[i] = mustJSON(api.QueryRequest{Terms: q.Names(vocab)})
	}
	return bodies
}

// batchBodies renders n POST /v1/query/batch bodies of 64 queries each,
// drawn Zipf(1.1) from the replay queries, so a batch repeats its head.
func batchBodies(f *Fixtures, n int) [][]byte {
	vocab := f.serve.sys.Gen.Vocab()
	ranks, rng := stats.NewZipf(len(f.serve.queries), 1.1), stats.NewRNG(11)
	bodies := make([][]byte, n)
	for i := range bodies {
		req := api.BatchRequest{Queries: make([]api.QueryRequest, 64)}
		for j := range req.Queries {
			req.Queries[j].Terms = f.serve.queries[ranks.Sample(rng)].Names(vocab)
		}
		bodies[i] = mustJSON(req)
	}
	return bodies
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic("benchsuite: " + err.Error())
	}
	return b
}

// replay times bodies posted round-robin through h at path, after one
// untimed pass that must answer 200 throughout (and warms the route
// cache).
func replay(h http.Handler, path string, bodies [][]byte) func(b *testing.B) {
	p := newPoster(h, path)
	return func(b *testing.B) {
		for _, body := range bodies {
			p.mustPost(body, http.StatusOK)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.post(bodies[i%len(bodies)])
		}
	}
}

// handlerQuery is one POST /v1/query on the daemon.
func handlerQuery(f *Fixtures) func(b *testing.B) {
	return replay(daemon(f).Handler(), "/v1/query", queryBodies(f))
}

// handlerQueryBatch is one POST /v1/query/batch of 64 Zipf-drawn
// queries on the daemon.
func handlerQueryBatch(f *Fixtures) func(b *testing.B) {
	return replay(daemon(f).Handler(), "/v1/query/batch", batchBodies(f, 16))
}

// routerHandlerQuery is one POST /v1/query on a router replica
// synchronized from one full wire record, its route cache at the
// default size.
func routerHandlerQuery(f *Fixtures) func(b *testing.B) {
	s := f.serve
	rt := router.New(router.Config{Upstream: "unused"})
	rec, err := viewwire.Decode(viewwire.AppendFull(nil, 1, s.sys.Gen.Vocab().Names(), s.view.Export()))
	if err == nil {
		err = rt.ApplyRecord(rec)
	}
	if err != nil {
		panic("benchsuite: RouterHandlerQuery sync: " + err.Error())
	}
	return replay(rt.Handler(), "/v1/query", queryBodies(f))
}

// handlerJoin is one POST /v1/peers on the daemon: decode, AddPeer,
// log, publish, encode. The DELETE that restores the population for the
// next iteration runs with the timer stopped, so the daemon is left as
// it was found.
func handlerJoin(f *Fixtures) func(b *testing.B) {
	srv := daemon(f)
	h := srv.Handler()
	vocab := f.serve.sys.Gen.Vocab()
	pr, queries, counts := newcomer(f.serve.sys, 9)
	var body struct {
		Items   [][]string          `json:"items"`
		Queries []replog.QueryCount `json:"queries"`
	}
	for _, it := range pr.Items() {
		body.Items = append(body.Items, it.Names(vocab))
	}
	for i, q := range queries {
		body.Queries = append(body.Queries, replog.QueryCount{Terms: q.Names(vocab), Count: counts[i]})
	}
	join := mustJSON(body)
	p := newPoster(h, "/v1/peers")
	del := httptest.NewRequest(http.MethodDelete, "/v1/peers/0", nil)
	leave := func(answer []byte) {
		var joined struct {
			ID int `json:"id"`
		}
		if err := json.Unmarshal(answer, &joined); err != nil {
			panic("benchsuite: join answer: " + err.Error())
		}
		del.URL.Path = fmt.Sprintf("/v1/peers/%d", joined.ID)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, del)
		if rec.Code != http.StatusOK {
			panic(fmt.Sprintf("benchsuite: leave: %d %s", rec.Code, rec.Body.Bytes()))
		}
	}
	return func(b *testing.B) {
		leave(p.mustPost(join, http.StatusCreated)) // warm indexes and capacities
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.post(join)
			b.StopTimer()
			leave(p.rec.body.Bytes())
			b.StartTimer()
		}
	}
}
