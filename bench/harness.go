package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/bench/gen"
	"repro/internal/router"
	"repro/internal/service"
)

// clientTimeout is the per-request limit; a request that exceeds it
// counts as failed.
const clientTimeout = 5 * time.Second

// settleTimeout is how long replicas may take to catch up. It is not
// a request: a stall that long shows as latency, and past it as a
// failure.
const settleTimeout = 30 * time.Second

// clients is the number of load-generating goroutines, and so of
// client connections: one per CPU of the 2-vCPU class of machine the
// benchmark is sized for, which the servers share.
const clients = 2

// maxRounds bounds one maintenance period, on the daemon and on the
// oracle twin alike (the paper's 300 is too few for 3000 singletons).
const maxRounds = 600

// maxPeriods is how many maintenance periods convergence may take.
const maxPeriods = 8

// node is one daemon behind a loopback listener.
type node struct {
	srv *service.Server
	// h is the daemon's handler, kept so the trace pass can call it
	// with no socket in between.
	h  http.Handler
	ts *httptest.Server
}

func startNode(srv *service.Server) *node {
	srv.Start()
	h := srv.Handler()
	return &node{srv: srv, h: h, ts: httptest.NewServer(h)}
}

func (n *node) url() string { return n.ts.URL }

// close releases parked long-polls first, then the listener, then
// waits for the daemon's loops.
func (n *node) close() {
	n.srv.BeginShutdown()
	n.ts.Close()
	n.srv.Shutdown()
}

// topology is the system under test: a leader, and where the workload
// asks for them a follower and a router, all in this process and all
// reached over loopback sockets.
type topology struct {
	leader   *node
	follower *node
	rt       *router.Router
	rth      http.Handler
	rts      *httptest.Server
	client   *http.Client
}

func (t *topology) close() {
	if t.rt != nil {
		t.rt.Shutdown()
		t.rts.Close()
	}
	if t.follower != nil {
		t.follower.close()
	}
	t.leader.close()
	t.client.CloseIdleConnections()
}

// nodes lists the base URL of every node that serves the data plane.
func (t *topology) nodes() map[string]string {
	out := map[string]string{"leader": t.leader.url()}
	if t.follower != nil {
		out["follower"] = t.follower.url()
	}
	if t.rt != nil {
		out["router"] = t.rts.URL
	}
	return out
}

// do issues one request and returns the status and body; any transport
// error (the client timeout included) comes back as err.
func (t *topology) do(method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// expect issues a request that must answer with the given status.
func (t *topology) expect(want int, method, url string, body []byte) ([]byte, error) {
	code, out, err := t.do(method, url, body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if code != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, url, code, want, out)
	}
	return out, nil
}

// daemonStats is the part of a daemon's GET /v1/stats the harness reads.
type daemonStats struct {
	Peers          int     `json:"peers"`
	Clusters       int     `json:"clusters"`
	SCost          float64 `json:"scost"`
	ViewSeq        uint64  `json:"view_seq"`
	PublishedViews float64 `json:"published_views"`
	WatchFull      float64 `json:"watch_full"`
	WatchDelta     float64 `json:"watch_delta"`
	Rounds         float64 `json:"rounds"`
	Moves          float64 `json:"moves"`
	RouteCache     struct {
		Hits      float64 `json:"hits"`
		Misses    float64 `json:"misses"`
		Evictions float64 `json:"evictions"`
	} `json:"route_cache"`
	Maintenance struct {
		Scanned      float64 `json:"scanned"`
		SkippedClean float64 `json:"skipped_clean"`
	} `json:"maintenance"`
	Replication struct {
		LogLast        uint64 `json:"log_last"`
		EntriesLogged  int64  `json:"entries_logged"`
		EntriesApplied int64  `json:"entries_applied"`
		Synced         bool   `json:"synced"`
	} `json:"replication"`
	MutationLock struct {
		MeanUs float64 `json:"mean_us"`
	} `json:"mutation_lock"`
}

func (t *topology) stats(base string) (daemonStats, error) {
	var st daemonStats
	out, err := t.expect(http.StatusOK, http.MethodGet, base+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(out, &st)
}

// handlerStats reads a node's GET /v1/stats through its handler, on no
// connection. A router answers the same shape with fewer fields; its
// route cache's counters are what no accessor gives.
func handlerStats(h http.Handler) (daemonStats, error) {
	var st daemonStats
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	return st, json.Unmarshal(rec.Body.Bytes(), &st)
}

// reformResponse is the POST /v1/reform answer.
type reformResponse struct {
	Rounds    int     `json:"rounds"`
	Moves     int     `json:"moves"`
	Converged bool    `json:"converged"`
	SCost     float64 `json:"scost"`
	Clusters  int     `json:"clusters"`
}

func (t *topology) reform() (reformResponse, error) {
	var rr reformResponse
	out, err := t.expect(http.StatusOK, http.MethodPost, t.leader.url()+"/v1/reform", nil)
	if err != nil {
		return rr, err
	}
	return rr, json.Unmarshal(out, &rr)
}

// join admits one newcomer and returns its peer ID.
func (t *topology) join(body []byte) (int, error) {
	out, err := t.expect(http.StatusCreated, http.MethodPost, t.leader.url()+"/v1/peers", body)
	if err != nil {
		return 0, err
	}
	var jr struct {
		ID int `json:"id"`
	}
	return jr.ID, json.Unmarshal(out, &jr)
}

func (t *topology) leave(id int) error {
	_, err := t.expect(http.StatusOK, http.MethodDelete, fmt.Sprintf("%s/v1/peers/%d", t.leader.url(), id), nil)
	return err
}

// converge runs maintenance periods until one reports convergence and
// returns the totals over all of them.
func (t *topology) converge() (total reformResponse, err error) {
	for i := 0; i < maxPeriods; i++ {
		rr, err := t.reform()
		if err != nil {
			return total, err
		}
		total.Rounds += rr.Rounds
		total.Moves += rr.Moves
		total.SCost, total.Clusters, total.Converged = rr.SCost, rr.Clusters, rr.Converged
		if rr.Converged {
			return total, nil
		}
	}
	return total, fmt.Errorf("maintenance did not converge in %d periods (%d rounds)", maxPeriods, total.Rounds)
}

// waitReplicas blocks until the follower has applied the leader's whole
// log and the router serves the leader's latest view.
func (t *topology) waitReplicas() error {
	lead, err := t.stats(t.leader.url())
	if err != nil {
		return err
	}
	if t.follower != nil {
		deadline := time.Now().Add(settleTimeout)
		for {
			st, err := t.stats(t.follower.url())
			if err != nil {
				return err
			}
			if st.Replication.Synced && st.Replication.LogLast >= lead.Replication.LogLast {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("follower stuck at log %d, leader at %d", st.Replication.LogLast, lead.Replication.LogLast)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if t.rt != nil && !t.rt.WaitSynced(lead.ViewSeq, settleTimeout) {
		return fmt.Errorf("router stuck at view %d, leader at %d", t.rt.Seq(), lead.ViewSeq)
	}
	return nil
}

// restore builds a leader from the generated snapshot document, the
// way a restarted daemon loads its snapshot file.
func restore(snap *service.Snapshot) (*service.Server, error) {
	return service.NewFromSnapshot(service.Config{MaxRounds: maxRounds}, snap)
}

func parseSnapshot(doc []byte) (*service.Snapshot, error) {
	var snap service.Snapshot
	if err := json.Unmarshal(doc, &snap); err != nil {
		return nil, fmt.Errorf("snapshot document: %w", err)
	}
	return &snap, nil
}

// shape says which replicas a serving workload's topology has.
type shape struct {
	follower, router bool
}

// built is one finished set-up of a serving workload.
type built struct {
	in   *gen.Inputs
	topo *topology
	// converge is what bringing the restored singletons to quiescence
	// took.
	converge reformResponse
	// firstJoinMs is the warm-up join: the first AddPeer after a
	// restore builds the engine's membership indexes.
	firstJoinMs float64
	// peers is the population measurement starts from.
	peers int
}

// setUp generates the inputs of a seed and brings the system to the
// state measurement starts from: restored, converged, replicas caught
// up, and one join and leave already absorbed.
func setUp(sz gen.Sizes, seed uint64, sh shape) (*built, error) {
	b := &built{in: gen.New(sz, seed), peers: sz.Peers}
	snap, err := parseSnapshot(b.in.Snapshot)
	if err != nil {
		return nil, err
	}
	srv, err := restore(snap)
	if err != nil {
		return nil, err
	}
	t := &topology{
		leader: startNode(srv),
		client: &http.Client{
			Timeout:   clientTimeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: clients},
		},
	}
	b.topo = t
	fail := func(err error) (*built, error) {
		t.close()
		return nil, err
	}
	if b.converge, err = t.converge(); err != nil {
		return fail(err)
	}
	if sh.follower {
		t.follower = startNode(service.New(service.Config{MaxRounds: maxRounds, Join: []string{t.leader.url()}}))
	}
	if sh.router {
		t.rt = router.New(router.Config{Upstream: t.leader.url(), RetryAfter: 50 * time.Millisecond})
		t.rt.Start()
		t.rth = t.rt.Handler()
		t.rts = httptest.NewServer(t.rth)
	}
	if err := t.waitReplicas(); err != nil {
		return fail(err)
	}
	tj := time.Now()
	id, err := t.join(b.in.Kits[len(b.in.Kits)-1].Body)
	if err != nil {
		return fail(err)
	}
	b.firstJoinMs = ms(time.Since(tj))
	if err := t.leave(id); err != nil {
		return fail(err)
	}
	if err := t.waitReplicas(); err != nil {
		return fail(err)
	}
	return b, nil
}
