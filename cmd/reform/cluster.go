package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/service"
)

// runClusterCommand implements `reform cluster`: a self-contained
// three-node failover exercise. It boots a leader and two followers on
// loopback listeners, drives churn and queries through all three
// (followers redirect control-plane writes to the leader), kills the
// leader while a maintenance period is in flight, promotes a follower
// with POST /v1/promote, re-syncs the remaining follower from the new
// leader, drives more churn, and then verifies the two survivors hold
// byte-identical overlay state (GET /v1/snapshot) and answer queries
// byte-identically, with costs within float tolerance. Exit status is
// nonzero on any divergence — CI runs this as the cluster smoke test.
func runClusterCommand(args []string) {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	peers := fs.Int("peers", 90, "peers to join before the leader is killed")
	queriesPer := fs.Int("queries", 3, "workload queries per joining peer")
	seed := fs.Uint64("seed", 1, "workload seed")
	timeout := fs.Duration("timeout", 120*time.Second, "overall deadline")
	fs.Parse(args)

	logger := log.New(os.Stderr, "reform-cluster ", log.LstdFlags)
	if err := runCluster(logger, *peers, *queriesPer, int64(*seed), *timeout); err != nil {
		logger.Fatalf("FAIL: %v", err)
	}
	fmt.Println("reform-cluster: PASS")
}

// clusterNode is one in-process daemon on a real loopback listener.
type clusterNode struct {
	name string
	url  string
	ln   net.Listener
	srv  *service.Server
	http *http.Server
}

func (n *clusterNode) start(cfg service.Config, logger *log.Logger) {
	cfg.Logf = func(format string, args ...any) {
		logger.Printf(n.name+": "+format, args...)
	}
	n.srv = service.New(cfg)
	n.srv.Start()
	n.http = newHTTPServer("", n.srv.Handler())
	go n.http.Serve(n.ln)
}

// kill simulates a crash: watchers wake, every connection is severed,
// nothing is flushed gracefully.
func (n *clusterNode) kill() {
	n.srv.BeginShutdown()
	n.http.Close()
}

func (n *clusterNode) stop() {
	n.srv.BeginShutdown()
	n.http.Close()
	n.srv.Shutdown()
}

func runCluster(logger *log.Logger, peers, queriesPer int, seed int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: 15 * time.Second}

	// Three loopback listeners first, so every node can know the full
	// member list before any server starts.
	nodes := make([]*clusterNode, 3)
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("listen: %w", err)
		}
		nodes[i] = &clusterNode{
			name: fmt.Sprintf("node%d", i),
			url:  "http://" + ln.Addr().String(),
			ln:   ln,
		}
	}
	// Maintenance periods are triggered explicitly and stretched with a
	// step budget of 1 so the kill lands mid-period.
	base := service.Config{StepBudget: 1} // ReformEvery 0: periods only on demand
	nodes[0].start(base, logger)
	for i := 1; i < 3; i++ {
		cfg := base
		// Every node but itself: after the leader dies, the survivor
		// rotation still reaches whichever follower got promoted.
		for j, m := range nodes {
			if j != i {
				cfg.Join = append(cfg.Join, m.url)
			}
		}
		nodes[i].start(cfg, logger)
	}
	defer func() {
		for _, n := range nodes {
			n.stop()
		}
	}()
	logger.Printf("booted %s (leader), %s, %s (followers)", nodes[0].url, nodes[1].url, nodes[2].url)

	for _, n := range nodes[1:] {
		if err := waitFor(deadline, n.name+" synced", func() (bool, error) {
			return replBool(client, n.url, "synced"), nil
		}); err != nil {
			return err
		}
	}

	// Phase 1: churn and queries through all three nodes. Follower
	// control planes answer 307 to the leader; the client replays.
	rng := rand.New(rand.NewSource(seed))
	ids, err := driveChurn(client, nodes, rng, peers, queriesPer, 0)
	if err != nil {
		return fmt.Errorf("churn: %w", err)
	}
	for i := 0; i < len(ids)/4; i++ {
		url := nodes[i%3].url
		if _, _, err := httpJSON(client, http.MethodDelete, fmt.Sprintf("%s/v1/peers/%d", url, ids[i]), nil); err != nil {
			return fmt.Errorf("leave %d: %w", ids[i], err)
		}
	}
	if err := followersCaughtUp(client, deadline, nodes[0], nodes[1:]); err != nil {
		return err
	}
	logger.Printf("phase 1 done: %d joins, %d leaves replicated to both followers", len(ids), len(ids)/4)

	// Phase 2: start a maintenance period and kill the leader while it
	// is in flight.
	go httpJSON(client, http.MethodPost, nodes[0].url+"/v1/reform", nil)
	midPeriod := false
	for time.Now().Before(deadline) {
		st, err := getStats(client, nodes[0].url)
		if err != nil {
			return fmt.Errorf("leader stats: %w", err)
		}
		if m, _ := st["maintenance"].(map[string]any); m != nil && m["active"] == true {
			midPeriod = true
			break
		}
		if n, _ := st["reforms"].(float64); n >= 1 {
			break // the period outran the poll; kill anyway
		}
	}
	nodes[0].kill()
	logger.Printf("leader killed (mid-period: %v)", midPeriod)

	// Phase 3: promote node1; node2 rotates to it and re-syncs.
	status, body, err := httpJSON(client, http.MethodPost, nodes[1].url+"/v1/promote",
		map[string]any{"mode": "resume"})
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("promote: status %d, err %v, body %s", status, err, body)
	}
	logger.Printf("node1 promoted: %s", bytes.TrimSpace(body))
	if err := waitFor(deadline, "node2 following node1", func() (bool, error) {
		st, err := getStats(client, nodes[2].url)
		if err != nil {
			return false, nil
		}
		repl, _ := st["replication"].(map[string]any)
		return repl != nil && repl["synced"] == true && repl["leader_url"] == nodes[1].url, nil
	}); err != nil {
		return err
	}

	// Phase 4: more churn through both survivors, then quiesce.
	survivors := nodes[1:]
	if _, err := driveChurn(client, survivors, rng, peers/3, queriesPer, len(ids)); err != nil {
		return fmt.Errorf("post-failover churn: %w", err)
	}
	if err := waitFor(deadline, "node1 quiesced", func() (bool, error) {
		st, err := getStats(client, nodes[1].url)
		if err != nil {
			return false, err
		}
		m, _ := st["maintenance"].(map[string]any)
		repl, _ := st["replication"].(map[string]any)
		return m != nil && m["active"] == false && repl != nil && repl["open_period"] == false, nil
	}); err != nil {
		return err
	}
	if err := followersCaughtUp(client, deadline, nodes[1], nodes[2:]); err != nil {
		return err
	}

	// Phase 5: the survivors must agree byte-for-byte.
	return verifySurvivors(client, logger, survivors, seed)
}

// driveChurn joins n peers round-robin through the given nodes,
// interleaving data-plane queries, and returns the assigned peer IDs.
func driveChurn(client *http.Client, nodes []*clusterNode, rng *rand.Rand, n, queriesPer, idOffset int) ([]int, error) {
	ids := make([]int, 0, n)
	for i := 0; i < n; i++ {
		url := nodes[i%len(nodes)].url
		join := map[string]any{
			"items":   [][]string{randTerms(rng, 3), randTerms(rng, 3)},
			"queries": []map[string]any{},
		}
		for q := 0; q < queriesPer; q++ {
			join["queries"] = append(join["queries"].([]map[string]any),
				map[string]any{"terms": randTerms(rng, 2), "count": 1 + rng.Intn(5)})
		}
		status, body, err := httpJSON(client, http.MethodPost, url+"/v1/peers", join)
		if err != nil || status != http.StatusCreated {
			return nil, fmt.Errorf("join %d via %s: status %d, err %v, body %s", i+idOffset, url, status, err, body)
		}
		var resp struct {
			ID int `json:"id"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, fmt.Errorf("join response: %w", err)
		}
		ids = append(ids, resp.ID)
		// A read per join, spread across every node's data plane.
		qurl := nodes[(i+1)%len(nodes)].url
		if status, body, err = httpJSON(client, http.MethodPost, qurl+"/v1/query",
			map[string]any{"terms": randTerms(rng, 2)}); err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("query via %s: status %d, err %v, body %s", qurl, status, err, body)
		}
	}
	return ids, nil
}

// followersCaughtUp waits until every follower's applied log position
// matches the leader's.
func followersCaughtUp(client *http.Client, deadline time.Time, leader *clusterNode, followers []*clusterNode) error {
	st, err := getStats(client, leader.url)
	if err != nil {
		return fmt.Errorf("%s stats: %w", leader.name, err)
	}
	repl, _ := st["replication"].(map[string]any)
	last, _ := repl["log_last"].(float64)
	for _, f := range followers {
		if err := waitFor(deadline, f.name+" caught up", func() (bool, error) {
			st, err := getStats(client, f.url)
			if err != nil {
				return false, nil
			}
			repl, _ := st["replication"].(map[string]any)
			got, _ := repl["log_last"].(float64)
			return got >= last, nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// verifySurvivors pins the failover contract: identical snapshots,
// identical query answers, costs within float tolerance.
func verifySurvivors(client *http.Client, logger *log.Logger, nodes []*clusterNode, seed int64) error {
	snaps := make([][]byte, len(nodes))
	stats := make([]map[string]any, len(nodes))
	for i, n := range nodes {
		status, body, err := httpJSON(client, http.MethodGet, n.url+"/v1/snapshot", nil)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("%s snapshot: status %d, err %v", n.name, status, err)
		}
		snaps[i] = body
		if stats[i], err = getStats(client, n.url); err != nil {
			return fmt.Errorf("%s stats: %w", n.name, err)
		}
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		return fmt.Errorf("survivor snapshots diverge (%d vs %d bytes)", len(snaps[0]), len(snaps[1]))
	}
	for _, key := range []string{"scost", "wcost"} {
		a, _ := stats[0][key].(float64)
		b, _ := stats[1][key].(float64)
		if math.Abs(a-b) > 1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b))) {
			return fmt.Errorf("%s diverges: %v vs %v", key, a, b)
		}
	}
	// A fixed query battery must answer byte-identically on both.
	rng := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < 50; i++ {
		q := map[string]any{"terms": randTerms(rng, 2)}
		var answers [][]byte
		for _, n := range nodes {
			status, body, err := httpJSON(client, http.MethodPost, n.url+"/v1/query", q)
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("%s verify query: status %d, err %v", n.name, status, err)
			}
			answers = append(answers, body)
		}
		if !bytes.Equal(answers[0], answers[1]) {
			return fmt.Errorf("query %v answered differently: %s vs %s", q, answers[0], answers[1])
		}
	}
	var snap struct {
		Slots int `json:"slots"`
		Peers []struct {
			Slot int `json:"slot"`
		} `json:"peers"`
	}
	if err := json.Unmarshal(snaps[0], &snap); err != nil {
		return fmt.Errorf("decode survivor snapshot: %w", err)
	}
	logger.Printf("survivors agree: %d live peers over %d slots, identical snapshots, 50/50 identical answers",
		len(snap.Peers), snap.Slots)
	return nil
}

func randTerms(rng *rand.Rand, n int) []string {
	terms := make([]string, 0, n)
	seen := map[int]bool{}
	for len(terms) < n {
		t := rng.Intn(60)
		if !seen[t] {
			seen[t] = true
			terms = append(terms, fmt.Sprintf("t%02d", t))
		}
	}
	return terms
}

// httpJSON issues one request with an optional JSON body and returns
// the status and response body. Redirects (a follower's control plane
// pointing at the leader) are followed by the client, which replays
// the body.
func httpJSON(client *http.Client, method, url string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(io.LimitReader(resp.Body, 1<<24))
	return resp.StatusCode, out, err
}

func getStats(client *http.Client, url string) (map[string]any, error) {
	status, body, err := httpJSON(client, http.MethodGet, url+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("stats: status %d: %s", status, body)
	}
	var st map[string]any
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, err
	}
	return st, nil
}

func replBool(client *http.Client, url, key string) bool {
	st, err := getStats(client, url)
	if err != nil {
		return false
	}
	repl, _ := st["replication"].(map[string]any)
	return repl != nil && repl[key] == true
}

// waitFor polls cond every 10ms until it holds or deadline passes.
func waitFor(deadline time.Time, what string, cond func() (bool, error)) error {
	for time.Now().Before(deadline) {
		ok, err := cond()
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if ok {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("timed out waiting for %s", what)
}
