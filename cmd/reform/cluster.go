package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"time"

	"repro/bench/gen"
	"repro/internal/api"
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
// byte-identically, with costs within float tolerance. The joining
// peers are bench/gen's newcomer kits and the queries its pool. Exit
// status is nonzero on any divergence — CI runs this as the cluster
// smoke test.
func runClusterCommand(args []string) {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	peers := fs.Int("peers", 90, "peers to join before the leader is killed")
	seed := fs.Uint64("seed", 1, "traffic seed of the generated newcomers and queries")
	timeout := fs.Duration("timeout", 120*time.Second, "overall deadline")
	fs.Parse(args)
	if *peers < 1 {
		fmt.Fprintln(os.Stderr, "cluster: -peers must be >= 1")
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "reform-cluster ", log.LstdFlags)
	if err := runCluster(logger, *peers, *seed, *timeout); err != nil {
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

func runCluster(logger *log.Logger, peers int, seed uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: 15 * time.Second}
	// Kits for both churn phases, shaped like a population of the same
	// size; the pool is the read traffic and the verification battery.
	in := gen.New(gen.Sizes{Peers: peers, Pool: 50, Kits: peers + peers/3}, seed)

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
			st, err := getStats[api.DaemonStats](client, n.url)
			return err == nil && st.Replication.Synced, nil
		}); err != nil {
			return err
		}
	}

	// Phase 1: churn and queries through all three nodes. Follower
	// control planes answer 307 to the leader; the client replays.
	ids, err := driveChurn(client, nodes, in.Kits[:peers], in.Pool, 0)
	if err != nil {
		return fmt.Errorf("churn: %w", err)
	}
	for i := 0; i < len(ids)/4; i++ {
		url := nodes[i%3].url
		if _, err := httpJSON(client, http.MethodDelete, fmt.Sprintf("%s/v1/peers/%d", url, ids[i]), nil, http.StatusOK); err != nil {
			return fmt.Errorf("leave %d: %w", ids[i], err)
		}
	}
	if err := followersCaughtUp(client, deadline, nodes[0], nodes[1:]); err != nil {
		return err
	}
	logger.Printf("phase 1 done: %d joins, %d leaves replicated to both followers", len(ids), len(ids)/4)

	// Phase 2: start a maintenance period and kill the leader while it
	// is in flight.
	go httpJSON(client, http.MethodPost, nodes[0].url+"/v1/reform", nil, http.StatusOK)
	midPeriod := false
	for time.Now().Before(deadline) {
		st, err := getStats[api.DaemonStats](client, nodes[0].url)
		if err != nil {
			return fmt.Errorf("leader stats: %w", err)
		}
		if st.Maintenance.Active {
			midPeriod = true
			break
		}
		if st.Reforms >= 1 {
			break // the period outran the poll; kill anyway
		}
	}
	nodes[0].kill()
	logger.Printf("leader killed (mid-period: %v)", midPeriod)

	// Phase 3: promote node1; node2 rotates to it and re-syncs.
	body, err := httpJSON(client, http.MethodPost, nodes[1].url+"/v1/promote", []byte(`{"mode":"resume"}`), http.StatusOK)
	if err != nil {
		return fmt.Errorf("promote: %w", err)
	}
	logger.Printf("node1 promoted: %s", bytes.TrimSpace(body))
	if err := waitFor(deadline, "node2 following node1", func() (bool, error) {
		st, err := getStats[api.DaemonStats](client, nodes[2].url)
		return err == nil && st.Replication.Synced && st.Replication.LeaderURL == nodes[1].url, nil
	}); err != nil {
		return err
	}

	// Phase 4: more churn through both survivors, then quiesce.
	survivors := nodes[1:]
	if _, err := driveChurn(client, survivors, in.Kits[peers:], in.Pool, len(ids)); err != nil {
		return fmt.Errorf("post-failover churn: %w", err)
	}
	if err := waitFor(deadline, "node1 quiesced", func() (bool, error) {
		st, err := getStats[api.DaemonStats](client, nodes[1].url)
		return !st.Maintenance.Active && !st.Replication.OpenPeriod, err
	}); err != nil {
		return err
	}
	if err := followersCaughtUp(client, deadline, nodes[1], nodes[2:]); err != nil {
		return err
	}

	// Phase 5: the survivors must agree byte-for-byte.
	return verifySurvivors(client, logger, survivors, in.Pool)
}

// driveChurn joins the kits round-robin through the given nodes,
// interleaving data-plane queries from the pool, and returns the
// assigned peer IDs.
func driveChurn(client *http.Client, nodes []*clusterNode, kits []gen.Kit, pool []gen.Query, idOffset int) ([]int, error) {
	ids := make([]int, 0, len(kits))
	for i, kit := range kits {
		url := nodes[i%len(nodes)].url
		id, err := joinPeer(client, url, kit.Body)
		if err != nil {
			return nil, fmt.Errorf("join %d via %s: %w", i+idOffset, url, err)
		}
		ids = append(ids, id)
		// A read per join, spread across every node's data plane.
		qurl := nodes[(i+1)%len(nodes)].url
		if _, err := httpJSON(client, http.MethodPost, qurl+"/v1/query", pool[(i+idOffset)%len(pool)].Body, http.StatusOK); err != nil {
			return nil, fmt.Errorf("query via %s: %w", qurl, err)
		}
	}
	return ids, nil
}

// followersCaughtUp waits until every follower's applied log position
// matches the leader's.
func followersCaughtUp(client *http.Client, deadline time.Time, leader *clusterNode, followers []*clusterNode) error {
	st, err := getStats[api.DaemonStats](client, leader.url)
	if err != nil {
		return fmt.Errorf("%s stats: %w", leader.name, err)
	}
	for _, f := range followers {
		if err := waitFor(deadline, f.name+" caught up", func() (bool, error) {
			fst, err := getStats[api.DaemonStats](client, f.url)
			return err == nil && fst.Replication.LogLast >= st.Replication.LogLast, nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// verifySurvivors pins the failover contract: identical snapshots,
// identical query answers, costs within float tolerance.
func verifySurvivors(client *http.Client, logger *log.Logger, nodes []*clusterNode, battery []gen.Query) error {
	snaps := make([][]byte, len(nodes))
	stats := make([]api.DaemonStats, len(nodes))
	for i, n := range nodes {
		body, err := httpJSON(client, http.MethodGet, n.url+"/v1/snapshot", nil, http.StatusOK)
		if err != nil {
			return fmt.Errorf("%s snapshot: %w", n.name, err)
		}
		snaps[i] = body
		if stats[i], err = getStats[api.DaemonStats](client, n.url); err != nil {
			return fmt.Errorf("%s stats: %w", n.name, err)
		}
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		return fmt.Errorf("survivor snapshots diverge (%d vs %d bytes)", len(snaps[0]), len(snaps[1]))
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b))) }
	if a, b := stats[0], stats[1]; !near(a.SCost, b.SCost) || !near(a.WCost, b.WCost) {
		return fmt.Errorf("costs diverge: scost %v vs %v, wcost %v vs %v", a.SCost, b.SCost, a.WCost, b.WCost)
	}
	// A fixed query battery must answer byte-identically on both.
	for _, q := range battery {
		var answers [][]byte
		for _, n := range nodes {
			body, err := httpJSON(client, http.MethodPost, n.url+"/v1/query", q.Body, http.StatusOK)
			if err != nil {
				return fmt.Errorf("%s verify query: %w", n.name, err)
			}
			answers = append(answers, body)
		}
		if !bytes.Equal(answers[0], answers[1]) {
			return fmt.Errorf("query %s answered differently: %s vs %s", q.Body, answers[0], answers[1])
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
	logger.Printf("survivors agree: %d live peers over %d slots, identical snapshots, %d/%d identical answers",
		len(snap.Peers), snap.Slots, len(battery), len(battery))
	return nil
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
