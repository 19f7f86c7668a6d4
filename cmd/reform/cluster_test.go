package main

import (
	"log"
	"testing"
	"time"
)

// TestClusterFailoverE2E runs the full three-node failover exercise —
// boot, churn through every node, kill the leader mid-period, promote,
// re-sync, verify byte-identical survivors — in-process so the race
// detector covers the whole leader/follower path.
func TestClusterFailoverE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster e2e in -short mode")
	}
	logger := log.New(testWriter{t}, "", 0)
	if err := runCluster(logger, 45, 1, 90*time.Second); err != nil {
		t.Fatal(err)
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}
