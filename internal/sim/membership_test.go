package sim

import (
	"testing"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/peer"
)

// vacate retires slot id the way a Leave does before reform.System
// hands its population to New: no peer, no cluster, no workload.
func vacate(sys *testSystem, cfg *cluster.Config, id int) []*peer.Peer {
	peers := append([]*peer.Peer(nil), sys.peers...)
	peers[id] = nil
	cfg.Unplace(id)
	sys.wl.ClearPeer(id)
	return peers
}

// checkEstimates holds every live actor's local cost estimate, for every
// non-empty cluster, to an exact engine over the same population.
func checkEstimates(t *testing.T, s *Sim, sys *testSystem, peers []*peer.Peer) {
	t.Helper()
	eng := core.New(peers, sys.wl, s.Config().Clone(), sys.theta, 1)
	for pid, pr := range peers {
		if pr == nil {
			continue
		}
		for _, c := range s.Config().NonEmpty() {
			got, want := s.EstimatedPeerCost(pid, c), eng.PeerCost(pid, c)
			if !within(got, want, 1e-9) {
				t.Fatalf("peer %d cluster %d: estimated %g exact %g", pid, c, got, want)
			}
		}
	}
}

// TestNewOverVacatedSlots pins that sim.New accepts a population with
// nil (vacated) slots — the shape reform.System.ActorSim hands it
// after a Leave — and spawns, counts and asks only live actors.
func TestNewOverVacatedSlots(t *testing.T) {
	sys, cfg := smallSystem(t)
	peers := vacate(sys, cfg, 7)

	s := New(peers, sys.wl, cfg, Options{Alpha: 1, Theta: sys.theta, Epsilon: sys.epsilon, MaxRounds: 20})
	if s.nodes[7] != nil || s.Config().Live() != sys.n-1 {
		t.Fatalf("slot 7 has an actor (%v) or live is %d, want %d", s.nodes[7] != nil, s.Config().Live(), sys.n-1)
	}
	s.QueryPhase()
	checkEstimates(t, s, sys, peers)
	if rpt := s.RunPeriod(); rpt.Rounds == 0 {
		t.Fatal("no rounds executed over vacated-slot population")
	}
}

// TestCompactionBetweenPeriods pins the actor simulation's side of
// workload compaction: the sim keys no durable state by QID — node
// demand lists share the workload's in-place-remapped entry slices,
// and the per-cluster recall estimates are rebuilt every query phase —
// so compacting the shared workload between periods changes nothing.
// A departed slot's never-seen-again queries strand QIDs below a live
// one; after Workload.Compact the surviving actors' estimates must
// still match an exact engine over the compacted population, and
// reformulation must still converge.
func TestCompactionBetweenPeriods(t *testing.T) {
	sys, cfg := smallSystem(t)
	for i := 0; i < 6; i++ {
		sys.wl.Add(7, attr.NewSet(attr.ID(500+i)), 2)
	}
	// Interned after the six, so compaction has to move it down.
	sys.wl.Add(8, sys.peers[8].Items()[0], 3)
	peers := vacate(sys, cfg, 7)
	s := New(peers, sys.wl, cfg, Options{Alpha: 1, Theta: sys.theta, Epsilon: sys.epsilon, MaxRounds: 50})
	s.RunPeriod()

	before := sys.wl.NumQueries()
	if _, removed := sys.wl.Compact(0); removed < 6 {
		t.Fatalf("compaction removed %d stranded queries, want at least 6 (of %d)", removed, before)
	}

	s.QueryPhase()
	checkEstimates(t, s, sys, peers)
	if rpt := s.RunPeriod(); !rpt.Converged {
		t.Fatalf("period after compaction did not converge: %+v", rpt)
	}
}
