package core

import (
	"math"
	"testing"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/peer"
	"repro/internal/stats"
	"repro/internal/workload"
)

// membershipTolerance bounds the drift the incremental join/leave
// updates may accumulate against a from-scratch Rebuild.
const membershipTolerance = 1e-9

// checkAgainstRebuild compares the incrementally maintained engine
// against a fresh engine built over clones of the same population: the
// costs, and every live peer's cost and contribution in every non-empty
// cluster, summed from each engine's rows by denseCosts (through
// PeerCost and Contribution in the peer's own cluster).
func checkAgainstRebuild(t testing.TB, e *Engine, step string) *Engine {
	t.Helper()
	if e.Stale() {
		t.Fatalf("%s: engine stale after its own mutation", step)
	}
	if err := e.Config().Validate(); err != nil {
		t.Fatalf("%s: config invalid: %v", step, err)
	}
	if err := e.Workload().Validate(); err != nil {
		t.Fatalf("%s: workload invalid: %v", step, err)
	}
	peersCopy := append([]*peer.Peer(nil), e.Peers()...)
	fresh := New(peersCopy, e.Workload(), e.Config().Clone(), e.Theta(), e.Alpha())

	close := func(a, b float64) bool {
		return math.Abs(a-b) <= membershipTolerance
	}
	if !close(e.SCost(), fresh.SCost()) {
		t.Fatalf("%s: SCost %g want %g (Δ=%g)", step, e.SCost(), fresh.SCost(), e.SCost()-fresh.SCost())
	}
	if !close(e.WCost(), fresh.WCost()) {
		t.Fatalf("%s: WCost %g want %g", step, e.WCost(), fresh.WCost())
	}
	if e.NumPeers() != fresh.NumPeers() {
		t.Fatalf("%s: live %d want %d", step, e.NumPeers(), fresh.NumPeers())
	}
	nonEmpty := e.Config().NonEmpty()
	for p := 0; p < e.NumSlots(); p++ {
		if !e.IsLive(p) {
			continue
		}
		if !close(e.CostAlone(p), fresh.CostAlone(p)) {
			t.Fatalf("%s: CostAlone(%d) %g want %g", step, p, e.CostAlone(p), fresh.CostAlone(p))
		}
		cost, contrib := denseCosts(e, p)
		wantCost, wantContrib := denseCosts(fresh, p)
		cur := e.Config().ClusterOf(p)
		cost[cur], contrib[cur] = e.PeerCost(p, cur), e.Contribution(p, cur)
		for _, c := range nonEmpty {
			if !close(cost[c], wantCost[c]) || !close(contrib[c], wantContrib[c]) {
				t.Fatalf("%s: peer %d in cluster %d costs %g and contributes %g, want %g and %g",
					step, p, c, cost[c], contrib[c], wantCost[c], wantContrib[c])
			}
		}
	}
	return fresh
}

// TestAddRemoveMatchesRebuild runs the op driver from singletons and
// pins the incremental state to a fresh Rebuild after every op: joins
// into existing clusters and singletons, departures, interior moves.
func TestAddRemoveMatchesRebuild(t *testing.T) {
	t.Parallel()
	d := newDriver(t, fixture{n: 10, alpha: 1, seed: 101}, noClone)
	d.runSeeded(202, 120)
	d.finish()
}

// TestAddPeerIntoEmptySystem grows a system from zero peers purely
// through AddPeer, which is how the serve daemon bootstraps.
func TestAddPeerIntoEmptySystem(t *testing.T) {
	e := New(nil, workload.New(0), cluster.FromAssignment(nil), cluster.LinearTheta(), 1)
	if e.SCost() != 0 || e.NumPeers() != 0 {
		t.Fatalf("empty system SCost=%g live=%d", e.SCost(), e.NumPeers())
	}
	rng := stats.NewRNG(7)
	for i := 0; i < 8; i++ {
		pr, qs, cs := newJoiner(rng)
		e.AddPeer(pr, qs, cs, cluster.None)
		checkAgainstRebuild(t, e, "bootstrap")
	}
	for e.NumPeers() > 0 {
		for p := 0; p < e.NumSlots(); p++ {
			if e.IsLive(p) {
				e.RemovePeer(p)
				break
			}
		}
		checkAgainstRebuild(t, e, "drain")
	}
}

// TestAddRemoveSlotReuse pins the slot discipline: a departed slot is
// reused by the next joiner and IDs stay dense.
func TestAddRemoveSlotReuse(t *testing.T) {
	e := newTestEngine(t, 8, 10, 303, nil)
	e.RemovePeer(3)
	if e.IsLive(3) || e.NumPeers() != 7 || e.NumSlots() != 8 {
		t.Fatalf("after remove: live(3)=%v peers=%d slots=%d", e.IsLive(3), e.NumPeers(), e.NumSlots())
	}
	pr, qs, cs := newJoiner(stats.NewRNG(9))
	if pid := e.AddPeer(pr, qs, cs, cluster.None); pid != 3 {
		t.Fatalf("joiner got slot %d, want reused slot 3", pid)
	}
	pr2, qs2, cs2 := newJoiner(stats.NewRNG(10))
	if pid := e.AddPeer(pr2, qs2, cs2, cluster.None); pid != 8 {
		t.Fatalf("joiner got slot %d, want fresh slot 8", pid)
	}
	if e.NumSlots() != 9 || e.Config().Cmax() != 9 {
		t.Fatalf("slots=%d cmax=%d want 9/9", e.NumSlots(), e.Config().Cmax())
	}
	checkAgainstRebuild(t, e, "slot-reuse")
}

// TestAddRemoveAllocationFree pins the steady-state promise: once
// capacities are warm, an add/remove churn cycle allocates nothing.
func TestAddRemoveAllocationFree(t *testing.T) {
	e := newTestEngine(t, 16, 10, 404, nil)
	pr := peer.New(-1)
	pr.SetItems([]attr.Set{attr.NewSet(1, 4), attr.NewSet(2, 7)})
	queries := []attr.Set{attr.NewSet(3), attr.NewSet(5)}
	counts := []int{2, 3}
	// Warm: build the indexes, grow every capacity once.
	pid := e.AddPeer(pr, queries, counts, cluster.None)
	e.RemovePeer(pid)
	pid = e.AddPeer(pr, queries, counts, cluster.None)
	e.RemovePeer(pid)
	if avg := testing.AllocsPerRun(100, func() {
		id := e.AddPeer(pr, queries, counts, cluster.None)
		e.RemovePeer(id)
	}); avg != 0 {
		t.Errorf("AddPeer+RemovePeer allocates %v per cycle, want 0", avg)
	}
}

// TestStaleDetectsMembershipChanges pins the hardened staleness rule:
// an engine must flag configurations whose membership was mutated
// behind its back, while its own mutations keep it fresh.
func TestStaleDetectsMembershipChanges(t *testing.T) {
	e := newTestEngine(t, 6, 8, 505, nil)
	if e.Stale() {
		t.Fatal("fresh engine reports stale")
	}
	e.Move(0, e.Config().ClusterOf(1))
	if e.Stale() {
		t.Fatal("stale after engine-driven Move")
	}
	pr, qs, cs := newJoiner(stats.NewRNG(1))
	pid := e.AddPeer(pr, qs, cs, cluster.None)
	if e.Stale() {
		t.Fatal("stale after engine-driven AddPeer")
	}
	e.RemovePeer(pid)
	if e.Stale() {
		t.Fatal("stale after engine-driven RemovePeer")
	}
	// Mutating the configuration directly must trip staleness.
	e.Config().Move(0, e.Config().ClusterOf(2))
	if !e.Stale() {
		t.Fatal("external Config.Move not detected")
	}
	e.Rebuild()
	if e.Stale() {
		t.Fatal("stale after Rebuild")
	}
	e.Config().AddSlot()
	if !e.Stale() {
		t.Fatal("external Config.AddSlot not detected")
	}
}

// TestMutatorsRefuseStaleEngine pins that Move/AddPeer/RemovePeer
// panic instead of laundering an external mutation: they sync the
// version counters on exit, so running them over a stale engine would
// otherwise flip Stale back to false over wrong aggregates.
func TestMutatorsRefuseStaleEngine(t *testing.T) {
	mutate := func(e *Engine) { e.Workload().Add(0, attr.NewSet(2), 1) }
	expectPanic := func(name string, fn func(e *Engine)) {
		e := newTestEngine(t, 6, 8, 606, nil)
		mutate(e)
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a stale engine did not panic", name)
			}
		}()
		fn(e)
	}
	expectPanic("Move", func(e *Engine) { e.Move(0, e.Config().ClusterOf(1)) })
	expectPanic("AddPeer", func(e *Engine) {
		pr, qs, cs := newJoiner(stats.NewRNG(1))
		e.AddPeer(pr, qs, cs, cluster.None)
	})
	expectPanic("RemovePeer", func(e *Engine) { e.RemovePeer(0) })
}

// TestContentIndexMatchesMapOracle runs the op driver, which after
// every op holds the attribute-indexed content index to a map built
// from scratch, and ForEachSupplier, which reads it, to a brute-force
// count over the live peers, for multi-term queries and attributes
// nobody holds too. Joiners bring content
// over attributes past the index's end, and a Rebuild drops the index
// for the next join, leave or publish to build.
func TestContentIndexMatchesMapOracle(t *testing.T) {
	t.Parallel()
	for seed := uint64(1); seed <= 12; seed++ {
		d := newDriver(t, fixture{n: 8, alpha: 1, seed: 500 + seed}, splitOf(seed))
		d.runSeeded(seed, 60)
		d.finish()
		if d.rare == 0 {
			t.Errorf("seed %d: no joiner brought content past the index's end", seed)
		}
	}
}
