package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/peer"
	"repro/internal/stats"
)

// contentIndexOracle is the content index in the form it used to have:
// a map built from scratch over the live peers.
func contentIndexOracle(e *Engine) map[attr.ID][]int32 {
	m := make(map[attr.ID][]int32)
	for pid, p := range e.peers {
		if p == nil {
			continue
		}
		for _, a := range p.Attrs() {
			m[a] = append(m[a], int32(pid))
		}
	}
	return m
}

// contentIndexMatches holds every list of the slice index to the map
// oracle as a set (a leave reorders a list), and the attributes outside
// the oracle to empty lists.
func contentIndexMatches(e *Engine) error {
	want := contentIndexOracle(e)
	for a, lst := range e.peersByAttr {
		got := slices.Clone(lst)
		slices.Sort(got)
		if !slices.Equal(got, want[attr.ID(a)]) {
			return fmt.Errorf("attribute %d: index holds %v, the live peers %v", a, got, want[attr.ID(a)])
		}
		delete(want, attr.ID(a))
	}
	for a, lst := range want {
		return fmt.Errorf("attribute %d past the index's %d entries is held by %v", a, len(e.peersByAttr), lst)
	}
	return nil
}

// TestContentIndexMatchesMapOracle drives seeded random sequences of
// AddPeer, RemovePeer, Compact and Rebuild, with joiners whose content
// brings attributes past the index's end, and holds the attribute-
// indexed content index to a map built from scratch after every step.
// ForEachSupplier, which reads the index, must report exactly the peers
// a scan of the population finds, also for attributes nobody holds.
func TestContentIndexMatchesMapOracle(t *testing.T) {
	const n, v = 8, 12
	ids := testAttrIDs(v)
	for seed := uint64(1); seed <= 12; seed++ {
		peers, wl, _ := testSystem(t, n, v, 500+seed)
		e := New(peers, wl, cluster.NewSingletons(n), cluster.LinearTheta(), 1)
		rng := stats.NewRNG(seed)
		novel := attr.ID(v)
		for step := 0; step < 60; step++ {
			var live []int
			for p := 0; p < e.NumSlots(); p++ {
				if e.IsLive(p) {
					live = append(live, p)
				}
			}
			op := rng.Intn(10)
			switch {
			case op < 4 || len(live) <= 2:
				pr, qs, cs := randomJoiner(ids, rng)
				if rng.Intn(2) == 0 {
					// Content over attributes no peer has held, a gap
					// past the largest so far.
					novel += attr.ID(1 + rng.Intn(70))
					pr = peer.New(-1)
					pr.SetItems([]attr.Set{attr.NewSet(ids[rng.Intn(v)], novel), attr.NewSet(novel - 1)})
					qs = append(qs, attr.NewSet(novel))
					cs = append(cs, 1)
				}
				e.AddPeer(pr, qs, cs, cluster.None)
			case op < 7:
				e.RemovePeer(live[rng.Intn(len(live))])
			case op == 7:
				e.Compact(0)
			case op == 8:
				e.Rebuild()
				if e.peersByAttr != nil {
					t.Fatalf("seed %d step %d: Rebuild kept the content index", seed, step)
				}
				e.BuildRoutingView(nil) // a publish builds it, like a join
			default:
				e.Rebuild()
				e.ForEachSupplier(attr.NewSet(ids[0]), func(int, int) {})
			}
			e.ensureIndexes()
			if err := contentIndexMatches(e); err != nil {
				t.Fatalf("seed %d step %d (op %d): %v", seed, step, op, err)
			}
			for _, a := range []attr.ID{ids[rng.Intn(v)], novel, novel + 1, 1 << 20, -1} {
				var got, want []int
				q := attr.NewSet(a)
				e.ForEachSupplier(q, func(pid, _ int) { got = append(got, pid) })
				for pid, p := range e.peers {
					if p != nil && p.ResultCount(q) > 0 {
						want = append(want, pid)
					}
				}
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: suppliers of attribute %d: %v, want %v", seed, step, a, got, want)
				}
			}
			checkAgainstRebuild(t, e, fmt.Sprintf("seed %d step %d", seed, step))
		}
	}
}
