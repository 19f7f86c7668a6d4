package core

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/stats"
)

// TestSparseRowsMatchDenseProperty drives seeded random sequences of
// Move, AddPeer, RemovePeer, Compact and Rebuild over a sparse engine
// and holds it, after every step, to denseRebuild of the same state:
// res and demand equal cell for cell, demandW and the costs within the
// drift the incremental updates have always been allowed, rows strictly
// ascending and inside the cluster slots, and no more cells than the
// peers' result and demand entries account for plus the residue cells
// a leave may keep. Joiners bring novel queries and leavers strand
// them, so rows are born, flip between answerable and not, and are
// retired by compactions along the way.
func TestSparseRowsMatchDenseProperty(t *testing.T) {
	const n, v = 8, 12
	ids := testAttrIDs(v)
	residueSeen := 0
	for seed := uint64(1); seed <= 16; seed++ {
		peers, wl, _ := testSystem(t, n, v, 300+seed)
		e := New(peers, wl, cluster.NewSingletons(n), cluster.LinearTheta(), 1)
		rng := stats.NewRNG(seed)
		novel := novelJoiner{next: 1000}
		// Until the first incremental mutation after a Rebuild the rows
		// must be the dense arrays bit for bit, with no residue.
		rebuilt := true
		for step := 0; step < 80; step++ {
			var live []int
			for p := 0; p < e.NumSlots(); p++ {
				if e.IsLive(p) {
					live = append(live, p)
				}
			}
			op := rng.Intn(10)
			switch {
			case op < 3 || len(live) <= 2:
				pr, qs, cs := novel.materials(ids, rng, rng.Intn(3))
				to := cluster.None
				if rng.Intn(2) == 0 && len(live) > 0 {
					to = e.Config().ClusterOf(live[rng.Intn(len(live))])
				}
				e.AddPeer(pr, qs, cs, to)
				rebuilt = false
			case op < 5:
				e.RemovePeer(live[rng.Intn(len(live))])
				rebuilt = false
			case op < 8:
				to, ok := e.Config().EmptyCluster()
				if targets := e.Config().NonEmpty(); !ok || rng.Intn(4) > 0 {
					to = targets[rng.Intn(len(targets))]
				}
				e.Move(live[rng.Intn(len(live))], to)
				rebuilt = false
			case op == 8:
				e.Compact(0)
			default:
				e.Rebuild()
				rebuilt = true
			}

			tol := membershipTolerance
			if rebuilt {
				tol = 0
			}
			ref := denseRebuild(e)
			if err := rowsMatchDense(e, ref, tol, !rebuilt); err != nil {
				t.Fatalf("seed %d step %d (op %d): %v", seed, step, op, err)
			}
			if math.Abs(e.SCost()-ref.SCost()) > tol || math.Abs(e.WCost()-ref.WCost()) > tol {
				t.Fatalf("seed %d step %d (op %d): SCost %v WCost %v, dense %v %v",
					seed, step, op, e.SCost(), e.WCost(), ref.SCost(), ref.WCost())
			}
			cells, residue, entries := 0, 0, 0
			for _, row := range e.rows {
				cells += len(row)
				for _, cl := range row {
					if cl.res == 0 && cl.demand == 0 {
						residue++
					}
				}
			}
			for p := range e.peerRes {
				entries += len(e.peerRes[p]) + len(e.peerWl[p])
			}
			if cells > entries+residue {
				t.Fatalf("seed %d step %d (op %d): %d cells for %d result and demand entries and %d residue cells",
					seed, step, op, cells, entries, residue)
			}
			residueSeen += residue
		}
	}
	if residueSeen == 0 {
		t.Error("no sequence left a residue cell behind: the keep-until-exactly-zero rule went unexercised")
	}
}
