package experiments

import (
	"testing"

	"repro/internal/core"
)

// TestTable1SelfishConvergenceIsNashOverExistingClusters pins what
// Table 1's Nash column can and cannot say. A selfish period converges
// when no peer gains more than ε by moving to an existing cluster; it
// asks to found an empty cluster only under the §3.2 drift rule.
// Engine.IsNash also counts founding an empty cluster as a deviation,
// so a converged selfish cell need not be a Nash equilibrium. For every
// converged selfish cell at seeds 1-3 and scales 1 and 4: no peer's
// best move to an existing cluster gains more than ε, and any IsNash
// witness is a NewCluster deviation.
func TestTable1SelfishConvergenceIsNashOverExistingClusters(t *testing.T) {
	for _, scale := range []int{1, 4} {
		for seed := uint64(1); seed <= 3; seed++ {
			p := DefaultParams().Scaled(scale)
			p.Seed = seed
			systems := buildSystems(p, table1Scenarios, p.workerCount())
			for row, start := range table1Engines(p, systems) {
				sc, init := table1Scenarios[row/len(table1Inits)], table1Inits[row%len(table1Inits)]
				eng := start.Clone()
				if !systems[row/len(table1Inits)].NewRunner(eng, core.NewSelfish(), true).Run().Converged {
					continue
				}
				for pid := 0; pid < eng.NumSlots(); pid++ {
					if ev := eng.EvaluateMoves(pid); ev.Gain() > p.Epsilon {
						t.Errorf("scale %d seed %d %v %v: peer %d gains %g > ε moving from cluster %d to %d",
							scale, seed, sc, init, pid, ev.Gain(), ev.Cur, ev.Best)
					}
				}
				if nash, w := eng.IsNash(p.Epsilon); !nash {
					if !w.NewCluster {
						t.Errorf("scale %d seed %d %v %v: IsNash witness %+v moves to an existing cluster", scale, seed, sc, init, w)
					}
					t.Logf("scale %d seed %d %v %v: converged, not Nash: peer %d gains %g founding a cluster", scale, seed, sc, init, w.Peer, w.Improvement)
				}
			}
		}
	}
}
