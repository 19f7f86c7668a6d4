package core

import (
	"runtime"
	"testing"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/stats"
)

// TestRebuildWorkersBitIdentical builds one engine over more slots
// than one worker takes, with one worker and with four, and requires
// the two to agree bit for bit: after core.New, which asks every slot,
// and after a Rebuild that re-asks the peers whose content changed and
// asks the rest only about the queries interned since. The system has
// vacant slots, shared clusters and multi-term queries. A steady-state
// Rebuild, which asks nobody, must allocate nothing at four.
func TestRebuildWorkersBitIdentical(t *testing.T) {
	const n, v = 1300, 400
	run := func(procs int) (cold, edited string) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		if w := RestoreWorkers(n); w != procs {
			t.Fatalf("GOMAXPROCS %d: RestoreWorkers(%d) = %d, want %d", procs, n, w, procs)
		}
		rng := stats.NewRNG(5)
		peers, wl, _ := testSystem(t, n, v, 5)
		assign := make([]cluster.CID, n)
		for i := range assign {
			assign[i] = cluster.CID(rng.Intn(n / 4))
			if i%97 == 3 {
				peers[i], assign[i] = nil, cluster.None
				wl.ClearPeer(i)
				continue
			}
			if i%3 == 0 {
				wl.Add(i, attr.NewSet(attr.ID(rng.Intn(v)), attr.ID(rng.Intn(v))), 1+rng.Intn(3))
			}
		}
		e := New(peers, wl, cluster.FromAssignment(assign), cluster.LinearTheta(), 1)
		cold = engineState(e, true)

		for pid, p := range e.Peers() {
			if p == nil {
				continue
			}
			if pid%5 == 0 {
				p.SetItems([]attr.Set{attr.NewSet(attr.ID(rng.Intn(v)), attr.ID(rng.Intn(v))), attr.NewSet(attr.ID(rng.Intn(v)))})
			}
			if pid%7 == 0 {
				wl.Add(pid, attr.NewSet(attr.ID(rng.Intn(v)), attr.ID(v+rng.Intn(v))), 1)
			}
		}
		e.Rebuild()
		edited = engineState(e, true)

		// Every GC cycle wakes the runtime goroutine that prunes the
		// unique package's maps, and its pass allocates. At GOMAXPROCS 1
		// it can run inside the window below when a cycle began just
		// before, so finish a cycle, and with it that pass, first.
		runtime.GC()
		if allocs := testing.AllocsPerRun(3, e.Rebuild); allocs != 0 {
			t.Errorf("GOMAXPROCS %d: a steady-state Rebuild allocates %v times, want 0", procs, allocs)
		}
		return cold, edited
	}
	cold1, edited1 := run(1)
	cold4, edited4 := run(4)
	if err := stateDiff(cold4, cold1); err != nil {
		t.Fatalf("New on four workers differs from one:\n%v", err)
	}
	if err := stateDiff(edited4, edited1); err != nil {
		t.Fatalf("Rebuild after edits on four workers differs from one:\n%v", err)
	}
}
