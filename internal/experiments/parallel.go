package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workerCount resolves the Workers knob: a positive value is used as
// is, zero (the default) means one worker per available CPU.
func (p Params) workerCount() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runRows executes cell(0), ..., cell(n-1) on the worker pool and
// returns the produced rows in index order — the shape shared by every
// table driver whose cells each yield one row.
func (p Params) runRows(n int, cell func(i int) []string) [][]string {
	rows := make([][]string, n)
	runIndexed(p.workerCount(), n, func(i int) { rows[i] = cell(i) })
	return rows
}

// buildSystems builds one System per scenario on the worker pool,
// pre-warming the lazy peer indexes whenever cells will share the
// systems across goroutines (workers > 1).
func buildSystems(p Params, scenarios []Scenario, workers int) []*System {
	systems := make([]*System, len(scenarios))
	runIndexed(workers, len(scenarios), func(i int) {
		systems[i] = Build(p, scenarios[i])
		if workers > 1 {
			systems[i].Warm()
		}
	})
	return systems
}

// runIndexed executes fn(0), ..., fn(n-1), spreading the calls over at
// most w workers. With w <= 1 it degenerates to a plain loop, so the
// serial and parallel paths execute identical task code.
//
// Tasks must be independent and deterministic per index: every
// experiment cell owns its own RNG (derived from the seed, never from
// execution order) and writes its result to a preallocated slot, so
// the assembled output is byte-identical for any worker count.
func runIndexed(w, n int, fn func(i int)) {
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
