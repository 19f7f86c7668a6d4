package experiments

import (
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/stats"
)

// Table1Cell is one (scenario, init, strategy) run.
type Table1Cell struct {
	Scenario Scenario
	Init     InitKind
	Strategy string
	// Converged reports whether the protocol reached quiescence within
	// MaxRounds; Rounds is meaningful only when it did (the paper
	// prints "-" otherwise).
	Converged bool
	Rounds    int
	Clusters  int
	SCost     float64
	WCost     float64
	// Nash reports whether the final configuration is a pure Nash
	// equilibrium of the selfish game (checked with tolerance ε).
	Nash bool
}

// Table1Result holds every cell plus the rendered table.
type Table1Result struct {
	Cells []Table1Cell
}

// table1Scenarios and table1Inits span Table 1's rows, in row order.
var (
	table1Scenarios = []Scenario{SameCategory, DifferentCategory, Uniform}
	table1Inits     = []InitKind{InitSingletons, InitRandomM, InitFewer, InitMore}
)

// RunTable1 reproduces Table 1: fixed query workload and content, three
// data/query scenarios, four initial configurations, selfish and
// altruistic relocation, reporting rounds to equilibrium, final cluster
// count and both normalized cost measures.
//
// The 12 (scenario, init) starting engines are built in one pass over
// the Params.Workers pool, each over its scenario's shared, read-only
// System. The 24 cells are independent — each runs its strategy on an
// engine of its own, the last strategy of a row on the row's engine and
// the others on Clones of it — so they execute on the same pool. The
// cell order of the result is fixed and identical for every worker
// count.
func RunTable1(p Params) *Table1Result {
	return runTable1(p, buildSystems(p, table1Scenarios, p.workerCount()))
}

// runTable1 is RunTable1 over one built System per scenario of
// table1Scenarios (warmed when p has more than one worker), which it
// leaves unchanged.
func runTable1(p Params, systems []*System) *Table1Result {
	workers := p.workerCount()
	engines := table1Engines(p, systems)
	starts := make([][]*core.Engine, len(engines))
	runIndexed(workers, len(engines), func(row int) {
		starts[row] = cellEngines(engines[row], len(paperStrategies))
	})
	cells := make([]Table1Cell, len(engines)*len(paperStrategies))
	runIndexed(workers, len(cells), func(i int) {
		row := i / len(paperStrategies)
		strat := paperStrategies[i%len(paperStrategies)]()
		sys := systems[row/len(table1Inits)]
		eng := starts[row][i%len(paperStrategies)]
		rpt := sys.NewRunner(eng, strat, true).Run()
		nash, _ := eng.IsNash(p.Epsilon)
		cells[i] = Table1Cell{
			Scenario:  table1Scenarios[row/len(table1Inits)],
			Init:      table1Inits[row%len(table1Inits)],
			Strategy:  strat.Name(),
			Converged: rpt.Converged,
			Rounds:    rpt.EffectiveRounds(),
			Clusters:  rpt.FinalClusters,
			SCost:     rpt.FinalSCost,
			WCost:     rpt.FinalWCost,
			Nash:      nash,
		}
	})
	return &Table1Result{Cells: cells}
}

// table1Engines builds the starting engine of every row of Table 1,
// row-major over table1Scenarios and table1Inits, on the Params.Workers
// pool.
func table1Engines(p Params, systems []*System) []*core.Engine {
	engines := make([]*core.Engine, len(table1Scenarios)*len(table1Inits))
	runIndexed(p.workerCount(), len(engines), func(i int) {
		sc := table1Scenarios[i/len(table1Inits)]
		init := table1Inits[i%len(table1Inits)]
		sys := systems[i/len(table1Inits)]
		// The initial configuration must be identical across
		// strategies: derive its RNG from (seed, scenario, init) only.
		rng := stats.NewRNG(p.Seed ^ uint64(sc)<<8 ^ uint64(init)<<16 ^ 0x517cc1b727220a95)
		engines[i] = sys.NewEngine(sys.InitialConfig(init, rng))
	})
	return engines
}

// Table renders the result in the paper's layout: one row per
// (scenario, init), selfish and altruistic side by side.
func (r *Table1Result) Table() *metrics.Table {
	t := metrics.NewTable(
		"Table 1: results for fixed query workload and content",
		"scenario", "init",
		"rounds(self)", "rounds(alt)",
		"#clusters(self)", "#clusters(alt)",
		"SCost(self)", "SCost(alt)",
		"WCost(self)", "WCost(alt)",
	)
	byKey := map[[2]int]map[string]Table1Cell{}
	for _, c := range r.Cells {
		k := [2]int{int(c.Scenario), int(c.Init)}
		if byKey[k] == nil {
			byKey[k] = map[string]Table1Cell{}
		}
		byKey[k][c.Strategy] = c
	}
	rounds := func(c Table1Cell) string {
		if !c.Converged {
			return "-"
		}
		return metrics.I(c.Rounds)
	}
	for _, sc := range table1Scenarios {
		for _, init := range table1Inits {
			cells := byKey[[2]int{int(sc), int(init)}]
			s, a := cells["selfish"], cells["altruistic"]
			t.AddRow(
				sc.String(), init.String(),
				rounds(s), rounds(a),
				metrics.I(s.Clusters), metrics.I(a.Clusters),
				metrics.F(s.SCost, 2), metrics.F(a.SCost, 2),
				metrics.F(s.WCost, 2), metrics.F(a.WCost, 2),
			)
		}
	}
	return t
}

// RunProtocol is a convenience used by several drivers: build an
// engine on cfg's system, run the strategy to quiescence, return the
// report.
func RunProtocol(sys *System, init InitKind, strat core.Strategy, seed uint64) protocol.Report {
	rng := stats.NewRNG(seed)
	cfg := sys.InitialConfig(init, rng)
	eng := sys.NewEngine(cfg)
	return sys.NewRunner(eng, strat, true).Run()
}
