package benchsuite

import (
	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/protocol"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/workload"
)

// fixture is a built system with what its entries run over it.
type fixture struct {
	sys     *experiments.System
	eng     *core.Engine
	view    *core.RoutingView // serve only
	queries []attr.Set        // serve only
	runner  *protocol.Runner  // maintained only
}

// Fixtures are the systems the table's bodies run over, built once a
// run. Entries that share one run in table order and some mutate it, so
// a number is defined for the whole table run, which is what `reform
// bench` and the gate do.
type Fixtures struct {
	Small experiments.Params
	Large experiments.Params

	// hot is the Small system and engine the hot-path entries share, from
	// EvaluateMoves to CompactCycle. Move leaves peers where it put them,
	// and the two churn entries grow the workload's slot table, which a
	// fresh engine build would reject: nothing else builds over hot.sys.
	hot fixture
	// base is a Small system in the good configuration §4.2 starts from.
	// Only read: cloned, forked, and engines built over its system.
	base fixture
	// serve is the daemon's read side at the Large population (a
	// -scale-shrunk system's posting lists are a few entries long, which
	// flatters nothing and hides everything): an engine, the view
	// published from it and the first 256 workload queries to replay. The
	// two join entries mutate eng and leave it as they found it.
	serve fixture
	// restore is the Large system the four singleton entries fork or
	// build engines over; it only gains a joiner's terms in its query
	// pools.
	restore *experiments.System
	// maintained is a Large system reformed from singletons to
	// convergence (roughly one cluster per category).
	// ProtocolRoundLarge churns it; ReformStepLarge converges it again.
	maintained fixture
	// daemon is a leader restored from serve's engine, built by the first
	// Handler* entry that runs. HandlerJoin joins and leaves one peer an
	// iteration and leaves it as it found it.
	daemon *service.Server
}

// NewFixtures takes the Small class's parameters as given and derives
// the Large class's from a population: the cluster count grows with it
// as far as the corpus allows (its word scheme supports at most 16
// topical categories), and the workload with the peers.
func NewFixtures(small experiments.Params, peers int) *Fixtures {
	lp := experiments.DefaultParams()
	lp.Peers = peers
	lp.Categories = min(max(peers/16, 10), 16)
	lp.Corpus.Categories = lp.Categories
	lp.TotalQueries = 4 * peers
	lp.MaxRounds = 600
	f := &Fixtures{Small: small, Large: lp}

	randomM := func(p experiments.Params, seed uint64) fixture {
		sys := experiments.Build(p, experiments.SameCategory)
		return fixture{sys: sys, eng: sys.NewEngine(sys.InitialConfig(experiments.InitRandomM, stats.NewRNG(seed)))}
	}
	f.hot = randomM(small, 1)
	f.base.sys = experiments.Build(small, experiments.SameCategory)
	f.base.eng = f.base.sys.NewEngine(f.base.sys.CategoryConfig())

	f.serve = randomM(lp, 2)
	f.serve.view = f.serve.eng.BuildRoutingView(nil)
	wl := f.serve.eng.Workload()
	f.serve.queries = make([]attr.Set, min(wl.NumQueries(), 256))
	for q := range f.serve.queries {
		f.serve.queries[q] = wl.Query(workload.QID(q))
	}
	f.restore = experiments.Build(lp, experiments.SameCategory)

	m := &f.maintained
	m.sys = experiments.Build(lp, experiments.SameCategory)
	m.eng = m.sys.NewEngine(m.sys.InitialConfig(experiments.InitSingletons, stats.NewRNG(4)))
	m.runner = m.sys.NewRunner(m.eng, core.NewSelfish(), true)
	mustConverge(m.runner)
	return f
}

// mustConverge runs a period on runner and panics unless it ended
// quiescent: a steady-state number from a system still moving would lie.
func mustConverge(runner *protocol.Runner) {
	if !runner.Run().Converged {
		panic("benchsuite: a system that must be quiescent did not converge")
	}
}
