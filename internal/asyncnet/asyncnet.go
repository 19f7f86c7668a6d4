// Package asyncnet runs the paper's cluster reformulation protocol as
// real message passing: an actor-style runtime (a round coordinator and
// one message handler per cluster representative, gen_server style)
// where the request/grant/baseline traffic of §3.2 travels through a
// transport with injectable per-link latency, reordering, drops, and
// straggler peers — all sampled from a seeded stats.RNG.
//
// One deterministic virtual-time scheduler drives the actors: a
// single-threaded event queue keyed by (tick, send sequence). Same
// seed, same inputs → identical schedule, identical Report, so every
// asynchronous schedule replays exactly. With a zero FaultPlan the run
// is byte-identical to the synchronous protocol.Runner oracle — same
// final SCost bits, same cluster count, same round and message counts —
// which is the property the test suite pins.
//
// The protocol itself is protocol.Runner's; this package only carries
// its messages. Each representative scans its members with
// Runner.DecideCluster over the run's one evaluator, and the
// coordinator serves each round's grants with Runner.ServeRound. Each
// representative decides its own request's fate by running protocol's
// grant rule over its collected view (see rep.go), which is what makes
// the runtime decentralized in the common case while staying
// oracle-exact when no messages are lost.
package asyncnet

import (
	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/stats"
)

// Options configure a run. Zero values take the documented defaults.
type Options struct {
	// Epsilon is the gain threshold ε below which no request is issued;
	// it must not be negative.
	Epsilon float64
	// MaxRounds caps the run (default protocol.DefaultOptions's, 300).
	MaxRounds int
	// AllowNewClusters enables the empty-cluster creation rule of §3.2.
	AllowNewClusters bool
	// Seed drives the transport RNG (fault sampling and straggler
	// selection). Two runs with the same seed, engine and options
	// produce identical schedules and Reports.
	Seed uint64
	// Faults is the injected fault plan; the zero value is a perfect
	// network.
	Faults FaultPlan
	// RoundTimeout is the coordinator's round deadline in ticks;
	// 0 derives a generous default from the fault plan's latency.
	RoundTimeout int64
	// QuiescentRounds terminates after this many consecutive rounds
	// with no requests and no grants even when round completion could
	// not be observed (message loss makes the oracle's exact stop
	// condition unobservable); default 3.
	QuiescentRounds int
}

func (o Options) withDefaults() Options {
	if o.MaxRounds <= 0 {
		o.MaxRounds = protocol.DefaultOptions().MaxRounds
	}
	if o.QuiescentRounds <= 0 {
		o.QuiescentRounds = 3
	}
	if o.RoundTimeout <= 0 {
		o.RoundTimeout = 64 * int64(o.Faults.LatencyMean+o.Faults.LatencyJitter+1)
	}
	if o.Faults.StragglerFrac > 0 && o.Faults.StragglerFactor <= 1 {
		o.Faults.StragglerFactor = 8
	}
	return o
}

// Report summarizes a run.
type Report struct {
	// Rounds is the number of rounds opened (including the final
	// quiescent round that only detects convergence).
	Rounds int
	// Converged reports termination by quiescence rather than
	// MaxRounds.
	Converged bool
	// Initial/Final normalized global costs and final cluster count.
	InitialSCost, InitialWCost float64
	FinalSCost, FinalWCost     float64
	FinalClusters              int
	// Requests and Granted total the relocation requests observed by
	// the coordinator and the moves actually applied.
	Requests, Granted int
	// Messages counts protocol messages — gain reports, request
	// broadcasts, grant coordination — with the same accounting as
	// protocol.Report.Messages, so the two are directly comparable.
	Messages int
	// Control counts runtime control messages (baselines, round
	// starts, round dones, grant submissions and notifications).
	Control int
	// Transport outcome counters.
	Delivered, Dropped, Reordered int
	// Stale counts wrong-round arrivals discarded by actors.
	Stale int
	// TimeoutRounds is how many rounds closed on the deadline rather
	// than full participation; AbandonedRounds how many a
	// representative had to abandon unfinished; PartialCompletes how
	// many representative-rounds completed on the local deadline with
	// a partial view.
	TimeoutRounds, AbandonedRounds, PartialCompletes int
	// Stragglers is the number of representatives sampled as slow.
	Stragglers int
	// VirtualTicks is the virtual clock at termination.
	VirtualTicks uint64
}

// Net wires one run together: the engine and the protocol.Runner that
// owns the period baselines, the decide scan and the grant rule, the
// evaluator the representatives decide through, the transport, the
// scheduler and the actors. The Report under construction holds the
// run's counters.
type Net struct {
	opts  Options
	eng   *core.Engine
	r     *protocol.Runner
	ev    *core.Evaluator
	sched *vsched
	tr    *transport
	coord *coordinator
	rpt   Report
}

// repTimeout is a representative's own round deadline: half the
// coordinator's, so partial completions and their done reports reach
// the coordinator before it closes the round.
func (n *Net) repTimeout() int64 {
	t := n.opts.RoundTimeout / 2
	if t < 1 {
		t = 1
	}
	return t
}

// Run executes one reformulation period over eng — rounds until
// quiescence or MaxRounds — on the asynchronous runtime and returns
// its report. The engine is mutated in place (moves are applied as
// grants are served), exactly like protocol.Runner.Run.
func Run(eng *core.Engine, strat core.Strategy, opts Options) Report {
	opts = opts.withDefaults()
	n := &Net{
		opts: opts,
		eng:  eng,
		r: protocol.NewRunner(eng, strat, protocol.Options{
			Epsilon: opts.Epsilon, MaxRounds: opts.MaxRounds, AllowNewClusters: opts.AllowNewClusters,
		}),
		ev:    eng.NewEvaluator(),
		sched: newVSched(),
	}
	rng := stats.NewRNG(opts.Seed ^ 0xa5a5a5a55a5a5a5a)
	n.tr = newTransport(n, opts.Faults, rng, eng.Config().Cmax())
	n.coord = &coordinator{n: n}
	n.sched.register(coordID, n.coord)

	n.rpt.InitialSCost, n.rpt.InitialWCost = eng.SCostNormalized(), eng.WCostNormalized()
	n.sched.deliverAfter(coordID, Message{Kind: KindStart}, 0)
	n.sched.run(func() bool { return n.coord.finished })

	n.rpt.FinalSCost, n.rpt.FinalWCost = eng.SCostNormalized(), eng.WCostNormalized()
	n.rpt.FinalClusters = eng.Config().NumNonEmpty()
	n.rpt.VirtualTicks = n.sched.clock
	return n.rpt
}
