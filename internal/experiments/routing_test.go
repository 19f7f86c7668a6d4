package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/stats"
)

// routingGolden is the SHA-256 of the routing ablation's CSV at
// fastParams, recorded while the ablation still ran on one goroutine
// per peer. The observed result counts are integers, so the order in
// which peers answered never changed a sum; a sequential observer that
// keeps the arithmetic, the probe selection and the message accounting
// prints the same bytes.
const routingGolden = "ebdd8f4d07d50ce29beeb2b0033847e96d9d4da082b454b9fd16222dab36811f"

// TestRoutingAblationGolden pins the ablation's output, serially and on
// four workers.
func TestRoutingAblationGolden(t *testing.T) {
	p := fastParams()
	for _, workers := range []int{1, 4} {
		p.Workers = workers
		sum := sha256.Sum256([]byte(RunRoutingAblation(p).CSV()))
		if got := hex.EncodeToString(sum[:]); got != routingGolden {
			t.Errorf("routing ablation on %d workers hashes to %s, want %s", workers, got, routingGolden)
		}
	}
}

// observedSystem is the ablation's start at fastParams: the
// same-category system over a random m = M configuration, with an
// observer of the given probe budget that has run one query phase.
func observedSystem(probe int) (*System, *cluster.Config, *observer) {
	sys := Build(fastParams(), SameCategory)
	cfg := sys.InitialConfig(InitRandomM, stats.NewRNG(sys.Params.Seed))
	o := newObserver(sys, cfg.Clone(), probe)
	o.observe()
	return sys, cfg, o
}

// checkEstimatesExact holds every estimate of a flooded observer, for
// each (peer, non-empty cluster) pair, to the exact engine's cost on the
// observer's configuration.
func checkEstimatesExact(t *testing.T, sys *System, o *observer) {
	t.Helper()
	eng := sys.NewEngine(o.cfg.Clone())
	for pid := range sys.Peers {
		for _, c := range o.cfg.NonEmpty() {
			if got, want := o.estimatedCost(pid, c), eng.PeerCost(pid, c); math.Abs(got-want) > 1e-9 {
				t.Fatalf("peer %d cluster %d: estimated %g exact %g", pid, c, got, want)
			}
		}
	}
}

// TestEstimatedCostsMatchExactEngine pins §3.1's claim: with every
// cluster reached, a peer's costs estimated from cluster-tagged answers
// alone are the exact engine's.
func TestEstimatedCostsMatchExactEngine(t *testing.T) {
	sys, _, o := observedSystem(0)
	checkEstimatesExact(t, sys, o)
}

// TestFloodedEstimatesMatchEngine holds the same agreement on a
// configuration the observer reached itself: after a flooded period
// has moved peers, fresh observations still give the engine's costs.
func TestFloodedEstimatesMatchEngine(t *testing.T) {
	sys, cfg, o := observedSystem(0)
	o.runPeriod()
	moved := 0
	for pid := range sys.Peers {
		if o.cfg.ClusterOf(pid) != cfg.ClusterOf(pid) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("the flooded period moved no peer")
	}
	o.observe()
	checkEstimatesExact(t, sys, o)
}

// TestFloodedRoundMatchesProtocolRound holds one round on flooded
// observations to protocol.Runner's round over the exact engine: the
// same grants and the same assignment after them.
func TestFloodedRoundMatchesProtocolRound(t *testing.T) {
	sys, cfg, o := observedSystem(0)
	eng := sys.NewEngine(cfg)
	runner := sys.NewRunner(eng, core.NewSelfish(), false)
	runner.BeginPeriod()
	rr := runner.RunRound(1)
	_, granted := o.round()
	if granted != rr.Granted || granted == 0 {
		t.Fatalf("observer granted %d, protocol granted %d", granted, rr.Granted)
	}
	for pid := range sys.Peers {
		if got, want := o.cfg.ClusterOf(pid), eng.Config().ClusterOf(pid); got != want {
			t.Fatalf("peer %d: observer cluster %d, protocol cluster %d", pid, got, want)
		}
	}
}

// TestProbeBudgetReducesMessages: reaching 1 or 2 remote clusters per
// period costs fewer messages than a flood.
func TestProbeBudgetReducesMessages(t *testing.T) {
	_, _, flood := observedSystem(0)
	for _, probe := range []int{1, 2} {
		if _, _, o := observedSystem(probe); o.messages >= flood.messages {
			t.Errorf("probe %d: %d messages, flood %d", probe, o.messages, flood.messages)
		}
	}
}

// TestProbeBudgetEstimatesAreConservative: estimates on probed
// observations stay finite and non-negative but are no longer exact.
func TestProbeBudgetEstimatesAreConservative(t *testing.T) {
	sys, cfg, _ := observedSystem(0)
	eng := sys.NewEngine(cfg)
	for _, probe := range []int{1, 2} {
		_, _, o := observedSystem(probe)
		var worst float64
		for pid := range sys.Peers {
			for _, c := range cfg.NonEmpty() {
				est := o.estimatedCost(pid, c)
				if math.IsNaN(est) || math.IsInf(est, 0) || est < 0 {
					t.Fatalf("probe %d: peer %d cluster %d estimate %g", probe, pid, c, est)
				}
				worst = max(worst, math.Abs(est-eng.PeerCost(pid, c)))
			}
		}
		if worst == 0 {
			t.Errorf("probe %d of %d clusters gave exact estimates", probe, cfg.NumNonEmpty())
		}
	}
}

// TestRunPeriodConvergesAndCounts runs a flooded period to its fixed
// point, where one more round requests nothing. A flood sends every
// query to every other peer whatever the configuration, so the period's
// messages are a whole number of query phases.
func TestRunPeriodConvergesAndCounts(t *testing.T) {
	_, _, o := observedSystem(0)
	phase := o.messages
	if !o.runPeriod() {
		t.Fatalf("no convergence in %d rounds", o.sys.Params.MaxRounds)
	}
	if phase <= 0 || o.messages <= phase || o.messages%phase != 0 {
		t.Errorf("%d messages after the period, %d in one query phase", o.messages, phase)
	}
	o.observe()
	if requests, _ := o.round(); requests != 0 {
		t.Errorf("a round after the flooded period converged requests %d moves", requests)
	}
}

// TestProbePeriodStillTerminates: a period on probe-2 observations
// converges to a valid configuration.
func TestProbePeriodStillTerminates(t *testing.T) {
	_, _, o := observedSystem(2)
	if !o.runPeriod() {
		t.Fatalf("no convergence in %d rounds", o.sys.Params.MaxRounds)
	}
	if err := o.cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}
