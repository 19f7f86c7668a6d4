package asyncnet

import (
	"math"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/protocol"
)

// world guards the shared cost engine and the protocol.Runner that
// owns the period baselines, the decide scan and the grant rule. It is
// deliberately not an actor: representatives take the read lock for
// their phase-1 decide scans (evaluators over a frozen engine are
// concurrent-read safe once PrepareDecide has run after the last
// mutation — both writers below end with it), and the coordinator takes
// the write lock to serve a round's grants. The runtime adds only the
// messages; the rule is the Runner's, which is what makes the
// zero-fault runs byte-identical to the synchronous oracle.
type world struct {
	mu  sync.RWMutex
	eng *core.Engine
	r   *protocol.Runner
}

func newWorld(eng *core.Engine, strat core.EvalStrategy, opts Options) *world {
	return &world{eng: eng, r: protocol.NewRunner(eng, strat, protocol.Options{
		Epsilon: opts.Epsilon, MaxRounds: opts.MaxRounds, AllowNewClusters: opts.AllowNewClusters,
	})}
}

// beginPeriod snapshots the drift baselines (see Runner.BeginPeriod).
func (w *world) beginPeriod() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.r.BeginPeriod()
	w.eng.PrepareDecide()
}

// roundInfo returns the non-empty clusters (ascending) and the empty
// slots (ascending) of the current configuration.
func (w *world) roundInfo() (reps, empties []cluster.CID) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	cfg := w.eng.Config()
	reps = cfg.AppendNonEmpty(nil)
	for c := 0; c < cfg.Cmax(); c++ {
		if cfg.Size(cluster.CID(c)) == 0 {
			empties = append(empties, cluster.CID(c))
		}
	}
	return reps, empties
}

// decideCluster runs cluster c's phase-1 scan (Runner.DecideCluster)
// for its representative. It returns the cluster's request (ok=false
// when no member clears epsilon) and the gain-report message count.
func (w *world) decideCluster(ev *core.Evaluator, c cluster.CID) (req Req, ok bool, gainMsgs int) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	best, gainMsgs := w.r.DecideCluster(ev, c)
	if math.IsInf(best.Gain, -1) {
		return Req{}, false, gainMsgs
	}
	return Req{Request: best, FromSize: int32(w.eng.Config().Size(c))}, true, gainMsgs
}

// serveRound serves the round's submitted grants through
// Runner.ServeRound and returns how many were granted and their
// coordination messages.
func (w *world) serveRound(grants []protocol.Request) (granted, protoMsgs int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var rep protocol.RoundReport
	w.r.ServeRound(grants, &rep)
	w.eng.PrepareDecide()
	return rep.Granted, rep.Messages
}

// costs reads the normalized global costs and the non-empty cluster
// count.
func (w *world) costs() (scost, wcost float64, clusters int) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.eng.SCostNormalized(), w.eng.WCostNormalized(), w.eng.Config().NumNonEmpty()
}
