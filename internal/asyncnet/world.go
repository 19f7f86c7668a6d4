package asyncnet

import (
	"math"
	"slices"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
)

// world guards the shared cost engine. It is deliberately not an
// actor: representatives take the read lock for their phase-1 decide
// scans (evaluators over a frozen engine are concurrent-read safe once
// PrepareDecide has run after the last mutation — both writers below
// end with it), and the coordinator takes the write lock
// to apply a round's granted moves. The grant service replicates
// protocol.Runner's phase 2 exactly — same sort order, same staleness
// checks, same cycle-avoiding lock rule, same empty-slot resolution —
// which is what makes the zero-fault runs byte-identical to the
// synchronous oracle.
type world struct {
	mu  sync.RWMutex
	eng *core.Engine

	// baseline/baselineGen mirror protocol.Runner.BeginPeriod: each
	// peer's individual cost at period start, guarded by the slot join
	// generation so reused slots never inherit a departed peer's
	// baseline.
	baseline    []float64
	baselineGen []uint32

	// Per-round grant-phase lock tables, cleared each round.
	joinLocked  []bool
	leaveLocked []bool
}

func newWorld(eng *core.Engine) *world { return &world{eng: eng} }

// beginPeriod snapshots the drift baselines (see Runner.BeginPeriod).
func (w *world) beginPeriod() {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := w.eng.NumSlots()
	w.baseline = make([]float64, n)
	w.baselineGen = make([]uint32, n)
	cfg := w.eng.Config()
	for p := 0; p < n; p++ {
		w.baselineGen[p] = w.eng.SlotGeneration(p)
		if !w.eng.IsLive(p) {
			w.baseline[p] = math.NaN()
			continue
		}
		w.baseline[p] = w.eng.PeerCost(p, cfg.ClusterOf(p))
	}
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

// decideCluster runs the phase-1 scan for cluster c's representative:
// every member decides under the period baseline rules and the best
// request is selected under the total (gain desc, peer asc) order —
// the exact computation of Runner.decideCluster. It returns the
// cluster's request (ok=false when no member clears epsilon) and the
// gain-report message count (one per non-representative member).
func (w *world) decideCluster(es core.EvalStrategy, ev *core.Evaluator, c cluster.CID, epsilon float64, allowNew bool) (req Req, ok bool, gainMsgs int) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	members := w.eng.Config().MembersUnsorted(c)
	bestGain := math.Inf(-1)
	bestPeer := 0
	for _, p := range members {
		baseline := math.NaN()
		if p < len(w.baseline) && w.eng.SlotGeneration(p) == w.baselineGen[p] {
			baseline = w.baseline[p]
		}
		d := es.DecideEval(ev, p, baseline, allowNew)
		if !d.Move || d.Gain <= epsilon {
			continue
		}
		if d.Gain > bestGain || (d.Gain == bestGain && d.Peer < bestPeer) {
			bestGain, bestPeer = d.Gain, d.Peer
			req = Req{
				Peer:       int32(d.Peer),
				From:       int32(d.From),
				To:         int32(d.To),
				Gain:       d.Gain,
				NewCluster: d.NewCluster,
				Gen:        w.eng.SlotGeneration(d.Peer),
				FromSize:   int32(len(members)),
			}
			ok = true
		}
	}
	return req, ok, len(members) - 1
}

// sortReqs orders requests for the grant phase exactly like
// protocol.sortRequests: decreasing gain, ties by peer ID.
func sortReqs(reqs []Req) {
	slices.SortFunc(reqs, func(a, b Req) int {
		switch {
		case a.Gain > b.Gain:
			return -1
		case a.Gain < b.Gain:
			return 1
		}
		return int(a.Peer) - int(b.Peer)
	})
}

// serveRound applies the round's submitted grants under the
// cycle-avoiding lock rule, replicating Runner.serve: requests are
// sorted (gain desc, peer asc), staled requests are dropped, a
// NewCluster request resolves the lowest-index empty slot at service
// time, and each granted move costs two coordination messages and
// locks both ends for the rest of the round.
func (w *world) serveRound(grants []Req) (granted, protoMsgs int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	sortReqs(grants)
	cmax := w.eng.Config().Cmax()
	if len(w.joinLocked) < cmax {
		w.joinLocked = make([]bool, cmax)
		w.leaveLocked = make([]bool, cmax)
	}
	clear(w.joinLocked)
	clear(w.leaveLocked)
	for _, req := range grants {
		p := int(req.Peer)
		from := cluster.CID(req.From)
		if p >= w.eng.NumSlots() || !w.eng.IsLive(p) ||
			w.eng.SlotGeneration(p) != req.Gen ||
			w.eng.Config().ClusterOf(p) != from {
			continue
		}
		to := cluster.CID(req.To)
		if req.NewCluster {
			slot, ok := w.eng.Config().EmptyCluster()
			if !ok {
				continue
			}
			to = slot
		}
		if w.leaveLocked[from] || w.joinLocked[to] {
			continue
		}
		protoMsgs += 2
		w.eng.Move(p, to)
		w.joinLocked[from] = true
		w.leaveLocked[to] = true
		granted++
	}
	w.eng.PrepareDecide()
	return granted, protoMsgs
}

// costs reads the normalized global costs and the non-empty cluster
// count.
func (w *world) costs() (scost, wcost float64, clusters int) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.eng.SCostNormalized(), w.eng.WCostNormalized(), w.eng.Config().NumNonEmpty()
}
