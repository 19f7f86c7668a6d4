package core

import (
	"repro/internal/cluster"
)

// Evaluator is a cost-evaluation context with private scratch buffers
// over a shared Engine. The engine's evaluation methods are read-only
// but not reentrant — they reuse engine-owned scratch — so concurrent
// phase-1 Decide scans (protocol.Options.Workers) give each worker its
// own Evaluator instead. Any number of evaluators may evaluate
// concurrently as long as nothing mutates the engine (no Move,
// AddPeer, RemovePeer, Rebuild, Compact) for the duration and
// Engine.PrepareDecide ran after the last mutation; evaluations are
// then pure reads of the engine's aggregates, so an Evaluator produces
// bit-identical results to the engine's own methods.
//
// An Evaluator sizes its scratch lazily against the engine's current
// geometry, so it stays valid across engine mutations between (not
// during) concurrent scans, including workload compactions and
// membership changes that add cluster slots.
type Evaluator struct {
	e *Engine
	// own is QID-indexed, acc CID-indexed; both zero outside calls.
	own []float64
	acc []float64
}

// NewEvaluator returns a fresh evaluator over the engine. The zero
// cost is deferred: buffers are sized on first use.
func (e *Engine) NewEvaluator() *Evaluator { return &Evaluator{e: e} }

// Engine returns the engine the evaluator reads from.
func (ev *Evaluator) Engine() *Engine { return ev.e }

// ensure grows the scratch to the engine's current geometry. Growth
// only ever happens between concurrent scans (mutating the engine
// while evaluators run is already a data race), so each evaluator
// resizes its private buffers safely.
func (ev *Evaluator) ensure() {
	if cap(ev.own) < ev.e.nq {
		ev.own = make([]float64, ev.e.nq)
	} else {
		ev.own = ev.own[:ev.e.nq]
	}
	if len(ev.acc) < ev.e.cmax {
		ev.acc = padFloats(ev.acc, ev.e.cmax)
	}
}

// NonEmpty returns the non-empty clusters in ascending order: the
// engine's one list per membership version, shared by every evaluator
// and read-only. Concurrent evaluators rely on Engine.PrepareDecide
// having refreshed it after the last mutation.
func (ev *Evaluator) NonEmpty() []cluster.CID { return ev.e.nonEmptyClusters() }

// EvaluateMoves mirrors Engine.EvaluateMoves on private scratch.
func (ev *Evaluator) EvaluateMoves(p int) MoveEval {
	ev.ensure()
	return ev.e.evaluateMoves(p, ev.acc)
}

// EvaluateContribution mirrors Engine.EvaluateContribution on private
// scratch.
func (ev *Evaluator) EvaluateContribution(p int) ContributionEval {
	ev.ensure()
	return ev.e.evaluateContribution(p, ev.NonEmpty(), ev.acc)
}

// PeerCost mirrors Engine.PeerCost on private scratch.
func (ev *Evaluator) PeerCost(p int, c cluster.CID) float64 {
	ev.ensure()
	return ev.e.peerCost(p, c, ev.own)
}
