// Package protocol implements the paper's cluster reformulation
// protocol (§3.2). The protocol runs in rounds of two phases. In phase
// one, every peer evaluates its gain factor under its relocation
// strategy and reports it to its cluster representative; each
// representative forwards the single highest-gain relocation request of
// its cluster to all other representatives (clusters with no request
// still announce their cid). In phase two, every representative sorts
// the collected requests by decreasing gain and serves them under the
// cycle-avoiding lock rule: granting a move c_i -> c_j locks c_i with
// direction "leave" and c_j with direction "join" — for the rest of the
// round no peer may join c_i or leave c_j. A request is issued only
// when its gain exceeds the threshold ε (the stop condition), and the
// protocol ends when no representative receives a relocation request.
package protocol

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/core"
)

// Request is a relocation request exchanged between representatives.
type Request struct {
	// Peer is the relocating peer; From its cluster; To the target
	// (filled at grant time for NewCluster requests).
	Peer     int
	From, To cluster.CID
	// Gain is the strategy gain the request is sorted by.
	Gain float64
	// NewCluster marks a request for an empty cluster slot.
	NewCluster bool
	// Gen is Peer's slot generation when the request was computed. A
	// stepped period admits joins and leaves between the decide scan
	// and the grant service; a request whose peer departed (or whose
	// slot was reused by a newcomer) in that window is detected by the
	// generation mismatch and dropped instead of relocating a stranger.
	Gen uint32
}

// RoundReport captures one protocol round.
type RoundReport struct {
	// Round is the 1-based round number.
	Round int
	// Requests is the number of relocation requests issued (at most
	// one per non-empty cluster).
	Requests int
	// Granted is the number of requests served after lock filtering.
	Granted int
	// Moves lists the granted relocations in service order.
	Moves []Request
	// SCost and WCost are the normalized global costs after the round.
	SCost, WCost float64
	// Messages is the number of protocol messages exchanged this round
	// (gain reports, request broadcasts, grant coordination).
	Messages int
}

// Report summarizes a full protocol run.
type Report struct {
	// Rounds holds one entry per executed round.
	Rounds []RoundReport
	// Converged is true when the run stopped because no requests were
	// issued (as opposed to hitting MaxRounds).
	Converged bool
	// RoundsRun is len(Rounds).
	RoundsRun int
	// Messages is the total message count.
	Messages int
	// InitialSCost/InitialWCost are the normalized costs before round 1.
	InitialSCost, InitialWCost float64
	// FinalSCost/FinalWCost are the normalized costs at termination.
	FinalSCost, FinalWCost float64
	// FinalClusters is the number of non-empty clusters at termination.
	FinalClusters int
}

// Options configure a Runner.
type Options struct {
	// Epsilon is the gain threshold ε below which no request is issued
	// (the paper's stop condition; its experiments use 0.001).
	Epsilon float64
	// MaxRounds caps the run for configurations that never converge
	// (the paper's uniform scenario).
	MaxRounds int
	// AllowNewClusters enables the empty-cluster creation rule of
	// §3.2. The update experiments of §4.2 keep the cluster count
	// fixed and disable it.
	AllowNewClusters bool
	// Workers bounds the phase-1 decide worker pool. Decide is
	// side-effect-free, so the per-cluster best requests are computed
	// in parallel — each worker holding a private core.Evaluator over
	// the frozen engine — and merged in worklist order under the total
	// (gain desc, peer asc) tie-break, making every report
	// byte-identical to the serial scan for any value. 0 or 1 scans
	// serially.
	Workers int
}

// DefaultOptions mirror the paper's experimental setting.
func DefaultOptions() Options {
	return Options{Epsilon: 0.001, MaxRounds: 300, AllowNewClusters: true}
}

// Runner drives the reformulation protocol over a core engine. It owns
// reusable per-round scratch (request list, lock tables, non-empty
// cluster list), so steady-state rounds allocate only their report
// data. A Runner, like its engine, is not safe for concurrent use.
//
// Workload compaction (Engine.Compact) may run mid-period: it
// preserves every individual cost exactly, so the per-peer baselines
// the drift rule compares against stay valid, and the runner keys no
// state by QID — the engine remaps its own QID-indexed aggregates, so
// a QID reused by a later novel query can never inherit protocol
// state from the query that previously held it (the same hazard the
// per-slot join generations solve for reused peer slots).
type Runner struct {
	eng      *core.Engine
	strategy core.Strategy
	opts     Options

	// baseline records each peer's individual cost at the start of the
	// period; the drift rule for new-cluster creation compares against
	// it. baselineGen records each slot's join generation at snapshot
	// time: a slot reused by a newcomer mid-period carries a different
	// generation, so the newcomer never inherits the departed peer's
	// baseline.
	baseline    []float64
	baselineGen []uint32

	// Per-round scratch, reused across rounds.
	requests []Request
	nonEmpty []cluster.CID
	grants   Grants

	// Phase-1 scan scratch: per-worklist-position best request and
	// gain-report message count, written by index so the merge is
	// independent of scheduling; evals holds one private evaluator per
	// decide worker.
	bests    []Request
	bestMsgs []int
	evals    []*core.Evaluator

	// scanned counts the phase-1 peer evaluations of the current period
	// (reset by BeginPeriod). Observability only, never part of a Report.
	scanned int

	// period is the most recent Period (see period.go). Begin recycles
	// its storage once it finished; a Begin that supersedes an
	// unfinished period leaves it frozen and allocates fresh storage.
	period *Period
}

// NewRunner creates a protocol runner. Options zero values are replaced
// by defaults.
func NewRunner(eng *core.Engine, strategy core.Strategy, opts Options) *Runner {
	if opts.Epsilon < 0 {
		panic(fmt.Sprintf("protocol: negative epsilon %g", opts.Epsilon))
	}
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = DefaultOptions().MaxRounds
	}
	return &Runner{eng: eng, strategy: strategy, opts: opts}
}

// Engine returns the underlying engine.
func (r *Runner) Engine() *core.Engine { return r.eng }

// BeginPeriod snapshots every peer's individual cost as the baseline
// the new-cluster drift rule compares against. Run calls it
// automatically; call it manually when interleaving workload updates
// or membership changes with single rounds. Vacated slots get a NaN
// baseline (which disables the drift rule), as do peers joining after
// the snapshot — a newcomer founds no drift cluster in its first
// period.
//
// BeginPeriod also clears the grant-phase lock tables and invalidates
// any in-progress stepped Period (its next Step reports done): locks
// belong to a single round, and an aborted or superseded period must
// never leak its lock entries into the next one — previously stale
// entries survived until a Cmax-growth reallocation happened to drop
// them.
func (r *Runner) BeginPeriod() {
	r.grants.Reset()
	r.scanned = 0
	if r.period != nil {
		r.period.phase = phaseDone
	}
	n := r.eng.NumSlots()
	if cap(r.baseline) < n {
		r.baseline = make([]float64, n)
		r.baselineGen = make([]uint32, n)
	}
	r.baseline = r.baseline[:n]
	r.baselineGen = r.baselineGen[:n]
	cfg := r.eng.Config()
	for p := 0; p < n; p++ {
		r.baselineGen[p] = r.eng.SlotGeneration(p)
		if !r.eng.IsLive(p) {
			r.baseline[p] = math.NaN()
			continue
		}
		r.baseline[p] = r.eng.PeerCost(p, cfg.ClusterOf(p))
	}
}

// ensureEvals sizes the private-evaluator pool for w decide workers.
func (r *Runner) ensureEvals(w int) {
	for len(r.evals) < w {
		r.evals = append(r.evals, r.eng.NewEvaluator())
	}
}

// decideOne evaluates peer p under the period baseline rules through
// the evaluator ev.
func (r *Runner) decideOne(ev *core.Evaluator, p int) core.Decision {
	// Peers that joined after the period baseline was taken — either
	// beyond its length or into a reused slot whose join generation
	// moved on — decide with a NaN baseline.
	baseline := math.NaN()
	if p < len(r.baseline) && r.eng.SlotGeneration(p) == r.baselineGen[p] {
		baseline = r.baseline[p]
	}
	return r.strategy.Decide(ev, p, baseline, r.opts.AllowNewClusters)
}

// DecideCluster is cluster c's phase-1 scan. Every member of the
// non-empty cluster decides under the period baseline rules, and the
// best request under the total order (gain desc, peer asc) is returned
// — Gain is -Inf when no member requests a move — with the gain-report
// message count (one per non-representative member). Membership order
// does not matter: Decide has no side effects.
//
// ev is the caller's private evaluator over the runner's engine.
// DecideCluster only reads the runner, so callers holding distinct
// evaluators may scan concurrently once PrepareDecide has run after the
// engine's last mutation.
func (r *Runner) DecideCluster(ev *core.Evaluator, c cluster.CID) (Request, int) {
	members := r.eng.Config().MembersUnsorted(c)
	best := Request{Gain: math.Inf(-1)}
	for _, p := range members {
		d := r.decideOne(ev, p)
		if !d.Move || d.Gain <= r.opts.Epsilon {
			continue
		}
		if d.Gain > best.Gain || (d.Gain == best.Gain && d.Peer < best.Peer) {
			best = Request{Peer: d.Peer, From: d.From, To: d.To, Gain: d.Gain,
				NewCluster: d.NewCluster, Gen: r.eng.SlotGeneration(d.Peer)}
		}
	}
	return best, len(members) - 1
}

// decideBatch runs the phase-1 scan over clusters (all non-empty),
// filling r.bests and r.bestMsgs by position. With Workers > 1 the
// clusters fan out over a worker pool; every result is written to its
// own index, so the merged outcome is byte-identical for any worker
// count, including the serial path.
func (r *Runner) decideBatch(clusters []cluster.CID) {
	n := len(clusters)
	if cap(r.bests) < n {
		r.bests = make([]Request, n)
		r.bestMsgs = make([]int, n)
	}
	r.bests = r.bests[:n]
	r.bestMsgs = r.bestMsgs[:n]
	// The scan evaluates every member of every cluster once.
	for _, c := range clusters {
		r.scanned += r.eng.Config().Size(c)
	}

	// Refresh the per-membership-version state (non-empty cluster list,
	// join terms, size classes) before evaluators — possibly
	// concurrent — read it.
	r.eng.PrepareDecide()
	w := min(r.opts.Workers, n)
	r.ensureEvals(max(w, 1))
	if w <= 1 {
		for i, c := range clusters {
			r.bests[i], r.bestMsgs[i] = r.DecideCluster(r.evals[0], c)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func(ev *core.Evaluator) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				r.bests[i], r.bestMsgs[i] = r.DecideCluster(ev, clusters[i])
			}
		}(r.evals[g])
	}
	wg.Wait()
}

// serve applies one request under the grant rule (see Grants),
// recording a granted move (and its two coordination messages) into
// rep. Requests staled by membership edits between a stepped decide
// scan and this grant — the peer departed, its slot was reused, or it
// is no longer in its From cluster — are dropped; in a monolithic
// round nothing can stale them and the checks never fire.
func (r *Runner) serve(req Request, rep *RoundReport) {
	eng := r.eng
	if req.Peer >= eng.NumSlots() || !eng.IsLive(req.Peer) ||
		eng.SlotGeneration(req.Peer) != req.Gen ||
		eng.Config().ClusterOf(req.Peer) != req.From {
		return
	}
	to, ok := r.grants.Grant(req, eng.Config())
	if !ok {
		return
	}
	// The two involved representatives coordinate the move.
	rep.Messages += 2
	eng.Move(req.Peer, to)
	req.To = to
	rep.Moves = append(rep.Moves, req)
}

// ServeRound is one round's grant phase over requests from any decide
// step: it sorts reqs in place into grant order, serves each under the
// grant rule, appends the granted moves (with their resolved targets)
// and their coordination messages to rep, sets rep.Granted, and
// releases the round's locks. It must not run while a stepped Period
// is in its grant phase; RunRound aborts one first.
func (r *Runner) ServeRound(reqs []Request, rep *RoundReport) {
	r.grants.Grow(r.eng.Config().Cmax())
	SortRequests(reqs)
	for _, req := range reqs {
		r.serve(req, rep)
	}
	r.grants.Release(rep.Moves)
	rep.Granted = len(rep.Moves)
}

// RunRound executes one two-phase round and returns its report. It
// supersedes an in-progress stepped Period: the period is aborted —
// its grant-phase locks released, its handle frozen at done — before
// the round runs, so the two APIs cannot corrupt the shared lock
// tables or leave a stale period resumable over a mutated
// configuration.
func (r *Runner) RunRound(round int) RoundReport {
	if r.period != nil && r.period.phase != phaseDone {
		r.period.Abort()
	}
	if r.baseline == nil {
		r.BeginPeriod()
	}
	rep := RoundReport{Round: round}

	// Phase 1: gather at most one request per non-empty cluster.
	r.nonEmpty = r.eng.Config().AppendNonEmpty(r.nonEmpty[:0])
	nonEmpty := r.nonEmpty
	r.decideBatch(nonEmpty)
	requests := r.requests[:0]
	for i := range nonEmpty {
		// Each member reports its gain to the representative.
		rep.Messages += r.bestMsgs[i]
		if !math.IsInf(r.bests[i].Gain, -1) {
			requests = append(requests, r.bests[i])
		}
	}
	r.requests = requests
	// Every representative broadcasts to all others — either its
	// cluster's request or a bare cid message.
	if len(nonEmpty) > 1 {
		rep.Messages += len(nonEmpty) * (len(nonEmpty) - 1)
	}
	rep.Requests = len(requests)

	// Phase 2: serve requests in decreasing gain order under the lock
	// rule.
	r.ServeRound(requests, &rep)
	rep.SCost = r.eng.SCostNormalized()
	rep.WCost = r.eng.WCostNormalized()
	return rep
}

// Run executes rounds until no relocation requests are issued or
// MaxRounds is reached, starting a fresh period baseline.
func (r *Runner) Run() Report {
	r.BeginPeriod()
	rpt := Report{
		InitialSCost: r.eng.SCostNormalized(),
		InitialWCost: r.eng.WCostNormalized(),
	}
	for round := 1; round <= r.opts.MaxRounds; round++ {
		rr := r.RunRound(round)
		rpt.Rounds = append(rpt.Rounds, rr)
		rpt.Messages += rr.Messages
		if rr.Requests == 0 {
			rpt.Converged = true
			break
		}
	}
	rpt.RoundsRun = len(rpt.Rounds)
	rpt.FinalSCost = r.eng.SCostNormalized()
	rpt.FinalWCost = r.eng.WCostNormalized()
	rpt.FinalClusters = r.eng.Config().NumNonEmpty()
	return rpt
}

// EffectiveRounds is the number of rounds in which the protocol did
// work: the final quiescent round that merely detects convergence is
// not counted (it is what Table 1's "# rounds" measures).
func (rpt Report) EffectiveRounds() int {
	if rpt.Converged && rpt.RoundsRun > 0 {
		return rpt.RoundsRun - 1
	}
	return rpt.RoundsRun
}

// CostTrajectory extracts the per-round normalized social and workload
// costs (prepending the initial values as round 0) — the series of
// Fig. 1.
func (rpt Report) CostTrajectory() (rounds []int, scost, wcost []float64) {
	rounds = append(rounds, 0)
	scost = append(scost, rpt.InitialSCost)
	wcost = append(wcost, rpt.InitialWCost)
	for _, rr := range rpt.Rounds {
		rounds = append(rounds, rr.Round)
		scost = append(scost, rr.SCost)
		wcost = append(wcost, rr.WCost)
	}
	return rounds, scost, wcost
}
