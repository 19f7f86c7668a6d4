package protocol

import (
	"math"

	"repro/internal/cluster"
)

// periodPhase is the Period state machine's current phase.
type periodPhase uint8

const (
	phaseDecide periodPhase = iota
	phaseGrant
	phaseDone
)

func (p periodPhase) String() string {
	switch p {
	case phaseDecide:
		return "decide"
	case phaseGrant:
		return "grant"
	case phaseDone:
		return "done"
	}
	return "unknown"
}

// Period is a resumable maintenance period: the same two-phase rounds
// Runner.Run executes, re-cut into bounded steps so a serving layer
// can interleave joins, leaves and workload compactions between steps
// instead of stalling them behind a whole period. Each Step performs
// at most `budget` work units — a phase-1 decide scan of one cluster
// or a phase-2 grant service each count one — and the caller decides
// what happens between steps (release a mutex, republish a read view,
// admit a peer).
//
// With no mutations between steps a Period is byte-identical to
// Runner.Run for every budget and Options.Workers value: same moves,
// same costs, same message counts, same report. With mutations
// interleaved, the period tolerates them: the round's cluster
// worklist is a snapshot (clusters emptied before their scan are
// skipped; clusters born mid-round are picked up next round), the
// baseline machinery already NaNs-out newcomers via slot generations,
// requests staled by a departure are dropped at grant time, and the
// lock tables grow — preserving content — when joins add cluster
// slots mid-round.
//
// A Period is owned by its Runner: Begin recycles one Period's
// storage, and BeginPeriod, Run or a later Begin invalidate an
// in-progress one (its next Step reports done without further work).
// The Report of a finished period shares that recycled storage —
// callers that retain it across periods must copy Rounds.
type Period struct {
	r     *Runner
	phase periodPhase
	round int
	steps int

	// worklist is the round's snapshot of non-empty clusters; next
	// indexes into it during phaseDecide and into requests during
	// phaseGrant. scanned counts clusters still non-empty at scan
	// time — the representatives that broadcast at the end of phase 1.
	worklist []cluster.CID
	next     int
	scanned  int
	requests []Request
	// batch is the per-step scratch of still-non-empty clusters.
	batch []cluster.CID

	cur     RoundReport
	rpt     Report
	granted int // moves granted in finished rounds
}

// Begin starts a resumable maintenance period, snapshotting the
// period baseline exactly like Run. Only one period may be in
// progress per Runner at a time: a later Begin, Run, RunRound or
// BeginPeriod supersedes an unfinished period — it is frozen at done
// (further Steps are no-ops, its partial Report stays readable) and
// the new period gets fresh storage. A period that finished normally
// has its storage recycled by the next Begin instead, which is what
// keeps quiescent stepping allocation-free; its Report therefore
// shares that storage — copy Rounds before the next Begin if
// retained.
func (r *Runner) Begin() *Period {
	prev := r.period
	superseded := prev != nil && prev.phase != phaseDone
	r.BeginPeriod()
	p := prev
	if p == nil || superseded {
		p = &Period{}
	}
	r.period = p
	p.r = r
	p.round = 1
	p.steps = 0
	p.granted = 0
	p.rpt = Report{
		Rounds:       p.rpt.Rounds[:0],
		InitialSCost: r.eng.SCostNormalized(),
		InitialWCost: r.eng.WCostNormalized(),
	}
	p.beginRound()
	return p
}

// beginRound snapshots the round's worklist and resets the round
// state. Reused storage keeps steady-state stepping allocation-free.
func (p *Period) beginRound() {
	r := p.r
	p.worklist = r.eng.Config().AppendNonEmpty(p.worklist[:0])
	p.next, p.scanned = 0, 0
	p.requests = p.requests[:0]
	p.cur = RoundReport{Round: p.round}
	p.phase = phaseDecide
}

// Step executes at most budget work units and reports whether the
// period has finished. budget <= 0 means unbounded: the single call
// completes the whole period, which is Run re-spelled. Step may cross
// phase and round boundaries within one budget; it never blocks on
// anything but the work itself.
func (p *Period) Step(budget int) bool {
	if p.phase == phaseDone {
		return true
	}
	if budget <= 0 {
		budget = math.MaxInt
	}
	p.steps++
	for budget > 0 && p.phase != phaseDone {
		switch p.phase {
		case phaseDecide:
			n := len(p.worklist) - p.next
			if n > budget {
				n = budget
			}
			if n > 0 {
				p.decideSlice(p.worklist[p.next : p.next+n])
				p.next += n
				budget -= n
			}
			if p.next == len(p.worklist) {
				p.finishDecide()
			}
		case phaseGrant:
			// Joins between steps may have added cluster slots; the
			// lock tables must cover any grant target.
			p.r.grants.Grow(p.r.eng.Config().Cmax())
			for budget > 0 && p.next < len(p.requests) {
				p.r.serve(p.requests[p.next], &p.cur)
				p.next++
				budget--
			}
			if p.next == len(p.requests) {
				p.finishRound()
			}
		}
	}
	return p.phase == phaseDone
}

// decideSlice scans one budget slice of the round worklist. Clusters
// emptied by departures since the worklist snapshot no longer have
// members (or a representative) and are skipped; each still counts
// one budget unit, which only makes steps cheaper than their budget.
func (p *Period) decideSlice(clusters []cluster.CID) {
	r := p.r
	cfg := r.eng.Config()
	p.batch = p.batch[:0]
	for _, c := range clusters {
		if cfg.Size(c) > 0 {
			p.batch = append(p.batch, c)
		}
	}
	r.decideBatch(p.batch)
	p.scanned += len(p.batch)
	for i := range p.batch {
		p.cur.Messages += r.bestMsgs[i]
		if !math.IsInf(r.bests[i].Gain, -1) {
			p.requests = append(p.requests, r.bests[i])
		}
	}
}

// finishDecide closes phase 1: broadcast accounting over the scanned
// representatives, then the grant order.
func (p *Period) finishDecide() {
	if p.scanned > 1 {
		p.cur.Messages += p.scanned * (p.scanned - 1)
	}
	p.cur.Requests = len(p.requests)
	SortRequests(p.requests)
	p.next = 0
	p.phase = phaseGrant
}

// finishRound closes the round, appends its report, and either starts
// the next round or finishes the period (convergence or MaxRounds).
func (p *Period) finishRound() {
	r := p.r
	r.grants.Release(p.cur.Moves)
	p.cur.Granted = len(p.cur.Moves)
	p.cur.SCost = r.eng.SCostNormalized()
	p.cur.WCost = r.eng.WCostNormalized()
	p.granted += len(p.cur.Moves)
	p.rpt.Rounds = append(p.rpt.Rounds, p.cur)
	p.rpt.Messages += p.cur.Messages
	if p.cur.Requests == 0 {
		p.rpt.Converged = true
		p.finish()
		return
	}
	if p.round >= r.opts.MaxRounds {
		p.finish()
		return
	}
	p.round++
	p.beginRound()
}

// finish seals the period report.
func (p *Period) finish() {
	r := p.r
	p.rpt.RoundsRun = len(p.rpt.Rounds)
	p.rpt.FinalSCost = r.eng.SCostNormalized()
	p.rpt.FinalWCost = r.eng.WCostNormalized()
	p.rpt.FinalClusters = r.eng.Config().NumNonEmpty()
	p.cur = RoundReport{}
	p.phase = phaseDone
}

// Abort cancels an in-progress period: grant-phase locks are
// released, the partial report is sealed (Converged false) and the
// runner may Begin or Run afresh. Moves already granted stay applied —
// they were real relocations.
func (p *Period) Abort() {
	if p.phase == phaseDone {
		return
	}
	p.r.grants.Release(p.cur.Moves)
	p.granted += len(p.cur.Moves)
	p.finish()
}

// Done reports whether the period has finished (or was aborted or
// invalidated by a newer period).
func (p *Period) Done() bool { return p.phase == phaseDone }

// Report returns the period report: complete once Done, partial up to
// the last finished round otherwise. Its Rounds share runner-recycled
// storage — copy them before the next Begin if retained.
func (p *Period) Report() Report { return p.rpt }

// Moves returns the cumulative relocations granted so far, including
// the in-progress round — the signal a serving layer republishes its
// read view on.
func (p *Period) Moves() int { return p.granted + len(p.cur.Moves) }

// AppendGrantsSince appends the relocations granted after the first n
// — in grant order, across round boundaries — onto dst and returns it.
// n is a cursor in the flat sequence Moves() counts, which is how a
// serving layer drains each step's grants exactly once (replication
// logs them as they happen). The appended Requests carry the resolved
// target cluster: serve rewrites To before recording a move, so a
// NewCluster request appears here with the concrete cluster it opened.
// Only grants still enumerable are returned; an aborted round's
// in-flight moves are counted by Moves but no longer walkable, so
// drain before Abort.
func (p *Period) AppendGrantsSince(dst []Request, n int) []Request {
	for i := range p.rpt.Rounds {
		moves := p.rpt.Rounds[i].Moves
		if n >= len(moves) {
			n -= len(moves)
			continue
		}
		dst = append(dst, moves[n:]...)
		n = 0
	}
	if n < len(p.cur.Moves) {
		dst = append(dst, p.cur.Moves[n:]...)
	}
	return dst
}

// Progress describes how far an in-progress period has advanced.
type Progress struct {
	// Round is the 1-based current round (the last one when done).
	Round int `json:"round"`
	// Phase is "decide", "grant" or "done".
	Phase string `json:"phase"`
	// Pos/Total locate the phase: clusters scanned of the round
	// worklist during decide, requests served during grant.
	Pos   int `json:"pos"`
	Total int `json:"total"`
	// Requests counts the current round's collected requests.
	Requests int `json:"requests"`
	// Granted counts moves granted over the whole period so far.
	Granted int `json:"granted"`
	// Steps counts Step calls so far.
	Steps int `json:"steps"`
	// Scanned counts the phase-1 peer evaluations of the period so far.
	Scanned int `json:"period_scanned"`
}

// Progress reports the period's current position.
func (p *Period) Progress() Progress {
	pr := Progress{
		Round:    p.round,
		Phase:    p.phase.String(),
		Pos:      p.next,
		Requests: len(p.requests),
		Granted:  p.Moves(),
		Steps:    p.steps,
		Scanned:  p.r.scanned,
	}
	switch p.phase {
	case phaseDecide:
		pr.Total = len(p.worklist)
	case phaseGrant:
		pr.Total = len(p.requests)
	}
	return pr
}
