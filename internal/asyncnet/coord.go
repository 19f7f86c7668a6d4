package asyncnet

import (
	"repro/internal/cluster"
	"repro/internal/protocol"
)

// coordinator opens rounds, collects round-done reports and grant
// submissions, serves each round's grants through the Runner at round
// close, and decides termination. It stands in for the "all
// representatives know the round ended" agreement a fully
// decentralized deployment would reach by flooding; keeping it an
// actor on the same faulty transport preserves the message-passing
// discipline while keeping round bookkeeping in one handler. Its
// totals (rounds, requests, grants, timeouts, convergence) count
// straight into the Net's Report.
type coordinator struct {
	n *Net

	round        uint32
	expected     int
	doneSeen     int
	requestsSeen int
	grants       []protocol.Request
	// quiet counts consecutive rounds with no requests and no grants;
	// under message loss a fully-complete quiescent round may never be
	// observed, so QuiescentRounds of silence also terminate.
	quiet    int
	finished bool
}

func (c *coordinator) handle(m Message) {
	if c.finished {
		return
	}
	switch m.Kind {
	case KindStart:
		c.n.r.BeginPeriod()
		c.startRound(1)
	case KindGrant:
		if m.Round != c.round {
			c.n.rpt.Stale++
			return
		}
		c.grants = append(c.grants, m.Req.Request)
	case KindRoundDone:
		if m.Round != c.round {
			c.n.rpt.Stale++
			return
		}
		c.doneSeen++
		if m.HadRequest {
			c.requestsSeen++
		}
		if c.doneSeen >= c.expected {
			c.closeRound(true)
		}
	case KindTimer:
		if m.Round == c.round {
			c.closeRound(false)
		}
	default:
		c.n.rpt.Stale++
	}
}

// startRound opens round r: list the round's representatives and
// empty slots (both ascending), make sure every representative actor
// exists, and send the round-start fan-out with a deadline timer.
func (c *coordinator) startRound(r uint32) {
	c.round = r
	c.n.rpt.Rounds++
	cfg := c.n.eng.Config()
	var repIDs, emptyIDs []int32
	for s := range cfg.Cmax() {
		if cfg.Size(cluster.CID(s)) == 0 {
			emptyIDs = append(emptyIDs, int32(s))
		} else {
			repIDs = append(repIDs, int32(s))
		}
	}
	if len(repIDs) == 0 {
		// Empty network: a round with no representatives issues no
		// requests, which is the convergence condition.
		c.n.rpt.Converged = true
		c.finished = true
		return
	}
	c.expected = len(repIDs)
	c.doneSeen = 0
	c.requestsSeen = 0
	c.grants = c.grants[:0]

	for _, id := range repIDs {
		c.n.ensureRep(cluster.CID(id))
	}
	for _, id := range repIDs {
		c.n.rpt.Control++
		c.n.tr.send(coordID, actorID(id)+1, Message{
			Kind: KindRoundStart, Round: r, Reps: repIDs, Empties: emptyIDs,
		})
	}
	// The deadline timer bypasses the transport: a coordinator's clock
	// cannot be dropped or delayed, which is what guarantees liveness
	// under arbitrary message loss.
	c.n.sched.deliverAfter(coordID, Message{Kind: KindTimer, Round: r}, c.n.opts.RoundTimeout)
}

// closeRound serves the round's grants and decides whether to
// terminate. complete reports whether every representative checked in
// before the deadline.
func (c *coordinator) closeRound(complete bool) {
	var rr protocol.RoundReport
	c.n.r.ServeRound(c.grants, &rr)
	c.n.rpt.Messages += rr.Messages
	c.n.rpt.Granted += rr.Granted
	c.n.rpt.Requests += c.requestsSeen
	if !complete {
		c.n.rpt.TimeoutRounds++
	}
	if c.requestsSeen == 0 && rr.Granted == 0 {
		c.quiet++
	} else {
		c.quiet = 0
	}
	switch {
	case complete && c.requestsSeen == 0, c.quiet >= c.n.opts.QuiescentRounds:
		// The oracle's stop condition (a fully observed round with no
		// relocation requests), or enough rounds of silence.
		c.n.rpt.Converged = true
		c.finished = true
	case int(c.round) >= c.n.opts.MaxRounds:
		c.finished = true
	default:
		c.startRound(c.round + 1)
	}
}

// ensureRep creates and registers the representative actor for cid if
// it does not exist yet, sending it the period-start baseline message.
func (n *Net) ensureRep(cid cluster.CID) {
	id := actorID(cid) + 1
	if _, ok := n.sched.actors[id]; ok {
		return
	}
	r := &rep{n: n, id: id, cid: cid}
	n.sched.register(id, r)
	n.rpt.Control++
	n.tr.send(coordID, r.id, Message{Kind: KindBaseline, Round: 0})
}
