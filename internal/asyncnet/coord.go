package asyncnet

import (
	"sync"

	"repro/internal/cluster"
	"repro/internal/protocol"
)

// coordinator opens rounds, collects round-done reports and grant
// submissions, applies each round's grants through the world at round
// close, and decides termination. It stands in for the "all
// representatives know the round ended" agreement a fully
// decentralized deployment would reach by flooding; keeping it an
// actor on the same faulty transport preserves the message-passing
// discipline while keeping round bookkeeping in one mailbox.
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
	quiet int

	rounds        int
	requests      int
	granted       int
	timeoutRounds int
	converged     bool

	finished   bool
	finishOnce sync.Once
	doneCh     chan struct{}
}

func newCoordinator(n *Net) *coordinator {
	return &coordinator{n: n, doneCh: make(chan struct{})}
}

func (c *coordinator) handle(m Message) {
	if c.finished {
		return
	}
	switch m.Kind {
	case KindStart:
		c.n.world.beginPeriod()
		c.startRound(1)
	case KindGrant:
		if m.Round != c.round {
			c.n.stale.Add(1)
			return
		}
		c.grants = append(c.grants, m.Req.Request)
	case KindRoundDone:
		if m.Round != c.round {
			c.n.stale.Add(1)
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
		c.n.stale.Add(1)
	}
}

// startRound opens round r: snapshot the round's representatives and
// empty slots, make sure every representative actor exists, and send
// the round-start fan-out with a deadline timer.
func (c *coordinator) startRound(r uint32) {
	c.round = r
	c.rounds++
	reps, empties := c.n.world.roundInfo()
	if len(reps) == 0 {
		// Empty network: a round with no representatives issues no
		// requests, which is the convergence condition.
		c.converged = true
		c.finish()
		return
	}
	c.expected = len(reps)
	c.doneSeen = 0
	c.requestsSeen = 0
	c.grants = c.grants[:0]

	repIDs := make([]int32, len(reps))
	emptyIDs := make([]int32, len(empties))
	for i, cid := range reps {
		repIDs[i] = int32(cid)
		c.n.ensureRep(cid)
	}
	for i, cid := range empties {
		emptyIDs[i] = int32(cid)
	}
	for _, cid := range reps {
		c.n.control.Add(1)
		c.n.tr.send(coordID, actorID(cid)+1, Message{
			Kind: KindRoundStart, Round: r, Reps: repIDs, Empties: emptyIDs,
		})
	}
	// The deadline timer bypasses the transport: a coordinator's clock
	// cannot be dropped or delayed, which is what guarantees liveness
	// under arbitrary message loss.
	c.n.sched.deliverAfter(coordID, Message{Kind: KindTimer, Round: r}, c.n.opts.RoundTimeout)
}

// closeRound applies the round's grants and decides whether to
// terminate. complete reports whether every representative checked in
// before the deadline.
func (c *coordinator) closeRound(complete bool) {
	granted, msgs := c.n.world.serveRound(c.grants)
	c.n.protoMsgs.Add(int64(msgs))
	c.granted += granted
	c.requests += c.requestsSeen
	if !complete {
		c.timeoutRounds++
	}
	if c.requestsSeen == 0 && granted == 0 {
		c.quiet++
	} else {
		c.quiet = 0
	}
	switch {
	case complete && c.requestsSeen == 0:
		// The oracle's stop condition: a fully observed round with no
		// relocation requests.
		c.converged = true
		c.finish()
	case c.quiet >= c.n.opts.QuiescentRounds:
		c.converged = true
		c.finish()
	case int(c.round) >= c.n.opts.MaxRounds:
		c.finish()
	default:
		c.startRound(c.round + 1)
	}
}

func (c *coordinator) finish() {
	c.finished = true
	c.finishOnce.Do(func() { close(c.doneCh) })
}

// ensureRep creates and registers the representative actor for cid if
// it does not exist yet, sending it the period-start baseline message.
// Only the coordinator calls this, so the map needs no lock.
func (n *Net) ensureRep(cid cluster.CID) *rep {
	if r, ok := n.reps[cid]; ok {
		return r
	}
	ev := n.world.eng.NewEvaluator()
	r := &rep{n: n, id: actorID(cid) + 1, cid: cid, ev: ev}
	n.reps[cid] = r
	n.sched.register(r.id, r)
	n.control.Add(1)
	n.tr.send(coordID, r.id, Message{Kind: KindBaseline, Round: 0})
	return r
}
