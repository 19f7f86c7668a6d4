package asyncnet

import (
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/protocol"
)

// rep is one cluster representative: a message-driven actor that runs
// the phase-1 decide scan for its own members, broadcasts its best
// request (or a bare announcement) to every other representative, and
// — once it has heard from all of them or the round moves on — decides
// the fate of its OWN request by simulating the grant phase locally
// over the collected view. Each cluster submits at most one request
// per round, so a representative only ever needs to resolve its own;
// with full views the simulations at every representative agree with
// the Runner's serve exactly, and with partial views (drops,
// stragglers) a wrong self-grant is caught by the Runner's
// authoritative lock check while a missed grant simply re-arises next
// round.
type rep struct {
	n   *Net
	id  actorID
	cid cluster.CID

	// lastStarted is the highest round this rep has begun; older
	// round-start and announce arrivals are stale.
	lastStarted uint32
	active      bool
	expected    int
	seen        int
	view        []Req
	ownReq      Req
	ownHas      bool
	// empty marks the cluster slots that were empty at round start.
	empty emptySlots

	// pending buffers announces that arrive before their round's
	// RoundStart (reordering can deliver a fast peer's announce first).
	pending []Message
}

const maxPending = 256

func (r *rep) handle(m Message) {
	switch m.Kind {
	case KindBaseline:
		// The period baselines live in the Runner; the message is the
		// period-start signal.
	case KindRoundStart:
		r.onRoundStart(m)
	case KindAnnounce:
		r.onAnnounce(m)
	case KindTimer:
		// The representative's own round deadline: complete with
		// whatever view arrived. Without it, a single lost RoundStart
		// or announce would stall every peer of the round — no
		// representative may wait on another's message to guarantee its
		// own progress. Late timers for finished rounds are expected
		// and ignored.
		if r.active && m.Round == r.lastStarted {
			r.n.rpt.PartialCompletes++
			r.complete()
		}
	case KindGrantNotify:
		// Coordination traffic only; the move is applied by the Runner.
	default:
		r.n.rpt.Stale++
	}
}

func (r *rep) onRoundStart(m Message) {
	if m.Round <= r.lastStarted {
		r.n.rpt.Stale++
		return
	}
	if r.active {
		// A newer round superseded one we never finished (our
		// announcements or peers' were lost, or the deadline fired).
		r.n.rpt.AbandonedRounds++
	}
	r.lastStarted = m.Round
	r.active = true
	r.expected = len(m.Reps)
	r.seen = 1 // our own announcement
	r.view = r.view[:0]
	// The round's representatives and empty slots are every slot.
	r.empty = make(emptySlots, len(m.Reps)+len(m.Empties))
	for _, c := range m.Empties {
		r.empty[c] = true
	}

	// Phase 1: this cluster's best request, if any member clears
	// epsilon. Representatives run one at a time, so they share the
	// run's one evaluator.
	best, gainMsgs := r.n.r.DecideCluster(r.n.ev, r.cid)
	r.n.rpt.Messages += gainMsgs
	r.ownReq, r.ownHas = Req{}, !math.IsInf(best.Gain, -1)
	if r.ownHas {
		r.ownReq = Req{Request: best, FromSize: int32(r.n.eng.Config().Size(r.cid))}
		r.view = append(r.view, r.ownReq)
	}

	// Broadcast to every other representative — the request, or a bare
	// cid announcement.
	for _, c := range m.Reps {
		if cluster.CID(c) == r.cid {
			continue
		}
		r.n.rpt.Messages++
		r.n.tr.send(r.id, actorID(c)+1, Message{
			Kind: KindAnnounce, Round: m.Round, HasRequest: r.ownHas, Req: r.ownReq,
		})
	}

	// Replay any early announces buffered for this round, keeping ones
	// for still-future rounds buffered.
	pend := r.pending
	r.pending = r.pending[:0]
	for _, pm := range pend {
		switch {
		case pm.Round > m.Round:
			r.pending = append(r.pending, pm)
		case pm.Round == m.Round && r.active:
			r.onAnnounce(pm)
		default:
			r.n.rpt.Stale++
		}
	}
	if r.active && r.seen >= r.expected {
		r.complete()
	}
	if r.active {
		// Self deadline, off the transport like the coordinator's:
		// local clocks cannot be dropped or delayed.
		r.n.sched.deliverAfter(r.id, Message{Kind: KindTimer, Round: m.Round}, r.n.repTimeout())
	}
}

func (r *rep) onAnnounce(m Message) {
	if m.Round > r.lastStarted {
		if len(r.pending) < maxPending {
			r.pending = append(r.pending, m)
		} else {
			r.n.rpt.Stale++
		}
		return
	}
	if !r.active || m.Round != r.lastStarted {
		r.n.rpt.Stale++
		return
	}
	r.seen++
	if m.HasRequest {
		r.view = append(r.view, m.Req)
	}
	if r.seen >= r.expected {
		r.complete()
	}
}

// complete closes the round at this representative: simulate the grant
// phase, submit a self-granted move, and report done to the
// coordinator.
func (r *rep) complete() {
	r.active = false
	granted := false
	if r.ownHas {
		granted = simulateGrant(r.view, r.cid, r.empty)
		if granted {
			r.n.rpt.Control++
			r.n.tr.send(r.id, coordID, Message{
				Kind: KindGrant, Round: r.lastStarted, HasRequest: true, Req: r.ownReq,
			})
			if !r.ownReq.NewCluster {
				r.n.rpt.Control++
				r.n.tr.send(r.id, actorID(r.ownReq.To)+1, Message{
					Kind: KindGrantNotify, Round: r.lastStarted, Req: r.ownReq,
				})
			}
		}
	}
	r.n.rpt.Control++
	r.n.tr.send(r.id, coordID, Message{
		Kind: KindRoundDone, Round: r.lastStarted, HadRequest: r.ownHas, Granted: granted,
	})
}

// simulateGrant replays the grant phase over the collected view and
// reports whether self's request is granted. The rule is protocol's:
// the view in protocol.CompareRequests order through a protocol.Grants.
// What the representative adds is its model of the empty slots at each
// point of that order, which NewCluster requests take their slot from:
// the round-start empties, plus slots vacated by earlier grants out of
// singleton clusters, minus slots earlier grants filled. With a
// complete view this is the Runner's serve, so every representative
// reaches the Runner's verdict for its own request.
func simulateGrant(view []Req, self cluster.CID, roundEmpty emptySlots) bool {
	reqs := slices.Clone(view)
	slices.SortFunc(reqs, func(a, b Req) int { return protocol.CompareRequests(a.Request, b.Request) })
	empty := slices.Clone(roundEmpty)
	var g protocol.Grants
	g.Grow(len(empty))
	for _, req := range reqs {
		to, ok := g.Grant(req.Request, empty)
		if ok {
			empty[to] = false
			if req.FromSize == 1 {
				empty[req.From] = true
			}
		}
		if req.From == self {
			return ok
		}
	}
	return false
}

// emptySlots is a representative's model of the empty cluster slots,
// indexed by cluster ID: the protocol.EmptySlots its grant simulation
// resolves NewCluster requests against.
type emptySlots []bool

func (s emptySlots) EmptyCluster() (cluster.CID, bool) {
	c := slices.Index(s, true)
	return cluster.CID(c), c >= 0
}
