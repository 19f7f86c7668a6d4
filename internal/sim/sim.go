// Package sim is a concurrent actor realization of the reformulation
// protocol: one goroutine per peer, communicating only through typed
// messages. It exists to demonstrate that the paper's protocol needs no
// global knowledge — each peer estimates its costs purely from query
// results annotated with the cluster ID (cid) they came from (§3.1),
// and representatives coordinate relocations with message exchanges.
//
// The deterministic engine in internal/protocol is what the experiment
// harness uses for numbers; sim cross-checks it: with full query
// flooding, the empirically estimated costs and the relocation
// decisions match the exact engine (asserted by tests), while every
// exchanged message is counted.
package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/peer"
	"repro/internal/stats"
	"repro/internal/workload"
)

// queryMsg asks a node to evaluate q against its local items; the
// responder replies on reply with its result count and its cid.
type queryMsg struct {
	from    int
	fromCID cluster.CID
	q       attr.Set
	qid     workload.QID
	weight  int // num(q, Q(from)) — lets responders track contribution
	reply   chan<- resultMsg
}

// resultMsg is a query answer annotated with the responder's cluster,
// as §3.1 requires.
type resultMsg struct {
	responder int
	cid       cluster.CID
	qid       workload.QID
	results   int
}

// gainMsg reports a peer's relocation gain to its representative.
type gainMsg struct {
	peer       int
	from, to   cluster.CID
	gain       float64
	wantsMove  bool
	newCluster bool
}

// Strategy names the relocation behavior a simulation runs.
type Strategy int

const (
	// Selfish peers minimize their own estimated pcost (§3.1.1).
	Selfish Strategy = iota
	// Altruistic peers maximize their tracked contribution (§3.1.2).
	Altruistic
)

// Options configure a simulation.
type Options struct {
	// Alpha and Theta mirror the cost model.
	Alpha float64
	Theta cluster.Theta
	// Epsilon is the request threshold.
	Epsilon float64
	// MaxRounds bounds the reformulation rounds of one period.
	MaxRounds int
	// Strategy selects peer behavior.
	Strategy Strategy
	// ProbeClusters bounds how many remote clusters a peer's queries
	// reach per period (its own cluster is always evaluated). Zero
	// means flooding to all clusters — §3.1's case where the observed
	// cluster recall equals the exact one. With a finite probe budget,
	// peers act on partial observations, trading message volume for
	// estimate quality (quantified by the routing ablation).
	ProbeClusters int
	// ProbeSeed makes the per-period probe selection deterministic.
	ProbeSeed uint64
}

// Node is one peer actor. Exported fields are immutable after
// construction; mutable state is owned by the node's goroutine during
// phases and read by the coordinator only at barriers.
type Node struct {
	id      int
	content *peer.Peer
	demands []workload.Entry
	demTot  int

	inbox chan queryMsg

	cid cluster.CID

	// observed[qid][cid] accumulates results per origin cluster; the
	// peer's view of cluster recall.
	observed map[workload.QID]map[cluster.CID]float64
	ownRes   map[workload.QID]float64
	// contributed[cid] accumulates results this node sent to queries
	// originating in cid, and contributedTotal the grand total — the
	// altruistic tracker of Eq. 6.
	contributed      map[cluster.CID]float64
	contributedTotal float64
}

// Sim wires the actors together over a fixed population: a slot
// vacated before New (a nil peer) stays nil in nodes.
type Sim struct {
	nodes []*Node
	wl    *workload.Workload
	cfg   *cluster.Config
	opts  Options

	messages atomic.Int64
	period   int
}

// New builds a simulation over the same inputs as core.New. The
// configuration is adopted (and mutated by reformulation rounds). As
// in core.New, a nil peer entry is a vacated slot: no actor is
// spawned for it.
//
// The sim keys no durable state by QID: node demand lists share the
// workload's entry slices (which Workload.Compact remaps in place)
// and recall estimates are rebuilt every query phase, so the shared
// workload may be compacted between periods.
func New(peers []*peer.Peer, wl *workload.Workload, cfg *cluster.Config, opts Options) *Sim {
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 100
	}
	if opts.Theta.F == nil {
		opts.Theta = cluster.LinearTheta()
	}
	s := &Sim{wl: wl, cfg: cfg, opts: opts}
	s.nodes = make([]*Node, len(peers))
	for i, p := range peers {
		if p == nil {
			continue
		}
		if p.ID() != i {
			panic(fmt.Sprintf("sim: peers[%d] has ID %d", i, p.ID()))
		}
		s.nodes[i] = &Node{
			id:      i,
			content: p,
			demands: wl.Peer(i),
			demTot:  wl.PeerTotal(i),
			inbox:   make(chan queryMsg, 64),
			cid:     cfg.ClusterOf(i),
		}
	}
	return s
}

// Messages returns the total number of messages exchanged so far
// (query, result, gain, request and grant messages all count as one).
func (s *Sim) Messages() int64 { return s.messages.Load() }

// Config returns the live configuration.
func (s *Sim) Config() *cluster.Config { return s.cfg }

// QueryPhase runs one observation period T: every peer issues its
// local workload against every other peer (full flooding across
// clusters), and answers incoming queries. Result messages carry the
// responder's cid, from which each peer rebuilds its per-cluster
// recall estimates; responders update their contribution trackers.
func (s *Sim) QueryPhase() {
	s.period++
	// Under a probe budget each asker computes the cluster set its
	// queries may reach this period (own cluster plus ProbeClusters
	// random remote ones), before any goroutine runs.
	reach := s.reachableSets()
	for _, n := range s.nodes {
		if n == nil {
			continue
		}
		n.observed = make(map[workload.QID]map[cluster.CID]float64, len(n.demands))
		n.ownRes = make(map[workload.QID]float64, len(n.demands))
		n.contributed = make(map[cluster.CID]float64)
		n.contributedTotal = 0
		// Evaluate own results sequentially before any goroutine runs:
		// during the phase a node's content is touched only by its own
		// responder goroutine (peer.ResultCount mutates lazy caches).
		for _, d := range n.demands {
			res := float64(n.content.ResultCount(s.wl.Query(d.Q)))
			n.ownRes[d.Q] = res
			// A peer's own queries originate in its own cluster; Eq. 6
			// counts them in its contribution even though no message is
			// ever sent for them.
			if res > 0 {
				w := res * float64(d.Count)
				n.contributed[n.cid] += w
				n.contributedTotal += w
			}
		}
	}

	// Responder goroutines serve their inboxes until closed.
	var serveWG sync.WaitGroup
	for _, n := range s.nodes {
		if n == nil {
			continue
		}
		serveWG.Add(1)
		go func(n *Node) {
			defer serveWG.Done()
			for msg := range n.inbox {
				res := n.content.ResultCount(msg.q)
				if res > 0 {
					// Track the contribution to the asker's cluster,
					// weighted by the query's multiplicity there (Eq. 6).
					w := float64(res * msg.weight)
					n.contributed[msg.fromCID] += w
					n.contributedTotal += w
				}
				msg.reply <- resultMsg{responder: n.id, cid: n.cid, qid: msg.qid, results: res}
				s.messages.Add(1) // the reply
			}
		}(n)
	}

	// Asker goroutines flood their queries.
	var askWG sync.WaitGroup
	for _, n := range s.nodes {
		if n == nil {
			continue
		}
		askWG.Add(1)
		go func(n *Node) {
			defer askWG.Done()
			// The reply channel must hold every pending reply: askers
			// drain only after flooding all queries, so an undersized
			// buffer could deadlock responders against askers.
			reply := make(chan resultMsg, len(n.demands)*(len(s.nodes)-1)+1)
			pending := 0
			allowed := reach[n.id]
			for _, d := range n.demands {
				q := s.wl.Query(d.Q)
				for _, m := range s.nodes {
					if m == nil || m.id == n.id {
						continue
					}
					if allowed != nil && !allowed[m.cid] {
						continue
					}
					m.inbox <- queryMsg{
						from: n.id, fromCID: n.cid, q: q, qid: d.Q,
						weight: d.Count, reply: reply,
					}
					s.messages.Add(1) // the query
					pending++
				}
			}
			for ; pending > 0; pending-- {
				r := <-reply
				if r.results == 0 {
					continue
				}
				byCID := n.observed[r.qid]
				if byCID == nil {
					byCID = make(map[cluster.CID]float64)
					n.observed[r.qid] = byCID
				}
				byCID[r.cid] += float64(r.results)
			}
		}(n)
	}
	askWG.Wait()
	for _, n := range s.nodes {
		if n != nil {
			close(n.inbox)
		}
	}
	serveWG.Wait()
	for _, n := range s.nodes {
		if n != nil {
			n.inbox = make(chan queryMsg, 64) // fresh inbox for the next period
		}
	}
}

// reachableSets returns, per asker, the cluster set its queries may
// reach this period, or a nil map (everything) when flooding.
func (s *Sim) reachableSets() []map[cluster.CID]bool {
	if s.opts.ProbeClusters <= 0 {
		return make([]map[cluster.CID]bool, len(s.nodes))
	}
	nonEmpty := s.cfg.NonEmpty()
	out := make([]map[cluster.CID]bool, len(s.nodes))
	for _, n := range s.nodes {
		if n == nil {
			continue
		}
		allowed := map[cluster.CID]bool{n.cid: true}
		// Deterministic per (seed, period, peer) probe selection.
		rng := stats.NewRNG(s.opts.ProbeSeed ^ uint64(s.period)<<24 ^ uint64(n.id)<<4 ^ 0x9e3779b9)
		perm := rng.Perm(len(nonEmpty))
		for _, idx := range perm {
			if len(allowed) >= 1+s.opts.ProbeClusters {
				break
			}
			allowed[nonEmpty[idx]] = true
		}
		out[n.id] = allowed
	}
	return out
}

// EstimatedPeerCost is node n's local estimate of pcost(n, c), built
// purely from observed, cid-annotated results. With full flooding it
// equals core.Engine.PeerCost exactly.
func (s *Sim) EstimatedPeerCost(id int, c cluster.CID) float64 {
	n := s.nodes[id]
	size := s.cfg.Size(c)
	if c != n.cid {
		size++
	}
	cost := s.opts.Alpha * s.opts.Theta.F(size) / float64(s.cfg.Live())
	if n.demTot == 0 {
		return cost
	}
	for _, d := range n.demands {
		total := n.ownRes[d.Q]
		for _, v := range n.observed[d.Q] {
			total += v
		}
		if total == 0 {
			continue
		}
		in := n.observed[d.Q][c]
		in += n.ownRes[d.Q] // the peer's results travel with it
		w := float64(d.Count) / float64(n.demTot)
		cost += w * (1 - in/total)
	}
	return cost
}

// EstimatedContribution is node id's tracked Eq. 6 value for cluster c.
func (s *Sim) EstimatedContribution(id int, c cluster.CID) float64 {
	n := s.nodes[id]
	if n.contributedTotal == 0 {
		return 0
	}
	return n.contributed[c] / n.contributedTotal
}

// decide computes node id's relocation intent from its local state.
func (s *Sim) decide(id int) gainMsg {
	n := s.nodes[id]
	msg := gainMsg{peer: id, from: n.cid, to: n.cid}
	switch s.opts.Strategy {
	case Selfish:
		curCost := s.EstimatedPeerCost(id, n.cid)
		bestC, bestCost := n.cid, curCost
		for _, c := range s.cfg.NonEmpty() {
			if c == n.cid {
				continue
			}
			cost := s.EstimatedPeerCost(id, c)
			if cost < bestCost || (cost == bestCost && bestC != n.cid && c < bestC) {
				bestC, bestCost = c, cost
			}
		}
		if bestC != n.cid && curCost-bestCost > s.opts.Epsilon {
			msg.to = bestC
			msg.gain = curCost - bestCost
			msg.wantsMove = true
		}
	case Altruistic:
		curContrib := s.EstimatedContribution(id, n.cid)
		bestC, best := n.cid, curContrib
		for _, c := range s.cfg.NonEmpty() {
			if c == n.cid {
				continue
			}
			v := s.EstimatedContribution(id, c)
			if v > best || (v == best && bestC != n.cid && c < bestC) {
				bestC, best = c, v
			}
		}
		if bestC != n.cid {
			sz := s.cfg.Size(bestC)
			delta := s.opts.Alpha * float64(sz) *
				(s.opts.Theta.F(sz+1) - s.opts.Theta.F(sz)) / float64(s.cfg.Live())
			gain := best - curContrib - delta
			if gain > s.opts.Epsilon {
				msg.to = bestC
				msg.gain = gain
				msg.wantsMove = true
			}
		}
	}
	return msg
}

// RoundReport summarizes one reformulation round of the actor system.
type RoundReport struct {
	Requests int
	Granted  int
}

// ReformulationRound runs the two-phase §3.2 round over the current
// observations: members report gains to representatives (messages),
// representatives broadcast their best request (messages), every
// representative independently sorts and lock-filters the requests,
// and the granted moves execute.
func (s *Sim) ReformulationRound() RoundReport {
	nonEmpty := s.cfg.NonEmpty()

	// Phase 1: decisions run concurrently (they touch only node-local
	// state); representatives pick their cluster's best request.
	decisions := make([]gainMsg, len(s.nodes))
	var wg sync.WaitGroup
	for _, n := range s.nodes {
		if n == nil {
			continue
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			decisions[id] = s.decide(id)
		}(n.id)
	}
	wg.Wait()

	var requests []gainMsg
	for _, c := range nonEmpty {
		members := s.cfg.Members(c)
		s.messages.Add(int64(len(members) - 1)) // gain reports to the rep
		best := gainMsg{}
		have := false
		for _, pid := range members {
			d := decisions[pid]
			if !d.wantsMove {
				continue
			}
			if !have || d.gain > best.gain || (d.gain == best.gain && d.peer < best.peer) {
				best, have = d, true
			}
		}
		if have {
			requests = append(requests, best)
		}
	}
	if len(nonEmpty) > 1 {
		s.messages.Add(int64(len(nonEmpty) * (len(nonEmpty) - 1))) // request broadcast
	}

	// Phase 2: deterministic global order; every representative derives
	// the same grant set (the paper: "cluster representatives can
	// process their lists independently").
	sort.Slice(requests, func(i, j int) bool {
		if requests[i].gain != requests[j].gain {
			return requests[i].gain > requests[j].gain
		}
		return requests[i].peer < requests[j].peer
	})
	joinLocked := map[cluster.CID]bool{}
	leaveLocked := map[cluster.CID]bool{}
	granted := 0
	for _, req := range requests {
		if leaveLocked[req.from] || joinLocked[req.to] {
			continue
		}
		s.messages.Add(2) // the two reps coordinate
		s.cfg.Move(req.peer, req.to)
		s.nodes[req.peer].cid = req.to
		joinLocked[req.from] = true
		leaveLocked[req.to] = true
		granted++
	}
	// Peers learn the post-round membership of their (new) clusters via
	// their representatives; observation cids refresh next period.
	return RoundReport{Requests: len(requests), Granted: granted}
}

// PeriodReport summarizes one full maintenance period.
type PeriodReport struct {
	Rounds    int
	Converged bool
	Messages  int64
}

// RunPeriod performs one period T: a query/observation phase followed
// by reformulation rounds until quiescence or MaxRounds.
func (s *Sim) RunPeriod() PeriodReport {
	before := s.Messages()
	s.QueryPhase()
	rpt := PeriodReport{}
	for round := 1; round <= s.opts.MaxRounds; round++ {
		rr := s.ReformulationRound()
		rpt.Rounds = round
		if rr.Requests == 0 {
			rpt.Converged = true
			break
		}
		// Observations refer to pre-move cluster IDs; refresh them so
		// the next round sees current membership.
		s.QueryPhase()
	}
	rpt.Messages = s.Messages() - before
	return rpt
}
