package protocol

import (
	"cmp"
	"slices"

	"repro/internal/cluster"
)

// This file is §3.2's grant rule, the one copy every realisation of the
// protocol serves through: Runner's rounds and stepped periods, the
// asynchronous runtime's world and representatives, and the routing
// ablation's observer.

// CompareRequests is the grant order: decreasing gain, ties broken by
// peer ID. The order is total within a round, since a peer issues at
// most one request per round.
func CompareRequests(a, b Request) int {
	switch {
	case a.Gain > b.Gain:
		return -1
	case a.Gain < b.Gain:
		return 1
	}
	return cmp.Compare(a.Peer, b.Peer)
}

// SortRequests puts requests in grant order.
func SortRequests(reqs []Request) { slices.SortFunc(reqs, CompareRequests) }

// EmptySlots is where a NewCluster request's target comes from: the
// lowest-index empty cluster slot at the request's turn, or false when
// every slot is occupied. *cluster.Config is one.
type EmptySlots interface {
	EmptyCluster() (cluster.CID, bool)
}

// Grants holds a round's lock tables under the cycle-avoiding rule:
// granting a move c_i -> c_j locks c_i against joins and c_j against
// leaves for the rest of the round. The zero value has no slots; Grow
// sizes it.
type Grants struct {
	joinLocked  []bool
	leaveLocked []bool
}

// Grow sizes the tables to cmax cluster slots, keeping the entries
// already set: joins may add slots in the middle of a stepped round's
// grant phase.
func (g *Grants) Grow(cmax int) {
	for len(g.joinLocked) < cmax {
		g.joinLocked = append(g.joinLocked, false)
		g.leaveLocked = append(g.leaveLocked, false)
	}
}

// Reset releases every lock.
func (g *Grants) Reset() {
	clear(g.joinLocked)
	clear(g.leaveLocked)
}

// Grant decides req under the lock rule and returns its target and
// whether it is granted. A NewCluster request first takes the empty
// slot slots names and is refused when there is none. A granted
// request locks both of its ends; applying the move is the caller's.
func (g *Grants) Grant(req Request, slots EmptySlots) (cluster.CID, bool) {
	to := req.To
	if req.NewCluster {
		slot, ok := slots.EmptyCluster()
		if !ok {
			return to, false
		}
		to = slot
	}
	if g.leaveLocked[req.From] || g.joinLocked[to] {
		return to, false
	}
	g.joinLocked[req.From] = true
	g.leaveLocked[to] = true
	return to, true
}

// Release releases the locks that granted moves, carrying their
// resolved targets, set. Only granted moves set locks.
func (g *Grants) Release(moves []Request) {
	for _, m := range moves {
		g.joinLocked[m.From] = false
		g.leaveLocked[m.To] = false
	}
}
