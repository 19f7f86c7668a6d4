package asyncnet

import (
	"cmp"
	"maps"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/protocol"
)

// verdictCase decodes a fuzz input into a small round: a configuration
// of at most 16 slots and at most one request per non-empty cluster.
//
//	byte 0        slot count n = 1 + b%16
//	bytes 1..n    peer p's cluster, b%n
//	two bytes per non-empty cluster c, ascending: k, g
//	  k%3         0 no request, 1 a move, 2 a NewCluster request
//	  k/3         the requesting member, an index into Members(c)
//	  g%4         the gain minus one (few values, so gains tie)
//	  g/4         a move's target, an index into the other non-empty
//	              clusters (no request when there is none)
//
// Missing bytes read as zero.
func verdictCase(data []byte) (*cluster.Config, []Req) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	n := 1 + at(0)%16
	assign := make([]cluster.CID, n)
	for p := range assign {
		assign[p] = cluster.CID(at(1+p) % n)
	}
	cfg := cluster.FromAssignment(assign)
	nonEmpty := cfg.NonEmpty()
	var reqs []Req
	for i, c := range nonEmpty {
		k, g := at(1+n+2*i), at(2+n+2*i)
		if k%3 == 0 {
			continue
		}
		members := cfg.Members(c)
		req := Req{
			Request: protocol.Request{
				Peer: members[(k/3)%len(members)],
				From: c,
				To:   cluster.None,
				Gain: float64(1 + g%4),
			},
			FromSize: int32(len(members)),
		}
		if k%3 == 1 {
			others := slices.DeleteFunc(slices.Clone(nonEmpty), func(o cluster.CID) bool { return o == c })
			if len(others) == 0 {
				continue
			}
			req.To = others[(g/4)%len(others)]
		} else {
			req.NewCluster = true
		}
		reqs = append(reqs, req)
	}
	return cfg, reqs
}

// serveVerdicts is an independent grant phase over cfg: requests in
// order of decreasing gain, ties by peer; a NewCluster request takes
// the lowest empty slot at its turn; a grant locks its source against
// joins and its target against leaves. It returns the granted requests'
// source clusters and leaves cfg as the grants left it.
func serveVerdicts(cfg *cluster.Config, reqs []Req) map[cluster.CID]bool {
	order := slices.Clone(reqs)
	slices.SortFunc(order, func(a, b Req) int {
		return cmp.Or(cmp.Compare(b.Gain, a.Gain), cmp.Compare(a.Peer, b.Peer))
	})
	joinLocked := map[cluster.CID]bool{}
	leaveLocked := map[cluster.CID]bool{}
	granted := map[cluster.CID]bool{}
	for _, req := range order {
		from, to := req.From, req.To
		if req.NewCluster {
			slot, ok := cfg.EmptyCluster()
			if !ok {
				continue
			}
			to = slot
		}
		if leaveLocked[from] || joinLocked[to] {
			continue
		}
		cfg.Move(req.Peer, to)
		joinLocked[from] = true
		leaveLocked[to] = true
		granted[req.From] = true
	}
	return granted
}

// repVerdictSeeds are the fuzz corpus's hand-made rounds, each with the
// requests the serve loop grants (by source cluster).
var repVerdictSeeds = []struct {
	name    string
	data    []byte
	granted map[cluster.CID]bool
}{
	// Slots 0..3, peers 0,1,2,3 in clusters 0,1,2,2: slot 3 is empty.
	// Peer 0 (gain 3) leaves its singleton for cluster 1, vacating slot
	// 0; cluster 2's NewCluster request (gain 2) then resolves to slot
	// 0, the lowest empty slot, which the first grant join-locked. A
	// model that forgot the vacated slot would grant slot 3.
	{"vacated slot", []byte{3, 0, 1, 2, 2, 1, 2, 0, 0, 2, 1}, map[cluster.CID]bool{0: true}},
	// Three singletons, so no empty slot: the NewCluster request fails.
	{"no empty slot", []byte{2, 0, 1, 2, 2, 1, 0, 0, 0, 0}, map[cluster.CID]bool{}},
	// Peers 0 and 1 swap clusters at the same gain: peer 0 goes first
	// and its grant leave-locks cluster 1.
	{"tied gains", []byte{2, 0, 1, 2, 1, 1, 1, 1, 0, 0}, map[cluster.CID]bool{0: true}},
}

// TestRepVerdictSeeds holds each seed round to the grants it was built
// for, so the corpus keeps covering those cases.
func TestRepVerdictSeeds(t *testing.T) {
	for _, s := range repVerdictSeeds {
		cfg, reqs := verdictCase(s.data)
		if got := serveVerdicts(cfg, reqs); !maps.Equal(got, s.granted) {
			t.Errorf("%s: serve granted %v, want %v", s.name, got, s.granted)
		}
	}
}

// FuzzRepVerdictMatchesServe holds the representatives' grant
// simulation to the grant phase itself: with the full view, each
// representative's verdict on its own request is whether an
// independent serve loop over the configuration granted it. The view
// reaches each representative in a different order, as arrivals do.
func FuzzRepVerdictMatchesServe(f *testing.F) {
	for _, s := range repVerdictSeeds {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, reqs := verdictCase(data)
		empty := make(emptySlots, cfg.Cmax())
		for c := range empty {
			empty[c] = cfg.Size(cluster.CID(c)) == 0
		}
		granted := serveVerdicts(cfg.Clone(), reqs)
		for i, req := range reqs {
			view := append(slices.Clone(reqs[i:]), reqs[:i]...)
			if got := simulateGrant(view, req.From, empty); got != granted[req.From] {
				t.Fatalf("cluster %d: representative's verdict %v, serve %v (requests %+v)",
					req.From, got, granted[req.From], reqs)
			}
		}
	})
}
