package experiments

import (
	"fmt"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/peer"
	"repro/internal/stats"
)

// RedirectWorkload replaces fraction frac of peer p's query instances
// with queries for words of category toCat (drawn from that category's
// texts). frac = 1 redirects the peer's whole interest — the §4.2
// "workload changes completely" update. The engine must be Rebuilt
// afterwards.
func (s *System) RedirectWorkload(p int, toCat int, frac float64, rng *stats.RNG) {
	if frac <= 0 {
		return
	}
	if frac > 1 {
		frac = 1
	}
	entries := s.WL.Peer(p)
	total := s.WL.PeerTotal(p)
	moved := int(frac*float64(total) + 0.5)
	if moved == 0 {
		return
	}
	// Keep (total - moved) instances of the old interest, scaling the
	// old entries proportionally; each kept count is floored and the
	// remainder goes to the new interest below.
	keep := total - moved
	var qs []attr.Set
	var counts []int
	acc := 0
	for _, e := range entries {
		c := keep * e.Count / total
		if acc+c > keep {
			c = keep - acc
		}
		if c > 0 {
			qs = append(qs, s.WL.Query(e.Q))
			counts = append(counts, c)
			acc += c
		}
	}
	// New interest: a couple of distinct words of toCat, like the
	// original workload shape.
	distinct := s.Params.DistinctQueriesPerPeer
	if distinct <= 0 {
		distinct = 3
	}
	words := make([]attr.ID, 0, distinct)
	for len(words) < distinct {
		words = append(words, s.SampleQueryWord(toCat, rng))
	}
	w := stats.ZipfWeights(len(words), 1)
	left := moved + (keep - acc) // absorb rounding remainder into the new interest
	for k, word := range words {
		c := int(w[k]*float64(moved) + 0.5)
		if c < 1 {
			c = 1
		}
		if c > left {
			c = left
		}
		if c == 0 {
			break
		}
		qs = append(qs, attr.NewSet(word))
		counts = append(counts, c)
		left -= c
	}
	if left > 0 {
		qs = append(qs, attr.NewSet(words[0]))
		counts = append(counts, left)
	}
	s.WL.ReplacePeer(p, qs, counts)
}

// ReplaceData replaces fraction frac of peer p's data items with fresh
// documents of category toCat — the §4.2 content update. The engine
// must be Rebuilt afterwards; RefreshPool should be called for affected
// categories if queries will be generated later.
func (s *System) ReplaceData(p int, toCat int, frac float64, rng *stats.RNG) {
	if frac <= 0 {
		return
	}
	if frac > 1 {
		frac = 1
	}
	pr := s.Peers[p]
	n := pr.NumItems()
	replace := int(frac*float64(n) + 0.5)
	for i := 0; i < replace; i++ {
		doc := s.Gen.DocumentRNG(toCat, rng)
		pr.ReplaceItem(i, doc.Terms)
	}
	if replace == n {
		s.DataCat[p] = toCat
	}
}

// NewcomerMaterials generates the content and local workload of a
// fresh peer with data in dataCat and interests in queryCat, shaped
// like the seed population (DocsPerPeer documents, the usual distinct
// query words, `demand` query instances).
func (s *System) NewcomerMaterials(dataCat, queryCat, demand int, rng *stats.RNG) (items, queries []attr.Set, counts []int) {
	items = make([]attr.Set, 0, s.Params.DocsPerPeer)
	for d := 0; d < s.Params.DocsPerPeer; d++ {
		doc := s.Gen.DocumentRNG(dataCat, rng)
		items = append(items, doc.Terms)
		s.addToPool(dataCat, doc.Terms.IDs())
	}
	if demand <= 0 {
		demand = s.Params.TotalQueries / s.Params.Peers
		if demand <= 0 {
			demand = 1
		}
	}
	distinct := s.Params.DistinctQueriesPerPeer
	if distinct <= 0 {
		distinct = 3
	}
	words := make([]attr.ID, 0, distinct)
	for len(words) < distinct {
		words = append(words, s.SampleQueryWord(queryCat, rng))
	}
	w := stats.ZipfWeights(len(words), 1)
	left := demand
	for k, word := range words {
		c := int(w[k]*float64(demand) + 0.5)
		if c < 1 {
			c = 1
		}
		if c > left {
			c = left
		}
		if c == 0 {
			break
		}
		queries = append(queries, attr.NewSet(word))
		counts = append(counts, c)
		left -= c
	}
	if left > 0 {
		queries = append(queries, attr.NewSet(words[0]))
		counts = append(counts, left)
	}
	return items, queries, counts
}

// JoinPeer admits a brand-new peer (content in dataCat, interests in
// queryCat) into the engine as a fresh singleton cluster via the
// incremental membership path — no Rebuild — and keeps the System's
// category bookkeeping aligned. It returns the assigned peer ID.
func (s *System) JoinPeer(eng *core.Engine, dataCat, queryCat int, rng *stats.RNG) int {
	items, queries, counts := s.NewcomerMaterials(dataCat, queryCat, 0, rng)
	pr := peer.New(-1)
	pr.SetItems(items)
	pid := eng.AddPeer(pr, queries, counts, cluster.None)
	s.Peers = eng.Peers()
	for len(s.DataCat) < len(s.Peers) {
		s.DataCat = append(s.DataCat, -1)
		s.QueryCat = append(s.QueryCat, -1)
	}
	s.DataCat[pid], s.QueryCat[pid] = dataCat, queryCat
	return pid
}

// JoinPeerNovel admits a newcomer like JoinPeer, except `novel` of
// its distinct query words are brand new to the system — drawn from a
// private namespace no document or earlier query uses, so each join
// interns fresh QIDs that strand (global count 0) when the peer
// departs. This is the open-ended pattern the long-haul sweep uses to
// grow query history without growing live demand.
func (s *System) JoinPeerNovel(eng *core.Engine, dataCat, queryCat, novel int, rng *stats.RNG) int {
	items, queries, counts := s.NewcomerMaterials(dataCat, queryCat, 0, rng)
	for k := 0; k < novel; k++ {
		s.novelSeq++
		w := s.Gen.Vocab().Intern(fmt.Sprintf("novel!%d", s.novelSeq))
		queries = append(queries, attr.NewSet(w))
		counts = append(counts, 1)
	}
	pr := peer.New(-1)
	pr.SetItems(items)
	pid := eng.AddPeer(pr, queries, counts, cluster.None)
	s.Peers = eng.Peers()
	for len(s.DataCat) < len(s.Peers) {
		s.DataCat = append(s.DataCat, -1)
		s.QueryCat = append(s.QueryCat, -1)
	}
	s.DataCat[pid], s.QueryCat[pid] = dataCat, queryCat
	return pid
}

// LeavePeer retires peer pid from the engine via the incremental
// membership path and clears the System's category bookkeeping.
func (s *System) LeavePeer(eng *core.Engine, pid int) {
	eng.RemovePeer(pid)
	s.Peers = eng.Peers()
	s.DataCat[pid], s.QueryCat[pid] = -1, -1
}

// ReplacePeerIdentity simulates churn: the peer at slot p leaves and a
// brand-new peer (fresh content and workload of the given categories)
// joins in its place. The engine must be Rebuilt afterwards.
func (s *System) ReplacePeerIdentity(p int, dataCat, queryCat int, rng *stats.RNG) {
	items := make([]attr.Set, 0, s.Params.DocsPerPeer)
	for d := 0; d < s.Params.DocsPerPeer; d++ {
		doc := s.Gen.DocumentRNG(dataCat, rng)
		items = append(items, doc.Terms)
		s.addToPool(dataCat, doc.Terms.IDs())
	}
	s.Peers[p].SetItems(items)
	s.DataCat[p] = dataCat
	s.QueryCat[p] = queryCat
	total := s.WL.PeerTotal(p)
	if total == 0 {
		total = s.Params.TotalQueries / s.Params.Peers
		if total == 0 {
			total = 1
		}
	}
	s.WL.ClearPeer(p)
	distinct := s.Params.DistinctQueriesPerPeer
	if distinct <= 0 {
		distinct = 3
	}
	words := make([]attr.ID, 0, distinct)
	for len(words) < distinct {
		words = append(words, s.SampleQueryWord(queryCat, rng))
	}
	w := stats.ZipfWeights(len(words), 1)
	left := total
	for k, word := range words {
		c := int(w[k]*float64(total) + 0.5)
		if c < 1 {
			c = 1
		}
		if c > left {
			c = left
		}
		if c == 0 {
			break
		}
		s.WL.Add(p, attr.NewSet(word), c)
		left -= c
	}
	if left > 0 {
		s.WL.Add(p, attr.NewSet(words[0]), left)
	}
}
