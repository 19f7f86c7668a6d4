package experiments

import (
	"maps"
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/stats"
)

// RunRoutingAblation quantifies §3.1's remark that the observed
// cluster recall "depends on the routing algorithm used": peers that
// probe only k remote clusters per period act on partial observations.
// The table reports, per probe budget, the observation message volume,
// the mean absolute error of the locally estimated individual costs
// against the exact engine, and the social cost the selfish protocol
// reaches when driven by those estimates.
func RunRoutingAblation(p Params) *metrics.Table {
	t := metrics.NewTable("Extension: probe budget vs estimate quality (same-category scenario, random m=M init, selfish)",
		"probe-clusters", "query-messages", "mean-abs-pcost-error", "final-SCost", "converged")

	budgets := []int{1, 2, 4, 8, 0} // 0 = flood all clusters
	// One independent cell per probe budget, each over a fork of the base
	// whose peers its observer and engines own.
	base := buildBase(p, SameCategory)
	for _, r := range p.runRows(len(budgets), func(i int) []string {
		k := budgets[i]
		sys := base.Fork()
		rng := stats.NewRNG(p.Seed ^ 0x8ebc6af09c88c6e3)
		cfg := sys.InitialConfig(InitRandomM, rng)
		exact := sys.NewEngine(cfg.Clone())
		o := newObserver(sys, cfg, k)
		o.observe()
		observationMsgs := o.messages

		// Estimation error over every (peer, non-empty cluster) pair.
		var errSum float64
		n := 0
		for pid := 0; pid < p.Peers; pid++ {
			for _, c := range exact.Config().NonEmpty() {
				errSum += math.Abs(o.estimatedCost(pid, c) - exact.PeerCost(pid, c))
				n++
			}
		}

		converged := o.runPeriod()
		// Judge the reached configuration with exact costs.
		final := sys.NewEngine(cfg)
		label := metrics.I(k)
		if k == 0 {
			label = "all"
		}
		return []string{label,
			metrics.I(observationMsgs),
			metrics.F(errSum/float64(n), 4),
			metrics.F(final.SCostNormalized(), 3),
			metrics.I(boolToInt(converged))}
	}) {
		t.AddRow(r...)
	}
	return t
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// observer runs §3.1's observation model over a System and a
// configuration it adopts. In a query phase every peer sends each of
// its queries to every other peer of the clusters it reaches, and each
// answer comes back tagged with the responder's cluster. A peer's
// estimated costs are built from those answers and its own results
// alone, and the selfish protocol of §3.2 acts on the estimates. With
// flooding the estimates are the exact engine's costs, because every
// observed sum is a sum of integer result counts.
type observer struct {
	sys *System
	cfg *cluster.Config
	// probe is how many remote clusters a peer's queries reach per
	// period, besides its own; 0 floods every cluster.
	probe  int
	period int
	// messages counts the queries sent and the answers received.
	messages int
	// seen[id][j] is what the j-th query of peer id's workload received
	// in the last query phase.
	seen [][]answers
}

// answers is what one query of a peer observed.
type answers struct {
	own       int                 // the asker's own results
	others    int                 // the results of every peer it reached
	byCluster map[cluster.CID]int // the same, by the responder's cluster
}

func newObserver(sys *System, cfg *cluster.Config, probe int) *observer {
	return &observer{sys: sys, cfg: cfg, probe: probe, seen: make([][]answers, len(sys.Peers))}
}

// observe runs one query phase.
func (o *observer) observe() {
	o.period++
	nonEmpty := o.cfg.NonEmpty()
	for id, asker := range o.sys.Peers {
		reach := o.reachable(id, nonEmpty)
		demands := o.sys.WL.Peer(id)
		seen := make([]answers, len(demands))
		for j, d := range demands {
			q := o.sys.WL.Query(d.Q)
			a := answers{own: asker.ResultCount(q), byCluster: map[cluster.CID]int{}}
			for m, responder := range o.sys.Peers {
				c := o.cfg.ClusterOf(m)
				if m == id || reach != nil && !reach[c] {
					continue
				}
				o.messages += 2 // the query and its answer
				if r := responder.ResultCount(q); r > 0 {
					a.others += r
					a.byCluster[c] += r
				}
			}
			seen[j] = a
		}
		o.seen[id] = seen
	}
}

// reachable is the set of clusters peer id's queries reach this
// period: its own and o.probe remote ones, drawn per (seed, period,
// peer). It is nil, every cluster, when flooding.
func (o *observer) reachable(id int, nonEmpty []cluster.CID) map[cluster.CID]bool {
	if o.probe <= 0 {
		return nil
	}
	allowed := map[cluster.CID]bool{o.cfg.ClusterOf(id): true}
	rng := stats.NewRNG(o.sys.Params.Seed ^ uint64(o.period)<<24 ^ uint64(id)<<4 ^ 0x9e3779b9)
	for _, idx := range rng.Perm(len(nonEmpty)) {
		if len(allowed) >= 1+o.probe {
			break
		}
		allowed[nonEmpty[idx]] = true
	}
	return allowed
}

// estimatedCost is peer id's estimate of pcost(id, c) from its last
// query phase.
func (o *observer) estimatedCost(id int, c cluster.CID) float64 {
	p := o.sys.Params
	size := o.cfg.Size(c)
	if c != o.cfg.ClusterOf(id) {
		size++
	}
	cost := p.Alpha * p.Theta.F(size) / float64(o.cfg.Live())
	tot := o.sys.WL.PeerTotal(id)
	if tot == 0 {
		return cost
	}
	for j, d := range o.sys.WL.Peer(id) {
		a := o.seen[id][j]
		total := a.own + a.others
		if total == 0 {
			continue
		}
		in := a.byCluster[c] + a.own // the peer's results travel with it
		w := float64(d.Count) / float64(tot)
		cost += w * (1 - float64(in)/float64(total))
	}
	return cost
}

// decide is peer id's move towards the non-empty cluster of least
// estimated cost, if that gains more than Epsilon. Ties go to the lower
// cluster ID, since nonEmpty is ascending.
func (o *observer) decide(id int, nonEmpty []cluster.CID) (protocol.Request, bool) {
	cur := o.cfg.ClusterOf(id)
	curCost := o.estimatedCost(id, cur)
	bestC, bestCost := cur, curCost
	for _, c := range nonEmpty {
		if c == cur {
			continue
		}
		cost := o.estimatedCost(id, c)
		if cost < bestCost {
			bestC, bestCost = c, cost
		}
	}
	if bestC == cur || curCost-bestCost <= o.sys.Params.Epsilon {
		return protocol.Request{}, false
	}
	return protocol.Request{Peer: id, From: cur, To: bestC, Gain: curCost - bestCost}, true
}

// round is one two-phase reformulation round on the last observations.
// Each cluster's representative forwards its member's request of
// largest gain; the requests are served under protocol's grant rule.
// It returns how many requests were made and how many were granted.
func (o *observer) round() (requests, granted int) {
	best := map[cluster.CID]protocol.Request{}
	nonEmpty := o.cfg.NonEmpty()
	for id := range o.sys.Peers {
		if r, ok := o.decide(id, nonEmpty); ok {
			if b, have := best[r.From]; !have || r.Gain > b.Gain {
				best[r.From] = r
			}
		}
	}
	reqs := slices.Collect(maps.Values(best))
	protocol.SortRequests(reqs)
	var g protocol.Grants
	g.Grow(o.cfg.Cmax())
	for _, r := range reqs {
		if to, ok := g.Grant(r, o.cfg); ok {
			o.cfg.Move(r.Peer, to)
			granted++
		}
	}
	return len(reqs), granted
}

// runPeriod is one maintenance period: a query phase, then rounds on
// fresh observations until no peer asks to move or MaxRounds have run.
// It reports whether the period converged.
func (o *observer) runPeriod() bool {
	o.observe()
	for range o.sys.Params.MaxRounds {
		if requests, _ := o.round(); requests == 0 {
			return true
		}
		o.observe()
	}
	return false
}

// RunMultiClusterAnalysis evaluates the unrestricted game of Eq. 1
// (strategies s ⊆ C): after the selfish protocol converges under
// single-cluster strategies, how much would each peer gain by joining
// several clusters? The table reports, per strategy size k, the mean
// individual cost of greedy k-cluster strategies — the diminishing
// return that justifies the paper's single-cluster restriction.
func RunMultiClusterAnalysis(p Params, maxK int) *metrics.Table {
	if maxK <= 0 {
		maxK = 4
	}
	t := metrics.NewTable("Extension: multi-cluster strategies (Eq. 1, greedy, after selfish convergence)",
		"clusters-joined", "mean-pcost", "mean-gain-vs-single", "peers-improved")
	sys := Build(p, SameCategory)
	rng := stats.NewRNG(p.Seed ^ 0x589965cc75374cc3)
	cfg := sys.InitialConfig(InitSingletons, rng)
	eng := sys.NewEngine(cfg)
	sys.NewRunner(eng, core.NewSelfish(), true).Run()

	sums := make([]float64, maxK)
	improved := make([]int, maxK)
	var singleSum float64
	for pid := 0; pid < p.Peers; pid++ {
		me := eng.BestMultiStrategy(pid, maxK)
		singleSum += me.SingleCost
		for k := 0; k < maxK; k++ {
			cost := me.Trajectory[minInt(k, len(me.Trajectory)-1)]
			sums[k] += cost
			if k < len(me.Trajectory) && cost < me.SingleCost-1e-12 {
				improved[k]++
			}
		}
	}
	n := float64(p.Peers)
	for k := 0; k < maxK; k++ {
		t.AddRow(metrics.I(k+1),
			metrics.F(sums[k]/n, 4),
			metrics.F(singleSum/n-sums[k]/n, 4),
			metrics.I(improved[k]))
	}
	return t
}
