// Package reform is the public API of the reproduction of
// "Recall-Based Cluster Reformulation by Selfish Peers" (Koloniari &
// Pitoura, ICDE Workshops 2008).
//
// It wires together the synthetic corpus, the peer/workload model, the
// recall-based cost engine and the periodic reformulation protocol
// behind a single System type:
//
//	sys := reform.New(reform.Options{})        // paper defaults
//	report := sys.Run()                        // reformulate to quiescence
//	fmt.Println(report.FinalSCost, sys.ClusterSizes())
//
// The internal packages expose every building block (cost engine,
// strategies, Nash analysis, protocol, message-passing runtime, baselines,
// experiment drivers); this package covers the common paths an
// application needs: building a system, maintaining its clustered
// overlay under workload/content drift, and inspecting its quality.
package reform

import (
	"fmt"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/protocol"
	"repro/internal/stats"
)

// Scenario selects the data/query distribution (§4.1 of the paper).
type Scenario = experiments.Scenario

// Scenarios of the paper's evaluation.
const (
	SameCategory      = experiments.SameCategory
	DifferentCategory = experiments.DifferentCategory
	Uniform           = experiments.Uniform
)

// InitKind selects the initial clustering.
type InitKind = experiments.InitKind

// Initial configurations of §4.1 (singletons, random m=M, m<M, m>M),
// plus Category clustering via Options.StartFromCategories.
const (
	InitSingletons = experiments.InitSingletons
	InitRandomM    = experiments.InitRandomM
	InitFewer      = experiments.InitFewer
	InitMore       = experiments.InitMore
)

// StrategyKind selects the relocation strategy of §3.1.
type StrategyKind int

// Relocation strategies.
const (
	// Selfish peers minimize their own individual cost (§3.1.1).
	Selfish StrategyKind = iota
	// Altruistic peers maximize their contribution (§3.1.2).
	Altruistic
	// Hybrid mixes both with weight Options.HybridLambda (§6).
	Hybrid
)

// Report re-exports the protocol run report.
type Report = protocol.Report

// RoundReport re-exports the per-round report.
type RoundReport = protocol.RoundReport

// Options configure a System. The zero value (normalized by New) is
// the paper's experimental setting: 200 peers, 10 categories, α = 1,
// linear θ, ε = 0.001, same-category scenario, singleton start.
type Options struct {
	// Peers is the network size |P|.
	Peers int
	// Categories is the number of topical categories.
	Categories int
	// Scenario is the data/query distribution.
	Scenario Scenario
	// Strategy selects peer behavior during reformulation.
	Strategy StrategyKind
	// HybridLambda is the selfish weight of the hybrid strategy.
	HybridLambda float64
	// Alpha is the membership cost weight α.
	Alpha float64
	// Epsilon is the relocation gain threshold ε.
	Epsilon float64
	// MaxRounds caps each protocol run.
	MaxRounds int
	// Init is the initial clustering; StartFromCategories overrides it
	// with the ideal category clustering (§4.2's "good configuration").
	Init                InitKind
	StartFromCategories bool
	// AllowNewClusters enables empty-cluster creation (§3.2).
	AllowNewClusters bool
	// Workers sizes the worker pool the protocol's phase-1 decide scan
	// fans out over (0 or 1: serial). Reports are byte-identical for
	// every value; parallelism only buys wall-clock time on multicore.
	Workers int
	// Seed drives all randomness; equal seeds give equal systems.
	Seed uint64
}

// System is a live clustered peer-to-peer system.
type System struct {
	opts   Options
	sys    *experiments.System
	eng    *core.Engine
	runner *protocol.Runner
	rng    *stats.RNG
	// period is the in-progress stepped maintenance period driven by
	// StepReform, nil when none is active.
	period *protocol.Period
}

// New builds a System. Zero-valued options fall back to the paper's
// defaults.
func New(opts Options) *System {
	p := experiments.DefaultParams()
	if opts.Peers > 0 {
		p.Peers = opts.Peers
	}
	if opts.Categories > 0 {
		p.Categories = opts.Categories
		p.Corpus.Categories = opts.Categories
	}
	if opts.Alpha > 0 {
		p.Alpha = opts.Alpha
	}
	if opts.Epsilon > 0 {
		p.Epsilon = opts.Epsilon
	}
	if opts.MaxRounds > 0 {
		p.MaxRounds = opts.MaxRounds
	}
	if opts.Seed != 0 {
		p.Seed = opts.Seed
	}
	if opts.HybridLambda == 0 {
		opts.HybridLambda = 0.5
	}

	sys := experiments.Build(p, opts.Scenario)
	rng := stats.NewRNG(p.Seed ^ 0x6a09e667f3bcc908)
	var cfg *cluster.Config
	if opts.StartFromCategories {
		cfg = sys.CategoryConfig()
	} else {
		cfg = sys.InitialConfig(opts.Init, rng)
	}
	eng := sys.NewEngine(cfg)

	var strat core.Strategy
	switch opts.Strategy {
	case Selfish:
		strat = core.NewSelfish()
	case Altruistic:
		strat = core.NewAltruistic()
	case Hybrid:
		strat = core.NewHybrid(opts.HybridLambda)
	default:
		panic(fmt.Sprintf("reform: unknown strategy %d", opts.Strategy))
	}

	return &System{
		opts:   opts,
		sys:    sys,
		eng:    eng,
		runner: sys.NewRunnerWorkers(eng, strat, opts.AllowNewClusters, opts.Workers),
		rng:    rng,
	}
}

// Run executes the reformulation protocol until no peer requests a
// relocation (or MaxRounds), returning the full report. It supersedes
// any stepped period in progress (see StepReform); that period's
// partial work stays applied, its report is discarded.
func (s *System) Run() Report {
	s.period = nil
	return s.runner.Run()
}

// RunRound executes a single protocol round.
func (s *System) RunRound(round int) RoundReport { return s.runner.RunRound(round) }

// StepReform advances maintenance by one bounded step — at most
// `budget` work units: phase-1 relocation decisions over single
// clusters plus phase-2 grant services (budget <= 0 runs a whole
// period, which is Run re-spelled). The first call begins a resumable
// period; subsequent calls continue it; when the period completes
// (convergence or MaxRounds) StepReform returns done=true with its
// report, and the next call begins a new period.
//
// Between steps the system may mutate freely: Join, Leave and
// CompactWorkload interleave with an in-progress period — a join's
// latency is bounded by the one step in front of it, not by the whole
// period — and with no interleaving the completed period's moves,
// costs and report are byte-identical to Run's. Content updates
// (RedirectInterest, ReplaceContent, ChurnPeer) reset the runner's
// baseline and therefore cancel an in-progress period; Run supersedes
// one.
func (s *System) StepReform(budget int) (done bool, report *Report) {
	if s.period == nil || s.period.Done() {
		s.period = s.runner.Begin()
	}
	if s.period.Step(budget) {
		rpt := s.period.Report()
		// Detach from the runner-recycled storage before the next
		// period overwrites it.
		rpt.Rounds = append([]RoundReport(nil), rpt.Rounds...)
		s.period = nil
		return true, &rpt
	}
	return false, nil
}

// refreshBaseline re-snapshots the period baseline after a membership
// change — unless a stepped period is in progress: mid-period joins
// and leaves are covered by the slot-generation machinery, and the
// period keeps the baseline it started with.
func (s *System) refreshBaseline() {
	if s.period != nil && !s.period.Done() {
		return
	}
	s.runner.BeginPeriod()
}

// SocialCost returns the normalized social cost (Eq. 2 / |P|).
func (s *System) SocialCost() float64 { return s.eng.SCostNormalized() }

// WorkloadCost returns the normalized workload cost (Eq. 3).
func (s *System) WorkloadCost() float64 { return s.eng.WCostNormalized() }

// NumPeers returns the live |P|: the number of peers currently in the
// system. After a Leave this is smaller than NumSlots; iterate slots
// with NumSlots+IsLive to visit every live peer.
func (s *System) NumPeers() int { return s.eng.NumPeers() }

// NumSlots returns the number of peer slots ever allocated (live or
// vacated). Peer IDs lie in [0, NumSlots()).
func (s *System) NumSlots() int { return s.eng.NumSlots() }

// NumClusters returns the number of non-empty clusters.
func (s *System) NumClusters() int { return s.eng.Config().NumNonEmpty() }

// ClusterSizes returns the sorted sizes of all non-empty clusters.
func (s *System) ClusterSizes() []int { return s.eng.Config().Sizes() }

// ClusterOf returns the cluster ID of a peer, or -1 for a vacated
// slot.
func (s *System) ClusterOf(peer int) int32 { return int32(s.eng.Config().ClusterOf(peer)) }

// PeerCost returns peer p's individual cost in its current cluster
// (Eq. 1). It panics on a vacated slot; guard iteration over
// [0, NumSlots()) with IsLive.
func (s *System) PeerCost(p int) float64 {
	if !s.eng.IsLive(p) {
		panic(fmt.Sprintf("reform: peer %d is not live", p))
	}
	return s.eng.PeerCost(p, s.eng.Config().ClusterOf(p))
}

// IsNashEquilibrium reports whether no peer can improve its individual
// cost by more than tol with a unilateral move.
func (s *System) IsNashEquilibrium(tol float64) bool {
	ok, _ := s.eng.IsNash(tol)
	return ok
}

// DataCategory returns the category of peer p's content (-1 for mixed
// content under the uniform scenario).
func (s *System) DataCategory(p int) int { return s.sys.DataCat[p] }

// RedirectInterest moves fraction frac of peer p's query workload to
// category cat — the §4.2 workload update. Costs are refreshed.
func (s *System) RedirectInterest(p int, cat int, frac float64) {
	s.sys.RedirectWorkload(p, cat, frac, s.rng)
	s.eng.Rebuild()
	s.period = nil
	s.runner.BeginPeriod()
}

// ReplaceContent replaces fraction frac of peer p's data items with
// fresh documents of category cat — the §4.2 content update.
func (s *System) ReplaceContent(p int, cat int, frac float64) {
	s.sys.ReplaceData(p, cat, frac, s.rng)
	s.eng.Rebuild()
	s.period = nil
	s.runner.BeginPeriod()
}

// ChurnPeer replaces the peer at slot p with a newcomer whose data and
// interests are in the given category. The slot keeps its cluster; use
// Join/Leave for true membership changes.
func (s *System) ChurnPeer(p int, cat int) {
	s.sys.ReplacePeerIdentity(p, cat, cat, s.rng)
	s.eng.Rebuild()
	s.period = nil
	s.runner.BeginPeriod()
}

// Join admits a brand-new peer with content and interests in category
// cat. The newcomer starts as a singleton cluster and is integrated by
// the next reformulation run; the join itself is incremental (no
// engine rebuild). It returns the new peer's ID.
func (s *System) Join(cat int) int {
	pid := s.sys.JoinPeer(s.eng, cat, cat, s.rng)
	s.refreshBaseline()
	return pid
}

// Leave retires peer pid from the system incrementally (no engine
// rebuild); its slot is reused by the next joiner.
func (s *System) Leave(pid int) {
	s.sys.LeavePeer(s.eng, pid)
	s.refreshBaseline()
}

// IsLive reports whether slot pid currently holds a peer.
func (s *System) IsLive(pid int) bool { return s.eng.IsLive(pid) }

// NumDistinctQueries returns the number of distinct queries currently
// interned — the width of every QID-indexed engine structure. Under
// churn with novel queries it grows with query history until
// CompactWorkload reclaims the dead entries.
func (s *System) NumDistinctQueries() int { return s.eng.Workload().NumQueries() }

// DeadQueries returns how many distinct queries no live peer demands
// anymore — what a CompactWorkload call would reclaim.
func (s *System) DeadQueries() int { return s.eng.DeadQueries(0) }

// CompactWorkload retires every distinct query no live peer demands
// and densely renumbers the survivors, shrinking all QID-indexed
// engine state in place (no rebuild). Costs, cluster assignments and
// reformulation behavior are preserved exactly; it returns the number
// of queries reclaimed. Long-running systems with churning populations
// call it periodically (e.g. when DeadQueries exceeds half of
// NumDistinctQueries) to keep memory bounded by live demand.
func (s *System) CompactWorkload() int { return s.eng.Compact(0) }

// ClusterAnswer is one cluster's share of a routed query's results.
type ClusterAnswer struct {
	// Cluster is the cluster slot ID.
	Cluster int
	// Size is the cluster's live member count.
	Size int
	// Results is the number of matching items held by the cluster.
	Results int
	// Recall is Results over the query's global result total.
	Recall float64
}

// QueryAnswer is the routing answer for one query: which clusters to
// contact and what fraction of the results each can serve.
type QueryAnswer struct {
	// Total is the global result count over all live peers.
	Total int
	// Clusters lists the clusters holding results, ascending by ID.
	Clusters []ClusterAnswer
}

// QueryBatch routes a batch of ad-hoc term queries against the
// current overlay — the paper's query-routing model: send each query
// to the clusters that can answer it. The whole batch is answered
// from one immutable routing view built at call time (the same
// snapshot-isolated read path the serving daemon publishes), so the
// answers are mutually consistent and the call leaves the system
// untouched: ad-hoc queries are not recorded as demand. Terms never
// seen by any peer match nothing.
func (s *System) QueryBatch(queries [][]string) []QueryAnswer {
	view := s.eng.BuildRoutingView(nil)
	vocab := s.sys.Gen.Vocab()
	var sc core.RouteScratch
	var ids []attr.ID
	out := make([]QueryAnswer, len(queries))
	for i, terms := range queries {
		ids = ids[:0]
		known := true
		for _, t := range terms {
			id, ok := vocab.Lookup(t)
			if !ok {
				known = false
				break
			}
			ids = append(ids, id)
		}
		out[i].Clusters = []ClusterAnswer{}
		if !known || len(ids) == 0 {
			continue
		}
		total, hits := view.Route(attr.NewSet(ids...), &sc)
		out[i].Total = total
		for _, h := range hits {
			out[i].Clusters = append(out[i].Clusters, ClusterAnswer{
				Cluster: int(h.Cluster),
				Size:    h.Size,
				Results: h.Results,
				Recall:  float64(h.Results) / float64(total),
			})
		}
	}
	return out
}

// Query routes a single ad-hoc term query; see QueryBatch.
func (s *System) Query(terms ...string) QueryAnswer {
	return s.QueryBatch([][]string{terms})[0]
}

// Engine exposes the underlying cost engine for advanced use (Nash
// analysis, custom strategies). Mutate the configuration only through
// Engine.Move.
func (s *System) Engine() *core.Engine { return s.eng }
