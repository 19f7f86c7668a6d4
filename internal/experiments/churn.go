package experiments

import (
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// RunChurn simulates session churn over successive maintenance
// periods: each period, a fraction of the live population departs and
// as many newcomers (fresh content and interests in a random
// category) join as singleton clusters, both through the engine's
// incremental membership path — no Rebuild — so churn sweeps scale to
// populations where a per-period full rebuild is prohibitive. One
// protocol period then runs. The series records the normalized social
// cost before and after maintenance each period — the paper's
// headline claim is that periodic local reformulation sustains system
// quality under such churn.
func RunChurn(p Params, periods int, churnFraction float64) *metrics.Series {
	if periods <= 0 {
		periods = 10
	}
	if churnFraction <= 0 {
		churnFraction = 0.05
	}
	p.DemandZipfS = 0
	out := metrics.NewSeries("Extension: social cost under churn (selfish maintenance, incremental join/leave)", "period")
	out.AddColumn("before-maintenance")
	out.AddColumn("after-maintenance")
	out.AddColumn("clusters")

	sys := Build(p, SameCategory)
	eng := sys.NewEngine(sys.CategoryConfig())
	runner := sys.NewRunner(eng, core.NewSelfish(), true)
	rng := stats.NewRNG(p.Seed ^ 0xff51afd7ed558ccd)

	k := int(churnFraction*float64(p.Peers) + 0.5)
	var live []int
	for period := 1; period <= periods; period++ {
		// Departures: k random live peers leave.
		live = live[:0]
		for pid := 0; pid < eng.NumSlots(); pid++ {
			if eng.IsLive(pid) {
				live = append(live, pid)
			}
		}
		leave := k
		if leave > len(live) {
			leave = len(live)
		}
		for _, idx := range rng.Perm(len(live))[:leave] {
			sys.LeavePeer(eng, live[idx])
		}
		// Arrivals: k newcomers in random categories join as singletons;
		// the maintenance period integrates them.
		for i := 0; i < k; i++ {
			cat := rng.Intn(p.Categories)
			sys.JoinPeer(eng, cat, cat, rng)
		}
		before := eng.SCostNormalized()
		runner.Run()
		out.AddPoint(float64(period), before, eng.SCostNormalized(), float64(eng.Config().NumNonEmpty()))
	}
	return out
}

// RunFlashCrowd models an arrival burst: a converged same-category
// system absorbs `burst` newcomers — all with content and interests in
// one hot category, as singleton clusters — runs selfish maintenance,
// then the whole crowd departs at once and maintenance runs again.
// Joins and leaves use the incremental membership path exclusively.
// One row per burst size; cells run on the worker pool, each over a
// private fork of one System (joins mutate the workload, the peer list
// and the query pools, all of which a fork owns).
func RunFlashCrowd(p Params, bursts []int) *metrics.Table {
	if len(bursts) == 0 {
		bursts = []int{maxInt(1, p.Peers/10), maxInt(2, p.Peers/4), maxInt(3, p.Peers/2)}
	}
	t := metrics.NewTable("Extension: flash crowd (arrival burst, incremental membership)",
		"burst", "scost-settled", "scost-arrival", "scost-absorbed", "clusters-peak",
		"scost-departed", "scost-recovered", "clusters-final")
	base := buildBase(p, SameCategory)
	for _, r := range p.runRows(len(bursts), func(i int) []string {
		burst := bursts[i]
		sys := base.Fork()
		eng := sys.NewEngine(sys.CategoryConfig())
		runner := sys.NewRunner(eng, core.NewSelfish(), true)
		rng := stats.NewRNG(p.Seed ^ 0x94d049bb133111eb ^ uint64(burst)<<20)
		runner.Run()
		settled := eng.SCostNormalized()

		const hot = 0
		pids := make([]int, 0, burst)
		for j := 0; j < burst; j++ {
			pids = append(pids, sys.JoinPeer(eng, hot, hot, rng))
		}
		arrival := eng.SCostNormalized()
		runner.Run()
		absorbed := eng.SCostNormalized()
		peak := eng.Config().NumNonEmpty()

		for _, pid := range pids {
			sys.LeavePeer(eng, pid)
		}
		departed := eng.SCostNormalized()
		runner.Run()
		recovered := eng.SCostNormalized()
		return []string{
			metrics.I(burst), metrics.F(settled, 4), metrics.F(arrival, 4),
			metrics.F(absorbed, 4), metrics.I(peak),
			metrics.F(departed, 4), metrics.F(recovered, 4),
			metrics.I(eng.Config().NumNonEmpty()),
		}
	}) {
		t.AddRow(r...)
	}
	return t
}

// RunLookupCost addresses a §6 open issue: the expected look-up cost as
// a function of the number of clusters and their sizes. Under the
// paper's fully connected intra-cluster topology, answering a query
// costs one hop per cluster contacted plus θ(|c|) messages inside each
// contacted cluster; with the initiator's cluster contacted first and
// remote clusters contacted only for missing results, the expected
// cost per query is
//
//	θ(|c_own|) + Σ_{remote c} miss-driven(θ(|c|) + 1)
//
// weighted by where the query's results actually reside. The table
// reports this for the configurations the selfish protocol reaches
// from several initial cluster counts.
func RunLookupCost(p Params) *metrics.Table {
	t := metrics.NewTable("Extension: expected per-query lookup cost vs clustering",
		"init", "#clusters", "mean-size", "in-cluster-recall", "lookup-cost")
	sys := Build(p, SameCategory)
	inits := []InitKind{InitSingletons, InitRandomM, InitFewer, InitMore}
	if p.workerCount() > 1 {
		sys.Warm()
	}
	for _, r := range p.runRows(len(inits), func(i int) []string {
		init := inits[i]
		rng := stats.NewRNG(p.Seed ^ 0xc4ceb9fe1a85ec53)
		cfg := sys.InitialConfig(init, rng)
		eng := sys.NewEngine(cfg)
		sys.NewRunner(eng, core.NewSelfish(), true).Run()

		nonEmpty := eng.Config().NonEmpty()
		meanSize := float64(p.Peers) / float64(len(nonEmpty))
		var recallSum, lookupSum, weightSum float64
		wl := sys.WL
		for pid := 0; pid < p.Peers; pid++ {
			own := eng.Config().ClusterOf(pid)
			for _, entry := range wl.Peer(pid) {
				w := float64(entry.Count)
				if eng.TotalResults(entry.Q) == 0 {
					continue
				}
				inRecall := eng.ClusterRecall(entry.Q, own)
				cost := p.Theta.F(eng.Config().Size(own))
				for _, c := range nonEmpty {
					if c == own {
						continue
					}
					r := eng.ClusterRecall(entry.Q, c)
					if r > 0 {
						// Contact the remote cluster: one routing hop
						// plus the intra-cluster evaluation.
						cost += 1 + p.Theta.F(eng.Config().Size(c))
					}
				}
				recallSum += w * inRecall
				lookupSum += w * cost
				weightSum += w
			}
		}
		return []string{init.String(), metrics.I(len(nonEmpty)), metrics.F(meanSize, 1),
			metrics.F(recallSum/weightSum, 3), metrics.F(lookupSum/weightSum, 1)}
	}) {
		t.AddRow(r...)
	}
	return t
}
