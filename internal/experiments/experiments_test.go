package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// fastParams is a small but structured instance used by most driver
// tests: 60 peers over 6 categories.
func fastParams() Params {
	p := DefaultParams()
	p.Peers = 60
	p.Categories = 6
	p.Corpus.Categories = 6
	p.TotalQueries = 360
	p.MaxRounds = 150
	return p
}

func TestBuildInvariants(t *testing.T) {
	for _, sc := range []Scenario{SameCategory, DifferentCategory, Uniform} {
		p := fastParams()
		sys := Build(p, sc)
		if err := sys.WL.Validate(); err != nil {
			t.Fatalf("%v: %v", sc, err)
		}
		// Zipf apportioning rounds per peer; the realized total may be
		// off by a few instances.
		if got := sys.WL.Total(); got < p.TotalQueries*9/10 || got > p.TotalQueries*11/10 {
			t.Errorf("%v: workload %d far from requested %d", sc, got, p.TotalQueries)
		}
		for i, pr := range sys.Peers {
			if pr.NumItems() != p.DocsPerPeer {
				t.Fatalf("%v peer %d: %d items", sc, i, pr.NumItems())
			}
			if sys.WL.PeerTotal(i) == 0 {
				t.Fatalf("%v peer %d: empty workload", sc, i)
			}
		}
		switch sc {
		case SameCategory:
			if sys.M != p.Categories {
				t.Errorf("M=%d want %d", sys.M, p.Categories)
			}
			for i := range sys.Peers {
				if sys.DataCat[i] != sys.QueryCat[i] {
					t.Errorf("peer %d: data %d != query %d", i, sys.DataCat[i], sys.QueryCat[i])
				}
			}
		case DifferentCategory:
			if sys.M != p.Categories*(p.Categories-1) {
				t.Errorf("M=%d want %d", sys.M, p.Categories*(p.Categories-1))
			}
			for i := range sys.Peers {
				if sys.DataCat[i] == sys.QueryCat[i] {
					t.Errorf("peer %d: data == query category %d", i, sys.DataCat[i])
				}
			}
		case Uniform:
			for i := range sys.Peers {
				if sys.DataCat[i] != -1 {
					t.Errorf("peer %d: uniform scenario has category %d", i, sys.DataCat[i])
				}
			}
		}
	}
}

func TestBuildDeterminism(t *testing.T) {
	p := fastParams()
	a := Build(p, SameCategory)
	b := Build(p, SameCategory)
	if a.WL.Total() != b.WL.Total() || a.WL.NumQueries() != b.WL.NumQueries() {
		t.Fatal("workloads differ across identical builds")
	}
	for i := range a.Peers {
		ia, ib := a.Peers[i].Items(), b.Peers[i].Items()
		for d := range ia {
			if !ia[d].Equal(ib[d]) {
				t.Fatalf("peer %d item %d differs", i, d)
			}
		}
	}
}

func TestEveryQueryHasResults(t *testing.T) {
	// Queries are sampled from the actual texts, so every query must
	// have at least one result somewhere in the system.
	sys := Build(fastParams(), SameCategory)
	eng := sys.NewEngine(sys.CategoryConfig())
	for q := 0; q < sys.WL.NumQueries(); q++ {
		if eng.TotalResults(workload.QID(q)) == 0 {
			t.Fatalf("query %d has zero results system-wide", q)
		}
	}
}

func TestInitialConfigs(t *testing.T) {
	sys := Build(fastParams(), SameCategory)
	rng := stats.NewRNG(1)
	if got := sys.InitialConfig(InitSingletons, rng).NumNonEmpty(); got != 60 {
		t.Errorf("singletons: %d clusters", got)
	}
	if got := sys.InitialConfig(InitRandomM, rng).NumNonEmpty(); got > sys.M {
		t.Errorf("m=M init has %d > %d clusters", got, sys.M)
	}
	fewer := sys.InitialConfig(InitFewer, rng).NumNonEmpty()
	more := sys.InitialConfig(InitMore, rng).NumNonEmpty()
	if fewer >= more {
		t.Errorf("fewer=%d !< more=%d", fewer, more)
	}
}

func TestCategoryConfigGroupsByCategory(t *testing.T) {
	sys := Build(fastParams(), SameCategory)
	cfg := sys.CategoryConfig()
	for i := range sys.Peers {
		if int(cfg.ClusterOf(i)) != sys.DataCat[i] {
			t.Fatalf("peer %d in cluster %d, category %d", i, cfg.ClusterOf(i), sys.DataCat[i])
		}
	}
}

func TestSameCategoryScenarioConvergesToCleanClustering(t *testing.T) {
	// The headline integration check (Table 1, scenario 1, init i):
	// from singletons the selfish protocol converges near the category
	// clustering with near-zero recall cost.
	p := fastParams()
	sys := Build(p, SameCategory)
	rng := stats.NewRNG(p.Seed ^ 0x517cc1b727220a95)
	cfg := sys.InitialConfig(InitSingletons, rng)
	eng := sys.NewEngine(cfg)
	rpt := sys.NewRunner(eng, core.NewSelfish(), true).Run()
	if !rpt.Converged {
		t.Fatalf("no convergence: %+v", rpt)
	}
	if rpt.FinalClusters < p.Categories || rpt.FinalClusters > p.Categories+3 {
		t.Errorf("clusters=%d want ~%d", rpt.FinalClusters, p.Categories)
	}
	ideal := p.Alpha * p.Theta.F(p.Peers/p.Categories) / float64(p.Peers)
	if rpt.FinalSCost > 2*ideal {
		t.Errorf("SCost=%g far above ideal %g", rpt.FinalSCost, ideal)
	}
}

func TestRedirectWorkloadPreservesTotals(t *testing.T) {
	sys := Build(fastParams(), SameCategory)
	rng := stats.NewRNG(5)
	for _, frac := range []float64{0.3, 0.7, 1.0} {
		before := sys.WL.PeerTotal(3)
		sys.RedirectWorkload(3, 1, frac, rng)
		if after := sys.WL.PeerTotal(3); after != before {
			t.Fatalf("frac=%g: total %d -> %d", frac, before, after)
		}
		if err := sys.WL.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRedirectWorkloadMovesInterest(t *testing.T) {
	sys := Build(fastParams(), SameCategory)
	rng := stats.NewRNG(6)
	sys.RedirectWorkload(0, 2, 1.0, rng)
	for _, e := range sys.WL.Peer(0) {
		q := sys.WL.Query(e.Q)
		for _, id := range q.IDs() {
			if c, ok := sys.Gen.CategoryOf(id); ok && c != 2 {
				t.Fatalf("query %v still targets category %d", q, c)
			}
		}
	}
}

func TestReplaceDataChangesCategory(t *testing.T) {
	sys := Build(fastParams(), SameCategory)
	rng := stats.NewRNG(7)
	sys.ReplaceData(0, 3, 1.0, rng)
	if sys.DataCat[0] != 3 {
		t.Fatalf("DataCat=%d want 3", sys.DataCat[0])
	}
	for _, it := range sys.Peers[0].Items() {
		for _, id := range it.IDs() {
			if c, ok := sys.Gen.CategoryOf(id); ok && c != 3 {
				t.Fatalf("item still holds category-%d term", c)
			}
		}
	}
}

func TestReplacePeerIdentity(t *testing.T) {
	sys := Build(fastParams(), SameCategory)
	rng := stats.NewRNG(8)
	oldTotal := sys.WL.PeerTotal(5)
	sys.ReplacePeerIdentity(5, 4, 4, rng)
	if sys.DataCat[5] != 4 || sys.QueryCat[5] != 4 {
		t.Fatal("categories not updated")
	}
	if sys.WL.PeerTotal(5) != oldTotal {
		t.Fatalf("newcomer demand %d want %d", sys.WL.PeerTotal(5), oldTotal)
	}
	if err := sys.WL.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTable1CellsComplete(t *testing.T) {
	p := fastParams()
	p.MaxRounds = 80
	res := RunTable1(p)
	if len(res.Cells) != 3*4*2 {
		t.Fatalf("cells=%d want 24", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Clusters <= 0 || c.SCost <= 0 || c.WCost <= 0 {
			t.Fatalf("degenerate cell %+v", c)
		}
	}
	tb := res.Table()
	if len(tb.Rows) != 12 {
		t.Fatalf("table rows=%d", len(tb.Rows))
	}
}

func TestFigureDriversShapes(t *testing.T) {
	p := fastParams()
	p.MaxRounds = 60

	f1 := RunFig1(p, 8)
	if f1.SCost.Len() != 9 || f1.WCost.Len() != 9 {
		t.Fatalf("fig1 lengths %d/%d", f1.SCost.Len(), f1.WCost.Len())
	}
	// Costs never increase along the selfish trajectory's endpoints.
	s := f1.SCost.Column("selfish")
	if s[len(s)-1] > s[0] {
		t.Errorf("fig1 selfish cost rose: %g -> %g", s[0], s[len(s)-1])
	}

	f2 := RunFig2(p)
	for _, ser := range []int{f2.UpdatedPeers.Len(), f2.UpdatedWorkload.Len()} {
		if ser != 11 {
			t.Fatalf("fig2 length %d", ser)
		}
	}
	// At zero perturbation the reformulated cost equals the unperturbed
	// baseline for both strategies.
	if f2.UpdatedPeers.Column("selfish")[0] != f2.UpdatedPeers.Column("altruistic")[0] {
		t.Error("fig2 x=0 should agree across strategies")
	}

	f3 := RunFig3(p)
	if f3.UpdatedPeers.Len() != 11 || f3.UpdatedData.Len() != 11 {
		t.Fatal("fig3 lengths")
	}
	// The no-reform counterfactual grows with the update level.
	nr := f3.UpdatedPeers.Column("no-reform")
	if nr[10] <= nr[0] {
		t.Errorf("fig3 no-reform flat: %g -> %g", nr[0], nr[10])
	}

	f4 := RunFig4(p, []float64{0, 2})
	if f4.Len() != 11 {
		t.Fatal("fig4 length")
	}
	a0 := f4.Column("alpha=0")
	a2 := f4.Column("alpha=2")
	// With alpha=0 there is no membership cost: the peer's cost is
	// never above the alpha=2 curve.
	for i := range a0 {
		if a0[i] > a2[i]+1e-9 {
			t.Errorf("fig4 point %d: alpha=0 cost %g > alpha=2 cost %g", i, a0[i], a2[i])
		}
	}
}

// TestAsyncDriversDeterministicAcrossWorkers pins that the async
// drivers' output is byte-identical for every worker-pool size: each
// cell derives its randomness from (Seed, cell index) alone, so the
// parallel schedule must be unobservable in the tables.
func TestAsyncDriversDeterministicAcrossWorkers(t *testing.T) {
	p := fastParams()
	p.MaxRounds = 60
	run := func(workers int) (string, string) {
		q := p
		q.Workers = workers
		return RunAsyncComparison(q).CSV(), RunAsyncNet(q).CSV()
	}
	cmp1, net1 := run(1)
	for _, workers := range []int{2, 4} {
		cmpN, netN := run(workers)
		if cmpN != cmp1 {
			t.Errorf("RunAsyncComparison diverges at Workers=%d:\n%s\nvs Workers=1:\n%s", workers, cmpN, cmp1)
		}
		if netN != net1 {
			t.Errorf("RunAsyncNet diverges at Workers=%d:\n%s\nvs Workers=1:\n%s", workers, netN, net1)
		}
	}
}

// TestAsyncNetDriverShape pins the asyncnet table layout: per scenario
// one oracle row plus one row per fault profile, with the ideal-network
// row reproducing the oracle row's metrics exactly.
func TestAsyncNetDriverShape(t *testing.T) {
	p := fastParams()
	p.MaxRounds = 60
	tb := RunAsyncNet(p)
	perScenario := 1 + len(asyncNetProfiles())
	if len(tb.Rows) != 3*perScenario {
		t.Fatalf("rows=%d, want %d", len(tb.Rows), 3*perScenario)
	}
	for s := 0; s < 3; s++ {
		oracle, ideal := tb.Rows[s*perScenario], tb.Rows[s*perScenario+1]
		// converged, rounds, moves, #clusters, SCost, msgs must match
		// the oracle on the ideal network (columns 2..6 and 8).
		for _, col := range []int{2, 3, 4, 5, 6, 8} {
			if oracle[col] != ideal[col] {
				t.Errorf("scenario %s col %d: ideal %q vs oracle %q", oracle[0], col, ideal[col], oracle[col])
			}
		}
		if ideal[7] != "0.000" {
			t.Errorf("scenario %s: ideal dSCost %q, want 0.000", oracle[0], ideal[7])
		}
	}
}

// asyncNetGolden is the SHA-256 of the asyncnet table's CSV at
// fastParams. It pins the latency and lossy rows too, where
// representatives decide their own grants on partial views, which no
// oracle comparison covers.
const asyncNetGolden = "618d0b66d95406197d4f1182535d7b3f7b80055efdb7a238f0fb02eeedf2f97e"

// TestAsyncNetGolden pins -exp asyncnet's output, serially and on four
// workers.
func TestAsyncNetGolden(t *testing.T) {
	p := fastParams()
	for _, workers := range []int{1, 4} {
		p.Workers = workers
		sum := sha256.Sum256([]byte(RunAsyncNet(p).CSV()))
		if got := hex.EncodeToString(sum[:]); got != asyncNetGolden {
			t.Errorf("asyncnet table on %d workers hashes to %s, want %s", workers, got, asyncNetGolden)
		}
	}
}

func TestRoutingAblationErrorShrinksWithBudget(t *testing.T) {
	p := fastParams()
	p.MaxRounds = 40
	tb := RunRoutingAblation(p)
	if len(tb.Rows) != 5 {
		t.Fatalf("rows=%d", len(tb.Rows))
	}
	// The flood row (last) must have zero estimation error; the
	// smallest budget must have the largest error.
	var errs []string
	for _, row := range tb.Rows {
		errs = append(errs, row[2])
	}
	if errs[len(errs)-1] != "0.0000" {
		t.Errorf("flood error %s, want 0.0000", errs[len(errs)-1])
	}
	if errs[0] <= errs[len(errs)-2] {
		t.Errorf("probe-1 error %s not above probe-8 error %s", errs[0], errs[len(errs)-2])
	}
}

func TestMultiClusterDiminishingReturns(t *testing.T) {
	p := fastParams()
	p.MaxRounds = 60
	tb := RunMultiClusterAnalysis(p, 4)
	if len(tb.Rows) != 4 {
		t.Fatalf("%d rows, want one per k = 1..4", len(tb.Rows))
	}
	// Mean pcost is non-increasing in the number of joined clusters.
	prev := ""
	for i, row := range tb.Rows {
		if i > 0 && row[1] > prev {
			t.Errorf("mean pcost rose from %s to %s at k=%d", prev, row[1], i+1)
		}
		prev = row[1]
	}
}

func TestChurnMaintenanceImprovesCost(t *testing.T) {
	p := fastParams()
	s := RunChurn(p, 5, 0.1)
	before := s.Column("before-maintenance")
	after := s.Column("after-maintenance")
	if len(before) != 5 || len(after) != 5 {
		t.Fatalf("%d and %d periods, want 5", len(before), len(after))
	}
	for i := range before {
		if after[i] > before[i]+1e-9 {
			t.Errorf("period %d: maintenance worsened cost %g -> %g", i+1, before[i], after[i])
		}
	}
}
