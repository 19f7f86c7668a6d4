package experiments

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// diffSystems reports the first difference between two systems in what
// a cell can observe or change: workload entries, peer items, category
// bookkeeping and query pools. It returns "" when there is none.
func diffSystems(a, b *System) string {
	if a.WL.NumPeers() != b.WL.NumPeers() || a.WL.NumQueries() != b.WL.NumQueries() || a.WL.Total() != b.WL.Total() {
		return "workload sizes differ"
	}
	for q := 0; q < a.WL.NumQueries(); q++ {
		qid := workload.QID(q)
		if !a.WL.Query(qid).Equal(b.WL.Query(qid)) || a.WL.GlobalCount(qid) != b.WL.GlobalCount(qid) {
			return "query " + a.WL.Query(qid).String() + " differs"
		}
	}
	for p := 0; p < a.WL.NumPeers(); p++ {
		if !slices.Equal(a.WL.Peer(p), b.WL.Peer(p)) {
			return "a peer's workload entries differ"
		}
	}
	if len(a.Peers) != len(b.Peers) {
		return "peer counts differ"
	}
	for i := range a.Peers {
		if (a.Peers[i] == nil) != (b.Peers[i] == nil) {
			return "a slot is live in one system only"
		}
		if a.Peers[i] == nil {
			continue
		}
		if !slices.EqualFunc(a.Peers[i].Items(), b.Peers[i].Items(), attr.Set.Equal) {
			return "a peer's items differ"
		}
	}
	if !slices.Equal(a.DataCat, b.DataCat) || !slices.Equal(a.QueryCat, b.QueryCat) {
		return "category bookkeeping differs"
	}
	if len(a.pools) != len(b.pools) {
		return "pool counts differ"
	}
	for c := range a.pools {
		if !slices.Equal(a.pools[c], b.pools[c]) {
			return "a query pool differs"
		}
	}
	return ""
}

// perturbations are the operations cells apply to a fork, each
// returning an engine over the perturbed system.
var perturbations = []struct {
	name  string
	apply func(sys *System, rng *stats.RNG) *core.Engine
}{
	{"RedirectWorkload", func(sys *System, rng *stats.RNG) *core.Engine {
		cfg := sys.CategoryConfig()
		for _, pid := range cfg.Members(0) {
			sys.RedirectWorkload(pid, 1, 0.6, rng)
		}
		return sys.NewEngine(cfg)
	}},
	{"ReplaceData", func(sys *System, rng *stats.RNG) *core.Engine {
		cfg := sys.CategoryConfig()
		for i, pid := range cfg.Members(0) {
			sys.ReplaceData(pid, 1, float64(i%3)/2, rng)
		}
		sys.RefreshPool(0)
		return sys.NewEngine(cfg)
	}},
	{"ReplacePeerIdentity", func(sys *System, rng *stats.RNG) *core.Engine {
		cfg := sys.CategoryConfig()
		for _, pid := range cfg.Members(0)[:3] {
			sys.ReplacePeerIdentity(pid, 2, 3, rng)
		}
		return sys.NewEngine(cfg)
	}},
	{"JoinLeavePeer", func(sys *System, rng *stats.RNG) *core.Engine {
		eng := sys.NewEngine(sys.CategoryConfig())
		first := sys.JoinPeer(eng, 1, 1, rng)
		for i := 0; i < 4; i++ {
			sys.JoinPeer(eng, i%sys.Params.Categories, 2, rng)
		}
		sys.LeavePeer(eng, 3)
		sys.LeavePeer(eng, first)
		sys.JoinPeer(eng, 0, 0, rng)
		return eng
	}},
}

// TestForkMatchesBuild pins the fork contract: perturbing a fork is
// indistinguishable from perturbing a freshly built system, down to the
// cost bits before and after a protocol run, and leaves the base as
// Build made it.
func TestForkMatchesBuild(t *testing.T) {
	p := fastParams()
	p.MaxRounds = 40
	base := buildBase(p, SameCategory)
	for _, pert := range perturbations {
		t.Run(pert.name, func(t *testing.T) {
			fork, fresh := base.Fork(), Build(p, SameCategory)
			if d := diffSystems(fork, fresh); d != "" {
				t.Fatalf("unperturbed fork vs fresh build: %s", d)
			}
			const seed = 0x9e3779b97f4a7c15
			engFork := pert.apply(fork, stats.NewRNG(seed))
			engFresh := pert.apply(fresh, stats.NewRNG(seed))
			if d := diffSystems(fork, fresh); d != "" {
				t.Fatalf("perturbed fork vs perturbed build: %s", d)
			}
			if a, b := engFork.SCost(), engFresh.SCost(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("SCost after the perturbation: fork %v, build %v", a, b)
			}
			rptFork := fork.NewRunner(engFork, core.NewSelfish(), true).Run()
			rptFresh := fresh.NewRunner(engFresh, core.NewSelfish(), true).Run()
			if rptFork.RoundsRun != rptFresh.RoundsRun || rptFork.Messages != rptFresh.Messages {
				t.Errorf("protocol run: fork %d rounds %d messages, build %d rounds %d messages",
					rptFork.RoundsRun, rptFork.Messages, rptFresh.RoundsRun, rptFresh.Messages)
			}
			if a, b := engFork.SCost(), engFresh.SCost(); math.Float64bits(a) != math.Float64bits(b) {
				t.Errorf("SCost after the run: fork %v, build %v", a, b)
			}
			if !slices.Equal(engFork.Config().Assignment(), engFresh.Config().Assignment()) {
				t.Error("final assignments differ")
			}
			if d := diffSystems(base, Build(p, SameCategory)); d != "" {
				t.Errorf("base after its fork was perturbed vs fresh build: %s", d)
			}
		})
	}
}

// TestForksIsolatedConcurrently has many goroutines fork one base,
// perturb content, workload and membership and build engines at once,
// the way the worker pool runs cells. Each result must equal the one
// the same perturbation yields with nothing else running, and the base
// must come out unchanged; under -race it also proves the forks write
// nothing they share.
func TestForksIsolatedConcurrently(t *testing.T) {
	p := fastParams()
	p.MaxRounds = 10
	base := buildBase(p, SameCategory)
	cell := func(g int) uint64 {
		sys := base.Fork()
		rng := stats.NewRNG(uint64(g) + 1)
		var eng *core.Engine
		for k := 0; k <= g%len(perturbations); k++ {
			eng = perturbations[k].apply(sys, rng)
		}
		sys.NewRunner(eng, core.NewAltruistic(), false).Run()
		return math.Float64bits(eng.SCost())
	}

	const goroutines = 16
	got := make([]uint64, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = cell(g)
		}()
	}
	wg.Wait()
	for g := range got {
		if want := cell(g); got[g] != want {
			t.Errorf("cell %d: SCost bits %x beside other cells, %x alone", g, got[g], want)
		}
	}
	if d := diffSystems(base, Build(p, SameCategory)); d != "" {
		t.Errorf("base after concurrent forks vs fresh build: %s", d)
	}
}
