package experiments

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/attr"
	"repro/internal/cluster"
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
// returning an engine over the perturbed system: a new one when eng is
// nil (the Build and Fork routes), else eng itself, which the caller
// built over sys before the perturbation (the ForkOnto route).
var perturbations = []struct {
	name  string
	apply func(sys *System, eng *core.Engine, rng *stats.RNG) *core.Engine
}{
	{"RedirectWorkload", func(sys *System, eng *core.Engine, rng *stats.RNG) *core.Engine {
		cfg := sys.CategoryConfig()
		for _, pid := range cfg.Members(0) {
			sys.RedirectWorkload(pid, 1, 0.6, rng)
		}
		return engineAfter(sys, eng, cfg)
	}},
	{"ReplaceData", func(sys *System, eng *core.Engine, rng *stats.RNG) *core.Engine {
		cfg := sys.CategoryConfig()
		for i, pid := range cfg.Members(0) {
			sys.ReplaceData(pid, 1, float64(i%3)/2, rng)
		}
		sys.RefreshPool(0)
		return engineAfter(sys, eng, cfg)
	}},
	{"ReplacePeerIdentity", func(sys *System, eng *core.Engine, rng *stats.RNG) *core.Engine {
		cfg := sys.CategoryConfig()
		for _, pid := range cfg.Members(0)[:3] {
			sys.ReplacePeerIdentity(pid, 2, 3, rng)
		}
		return engineAfter(sys, eng, cfg)
	}},
	{"JoinLeavePeer", func(sys *System, eng *core.Engine, rng *stats.RNG) *core.Engine {
		if eng == nil {
			eng = sys.NewEngine(sys.CategoryConfig())
		}
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

// engineAfter returns the engine that evaluates sys once its content
// or workload was perturbed: a new one over cfg, the configuration sys
// had before, or eng, which was built over it then, rebuilt.
func engineAfter(sys *System, eng *core.Engine, cfg *cluster.Config) *core.Engine {
	if eng == nil {
		return sys.NewEngine(cfg)
	}
	eng.Rebuild()
	return eng
}

// TestForkMatchesBuild pins the two ways a cell gets a private system:
// perturbing a Fork, and perturbing a ForkOnto of a Clone of the base's
// engine and rebuilding it, are each indistinguishable from perturbing
// a freshly built system and building an engine over it, down to the
// cost bits before and after a protocol run, and both leave the base,
// and the base engine, as they were.
func TestForkMatchesBuild(t *testing.T) {
	p := fastParams()
	p.MaxRounds = 40
	base := buildBase(p, SameCategory)
	baseEng := base.NewEngine(base.CategoryConfig())
	baseBits := [2]uint64{math.Float64bits(baseEng.SCost()), math.Float64bits(baseEng.WCost())}
	routes := []struct {
		name string
		open func() (*System, *core.Engine)
	}{
		{"fork", func() (*System, *core.Engine) { return base.Fork(), nil }},
		{"clone", func() (*System, *core.Engine) { eng := baseEng.Clone(); return base.ForkOnto(eng), eng }},
	}
	for _, pert := range perturbations {
		t.Run(pert.name, func(t *testing.T) {
			for _, route := range routes {
				t.Run(route.name, func(t *testing.T) {
					sys, eng := route.open()
					fresh := Build(p, SameCategory)
					if d := diffSystems(sys, fresh); d != "" {
						t.Fatalf("unperturbed %s vs fresh build: %s", route.name, d)
					}
					const seed = 0x9e3779b97f4a7c15
					engSys := pert.apply(sys, eng, stats.NewRNG(seed))
					engFresh := pert.apply(fresh, nil, stats.NewRNG(seed))
					if d := diffSystems(sys, fresh); d != "" {
						t.Fatalf("perturbed %s vs perturbed build: %s", route.name, d)
					}
					if a, b := engSys.SCost(), engFresh.SCost(); math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("SCost after the perturbation: %s %v, build %v", route.name, a, b)
					}
					rptSys := sys.NewRunner(engSys, core.NewSelfish(), true).Run()
					rptFresh := fresh.NewRunner(engFresh, core.NewSelfish(), true).Run()
					if rptSys.RoundsRun != rptFresh.RoundsRun || rptSys.Messages != rptFresh.Messages {
						t.Errorf("protocol run: %s %d rounds %d messages, build %d rounds %d messages",
							route.name, rptSys.RoundsRun, rptSys.Messages, rptFresh.RoundsRun, rptFresh.Messages)
					}
					if a, b := engSys.SCost(), engFresh.SCost(); math.Float64bits(a) != math.Float64bits(b) {
						t.Errorf("SCost after the run: %s %v, build %v", route.name, a, b)
					}
					if !slices.Equal(engSys.Config().Assignment(), engFresh.Config().Assignment()) {
						t.Error("final assignments differ")
					}
					pristine := Build(p, SameCategory)
					if d := diffSystems(base, pristine); d != "" {
						t.Errorf("base after its %s was perturbed vs fresh build: %s", route.name, d)
					}
					got := [2]uint64{math.Float64bits(baseEng.SCost()), math.Float64bits(baseEng.WCost())}
					if got != baseBits || baseEng.Stale() ||
						!slices.Equal(baseEng.Config().Assignment(), pristine.CategoryConfig().Assignment()) {
						t.Errorf("base engine changed under its %s: cost bits %x (were %x), stale %v",
							route.name, got, baseBits, baseEng.Stale())
					}
				})
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
			eng = perturbations[k].apply(sys, nil, rng)
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

// TestWarmMakesReadsRaceFree builds engines on eight goroutines over
// one warmed System, first with the single-term workload Build makes,
// where a peer's only lazy write is building its index, then with
// multi-term queries added, which a peer answers by intersecting its
// postings. Every engine must cost what one built alone does; under
// -race the test fails if Warm leaves an index unbuilt.
func TestWarmMakesReadsRaceFree(t *testing.T) {
	p := fastParams()
	p.Workers = 4
	for _, multiTerm := range []bool{false, true} {
		sys := Build(p, SameCategory)
		if multiTerm {
			for i, pr := range sys.Peers {
				for _, it := range pr.Items()[:2] {
					sys.WL.Add(i, attr.NewSet(it.IDs()[:2+i%2]...), 1+i%3)
				}
			}
		}
		sys.Warm()

		build := func(g int) uint64 {
			eng := sys.NewEngine(sys.InitialConfig(InitKind(g%4), stats.NewRNG(uint64(g/4))))
			return math.Float64bits(eng.SCost())
		}
		const goroutines = 8
		got := make([]uint64, goroutines)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = build(g)
			}()
		}
		wg.Wait()
		for g := range got {
			if want := build(g); got[g] != want {
				t.Errorf("multi-term %v, engine %d: SCost bits %x beside other builds, %x alone", multiTerm, g, got[g], want)
			}
		}
	}
}

// TestCloneWritersConcurrently has eight goroutines clone one engine
// nobody writes, the way the update figures clone their base, and drive
// both write paths on their clones: a ForkOnto edit of workload and
// content followed by Rebuild, then a join and a leave. Each clone must
// end bit for bit where the same ops take it with nothing else running,
// and the base engine where it started; under -race the test pins
// Clone's promise now that a clone shares what it only reads: any
// number of goroutines may clone one frozen engine, and each clone's
// first write copies what it shares.
func TestCloneWritersConcurrently(t *testing.T) {
	p := fastParams()
	base := buildBase(p, SameCategory)
	baseEng := base.NewEngine(base.CategoryConfig())
	digest := func(eng *core.Engine) []uint64 {
		out := []uint64{math.Float64bits(eng.SCost()), math.Float64bits(eng.WCost())}
		for pid := 0; pid < eng.NumSlots(); pid++ {
			if eng.IsLive(pid) {
				ev := eng.EvaluateMoves(pid)
				out = append(out, uint64(ev.Best), math.Float64bits(ev.CurCost), math.Float64bits(ev.BestCost))
			}
		}
		return out
	}
	before := digest(baseEng)
	cell := func(g int) []uint64 {
		eng := baseEng.Clone()
		sys := base.ForkOnto(eng)
		rng := stats.NewRNG(uint64(g) + 1)
		members := eng.Config().Members(0)
		sys.RedirectWorkload(members[g%len(members)], 1, 0.5, rng)
		sys.ReplaceData(members[(g+1)%len(members)], 1, 1, rng)
		eng.Rebuild()
		sys.LeavePeer(eng, sys.JoinPeer(eng, g%p.Categories, 1, rng))
		return digest(eng)
	}

	const goroutines = 8
	want := make([][]uint64, goroutines)
	for g := range want {
		want[g] = cell(g)
	}
	got := make([][]uint64, goroutines)
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
		if !slices.Equal(got[g], want[g]) {
			t.Errorf("clone %d ends differently beside other clones than alone", g)
		}
	}
	if baseEng.Stale() || !slices.Equal(digest(baseEng), before) {
		t.Error("the base engine changed under its clones")
	}
}
