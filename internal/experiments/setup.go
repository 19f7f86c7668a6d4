// Package experiments contains one driver per table and figure of the
// paper's evaluation (§4) plus ablations and extensions. Every
// driver is deterministic given a seed and returns metrics tables or
// series that cmd/reform renders.
//
// # Parallel execution
//
// The experiment cells of a driver — one (scenario, init, strategy)
// run for Table 1, one (level, strategy) point for the figure sweeps —
// are independent: each owns its RNG (derived from the seed, never
// from scheduling), its cluster configuration and its cost engine.
// Drivers therefore fan cells out over a worker pool sized by
// Params.Workers (default: one worker per CPU) and assemble results in
// a fixed cell order, so the output is byte-identical for every worker
// count, including the serial Workers=1 path.
//
// Cells that share a built System only read it; System.Warm freezes
// the lazily built peer query indexes up front so those reads are
// race-free.
//
// # What a cell costs
//
// A cell pays for what it perturbs, not for the system it starts from.
// The paper's own drivers (Table 1, Figs 1-4; RunPaper runs all five
// over shared systems) build each distinct starting engine once and
// run every cell on an engine of its own: a core.Engine.Clone of it,
// or, for the last of the cells that start from one engine, the engine
// itself once their clones are taken (cellEngines). A clone copies the
// configuration, the cells and the scalar costs, which a protocol run
// writes, and shares everything else with its original until one of
// them writes it: the peers' content, the workload's intern table, the
// per-peer and per-query aggregates and the query index (see
// core.Engine.Clone). The §4.2 update experiments go further: a
// perturbation level clones the figure's one base engine, perturbs a
// System.ForkOnto of the clone, and calls Rebuild, which re-asks only
// the peers the perturbation touched; the edits and the Rebuild copy
// what they write and share the rest with the base. The level's
// strategies (Fig 4: its α values) then run on clones of that one
// perturbed engine. Cells that change membership before an engine
// exists, or build several engines over one perturbed system (the
// churn and flash-crowd drivers, the probe budget sweep, the baseline
// comparison), perturb a System.Fork of one built and warmed system:
// the fork owns the workload's counts and query list, the category
// bookkeeping, the pools and its peers, and shares the corpus
// generator, the workload's intern table and the peer content and
// indexes nobody changed. Only drivers whose Params differ per cell (the
// ablations), or whose cells grow the shared vocabulary (RunLongHaul),
// still Build inside the cell.
package experiments

import (
	"fmt"
	"slices"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/peer"
	"repro/internal/protocol"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Scenario selects the data/query distribution of §4.1.
type Scenario int

const (
	// SameCategory: both the data and the queries of a peer fall into
	// the same category.
	SameCategory Scenario = iota
	// DifferentCategory: each peer holds data of a single category and
	// queries a single but different category.
	DifferentCategory
	// Uniform: data and queries of each peer are drawn uniformly at
	// random from all categories.
	Uniform
)

// String implements fmt.Stringer.
func (s Scenario) String() string {
	switch s {
	case SameCategory:
		return "same-category"
	case DifferentCategory:
		return "different-category"
	case Uniform:
		return "uniform"
	}
	return fmt.Sprintf("scenario(%d)", int(s))
}

// InitKind selects the initial system configuration of §4.1.
type InitKind int

const (
	// InitSingletons: each peer forms its own cluster (case i).
	InitSingletons InitKind = iota
	// InitRandomM: peers are randomly distributed to m = M clusters
	// (case ii).
	InitRandomM
	// InitFewer: peers belong to m < M clusters (case iii).
	InitFewer
	// InitMore: peers belong to m > M clusters (case iv).
	InitMore
)

// String implements fmt.Stringer.
func (k InitKind) String() string {
	switch k {
	case InitSingletons:
		return "i (singletons)"
	case InitRandomM:
		return "ii (m=M)"
	case InitFewer:
		return "iii (m<M)"
	case InitMore:
		return "iv (m>M)"
	}
	return fmt.Sprintf("init(%d)", int(k))
}

// Params bundles every knob of the evaluation. DefaultParams mirrors
// the paper's setting.
type Params struct {
	// Peers is |P| (the paper uses 200).
	Peers int
	// Categories is the number of topical categories (10).
	Categories int
	// DocsPerPeer is how many articles each peer shares.
	DocsPerPeer int
	// TotalQueries is num(Q), the size of the global query list.
	TotalQueries int
	// DistinctQueriesPerPeer bounds how many distinct query words each
	// peer's local workload spans. Peers have focused interests: a few
	// specific words queried repeatedly. Small values concentrate a
	// peer's recall demand on few supplier peers, which is what lets
	// the different-category scenario settle into many small clusters
	// (the paper reports ~90).
	DistinctQueriesPerPeer int
	// DemandZipfS skews how queries are apportioned to peers ("some
	// peers are more demanding than others"). 0 gives every peer the
	// same share (the §4.2 setting).
	DemandZipfS float64
	// PairedDemand applies to the different-category scenario: when
	// true (the default via DefaultParams), a peer of type
	// (data=i, query=j) draws its query words from the documents of
	// the reciprocal peers (data=j, query=i). Interests are then
	// mutual, which is what lets the selfish game settle into the many
	// small clusters Table 1 reports for this scenario; without it the
	// demand graph is an open chain and selfish reformulation churns
	// forever (shown by the paired-demand ablation and consistent with
	// the non-convergence results of Moscibroda et al. that the paper
	// cites).
	PairedDemand bool
	// Alpha is the membership-cost weight (α = 1 in the paper).
	Alpha float64
	// Epsilon is the protocol's gain threshold (0.001).
	Epsilon float64
	// MaxRounds caps protocol runs.
	MaxRounds int
	// Theta is the cluster participation cost function (linear).
	Theta cluster.Theta
	// Corpus configures the synthetic article generator.
	Corpus corpus.Config
	// Seed drives all randomness.
	Seed uint64
	// Workers bounds how many experiment cells run concurrently; 0 (the
	// default) means one worker per available CPU. Results are
	// independent of the value — cells are deterministic per seed and
	// assembled in a fixed order — so Workers only trades wall-clock
	// time for cores.
	Workers int
}

// DefaultParams returns the paper's experimental setting.
func DefaultParams() Params {
	return Params{
		Peers:                  200,
		Categories:             10,
		DocsPerPeer:            5,
		TotalQueries:           2000,
		DistinctQueriesPerPeer: 3,
		DemandZipfS:            0.8,
		PairedDemand:           true,
		Alpha:                  1,
		Epsilon:                0.001,
		MaxRounds:              300,
		Theta:                  cluster.LinearTheta(),
		Corpus: corpus.Config{
			Categories:       10,
			VocabPerCategory: 2000,
			SharedVocab:      50,
			WordsPerDoc:      30,
			TermZipfS:        0.7,
			// Documents are pure category text by default: the Table 1
			// scenario-1 ideal has zero recall cost only when query
			// results never straddle categories. The shared-vocabulary
			// ablation turns this up.
			SharedFraction: 0,
			MorphNoise:     0.3,
			StopNoise:      0.5,
		},
		Seed: 1,
	}
}

// Scaled shrinks the workload for fast tests and benchmarks while
// preserving the scenario shape: peers and queries scale by 1/f.
func (p Params) Scaled(f int) Params {
	if f <= 1 {
		return p
	}
	p.Peers = maxInt(p.Categories*2, p.Peers/f)
	p.TotalQueries = maxInt(p.Peers*4, p.TotalQueries/f)
	return p
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// System is a fully built instance of the paper's simulated network:
// content, workload and category bookkeeping, ready to be wired to a
// core engine under some initial configuration.
type System struct {
	Params   Params
	Scenario Scenario
	Gen      *corpus.Generator
	Peers    []*peer.Peer
	WL       *workload.Workload
	// DataCat and QueryCat record each peer's category assignment
	// (-1 under the uniform scenario).
	DataCat, QueryCat []int
	// M is the natural cluster count of the scenario: the number of
	// categories for same-category, the number of ordered category
	// pairs for different-category.
	M int
	// pools[c] holds the terms of category c occurring in generated
	// documents, one entry per (document, distinct term) pair. Queries
	// are drawn uniformly from this urn — the paper generates queries
	// "by choosing a random word from the texts", so a word's chance of
	// being queried is proportional to its document frequency.
	pools [][]attr.ID
	// typePools mirrors pools per (dataCat, queryCat) peer type; only
	// populated for the different-category scenario under PairedDemand.
	typePools map[[2]int][]attr.ID
	// novelSeq numbers the never-before-seen query words JoinPeerNovel
	// mints for the long-haul churn sweep.
	novelSeq int
}

// Build constructs the System for a scenario.
func Build(p Params, sc Scenario) *System {
	gen := corpus.NewGenerator(p.Corpus, p.Seed)
	root := stats.NewRNG(p.Seed ^ 0xabcdef12345)
	rngDocs := root.Split()
	rngAssign := root.Split()
	rngWl := root.Split()

	sys := &System{
		Params:   p,
		Scenario: sc,
		Gen:      gen,
		WL:       workload.New(p.Peers),
		DataCat:  make([]int, p.Peers),
		QueryCat: make([]int, p.Peers),
		pools:    make([][]attr.ID, p.Categories),
	}

	// Category typing per scenario.
	switch sc {
	case SameCategory:
		sys.M = p.Categories
		for i := 0; i < p.Peers; i++ {
			c := i % p.Categories
			sys.DataCat[i], sys.QueryCat[i] = c, c
		}
	case DifferentCategory:
		// Ordered pairs (i,j), i != j: C*(C-1) peer types.
		sys.M = p.Categories * (p.Categories - 1)
		t := 0
		for i := 0; i < p.Peers; i++ {
			di := t / (p.Categories - 1)
			off := t % (p.Categories - 1)
			qi := off
			if qi >= di {
				qi++
			}
			sys.DataCat[i], sys.QueryCat[i] = di, qi
			t = (t + 1) % sys.M
		}
	case Uniform:
		sys.M = p.Categories
		for i := 0; i < p.Peers; i++ {
			sys.DataCat[i], sys.QueryCat[i] = -1, -1
		}
	}

	// Content: DocsPerPeer articles per peer; uniform scenario draws a
	// fresh random category per document.
	sys.Peers = make([]*peer.Peer, p.Peers)
	for i := 0; i < p.Peers; i++ {
		pr := peer.New(i)
		items := make([]attr.Set, 0, p.DocsPerPeer)
		for d := 0; d < p.DocsPerPeer; d++ {
			cat := sys.DataCat[i]
			if cat < 0 {
				cat = rngAssign.Intn(p.Categories)
			}
			doc := gen.DocumentRNG(cat, rngDocs)
			items = append(items, doc.Terms)
			sys.addToPool(cat, doc.Terms.IDs())
			if sc == DifferentCategory && p.PairedDemand {
				key := [2]int{sys.DataCat[i], sys.QueryCat[i]}
				if sys.typePools == nil {
					sys.typePools = make(map[[2]int][]attr.ID)
				}
				sys.typePools[key] = append(sys.typePools[key], doc.Terms.IDs()...)
			}
		}
		pr.SetItems(items)
		sys.Peers[i] = pr
	}

	// Workload: TotalQueries instances apportioned by a Zipf law over a
	// shuffled peer order, each instance a random word from the texts
	// of the peer's query category.
	counts := demandCounts(p, rngWl)
	distinct := p.DistinctQueriesPerPeer
	if distinct <= 0 {
		distinct = 3
	}
	for i := 0; i < p.Peers; i++ {
		cat := sys.QueryCat[i]
		if cat < 0 {
			cat = rngWl.Intn(p.Categories)
		}
		// Under paired demand, the peer's interests target the
		// documents of its reciprocal type (data=queryCat, query=dataCat).
		var partnerPool []attr.ID
		if sys.typePools != nil {
			partnerPool = sys.typePools[[2]int{sys.QueryCat[i], sys.DataCat[i]}]
		}
		words := make([]attr.ID, 0, distinct)
		for len(words) < distinct {
			if len(partnerPool) > 0 {
				words = append(words, partnerPool[rngWl.Intn(len(partnerPool))])
			} else {
				words = append(words, sys.SampleQueryWord(cat, rngWl))
			}
		}
		// Spread the peer's query instances over its words with a mild
		// skew (first word dominates), keeping every word queried at
		// least once when the budget allows.
		w := stats.ZipfWeights(len(words), 1)
		left := counts[i]
		for k, word := range words {
			c := int(w[k]*float64(counts[i]) + 0.5)
			if c < 1 {
				c = 1
			}
			if c > left {
				c = left
			}
			if c == 0 {
				break
			}
			sys.WL.Add(i, attr.NewSet(word), c)
			left -= c
		}
		if left > 0 {
			sys.WL.Add(i, attr.NewSet(words[0]), left)
		}
	}
	return sys
}

// demandCounts apportions TotalQueries across peers: Zipf-skewed when
// DemandZipfS > 0, exactly equal shares when it is 0 (Property 1's
// uniform split, used by §4.2).
func demandCounts(p Params, rng *stats.RNG) []int {
	counts := make([]int, p.Peers)
	if p.DemandZipfS == 0 {
		for i := range counts {
			counts[i] = p.TotalQueries / p.Peers
			if counts[i] == 0 {
				counts[i] = 1
			}
		}
		return counts
	}
	w := stats.ZipfWeights(p.Peers, p.DemandZipfS)
	order := rng.Perm(p.Peers)
	for rank, pi := range order {
		c := int(w[rank]*float64(p.TotalQueries) + 0.5)
		if c < 1 {
			c = 1
		}
		counts[pi] = c
	}
	return counts
}

// addToPool records one document's distinct terms into its category's
// query urn. Terms are credited to the category that owns them in the
// vocabulary, so shared-vocabulary words never pollute a category pool.
func (s *System) addToPool(cat int, ids []attr.ID) {
	for _, id := range ids {
		c, ok := s.Gen.CategoryOf(id)
		if !ok || c != cat {
			continue
		}
		s.pools[cat] = append(s.pools[cat], id)
	}
}

// SampleQueryWord draws a document-frequency-weighted random word from
// the texts of category cat.
func (s *System) SampleQueryWord(cat int, rng *stats.RNG) attr.ID {
	pool := s.pools[cat]
	if len(pool) == 0 {
		// No document of this category was generated (possible only in
		// tiny test systems); fall back to the vocabulary distribution.
		return s.Gen.QueryWordRNG(cat, rng)
	}
	return pool[rng.Intn(len(pool))]
}

// RefreshPool rebuilds the term pool of category cat from the current
// peer contents (content-update experiments replace documents).
func (s *System) RefreshPool(cat int) {
	s.pools[cat] = nil
	for _, pr := range s.Peers {
		for _, it := range pr.Items() {
			s.addToPool(cat, it.IDs())
		}
	}
}

// InitialConfig builds one of the §4.1 starting configurations.
func (s *System) InitialConfig(kind InitKind, rng *stats.RNG) *cluster.Config {
	n := s.Params.Peers
	switch kind {
	case InitSingletons:
		return cluster.NewSingletons(n)
	case InitRandomM:
		return randomConfig(n, minInt(s.M, n), rng)
	case InitFewer:
		// Clamp to n: heavily scaled-down systems can have fewer peers
		// than M/2 natural clusters (cluster IDs must stay below Cmax).
		return randomConfig(n, minInt(n, maxInt(2, s.M/2)), rng)
	case InitMore:
		return randomConfig(n, minInt(n, 2*s.M), rng)
	}
	panic(fmt.Sprintf("experiments: unknown init kind %d", kind))
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func randomConfig(n, m int, rng *stats.RNG) *cluster.Config {
	assign := make([]cluster.CID, n)
	for i := range assign {
		assign[i] = cluster.CID(rng.Intn(m))
	}
	return cluster.FromAssignment(assign)
}

// CategoryConfig assigns every peer to the cluster of its data
// category — the ideal clustering of the same-category scenario and
// the "good configuration" §4.2 starts from. It panics under the
// uniform scenario, which has no category structure.
func (s *System) CategoryConfig() *cluster.Config {
	assign := make([]cluster.CID, s.Params.Peers)
	for i, c := range s.DataCat {
		if c < 0 {
			panic("experiments: CategoryConfig on uniform scenario")
		}
		assign[i] = cluster.CID(c)
	}
	return cluster.FromAssignment(assign)
}

// Warm makes concurrent reads of the system's peers race-free. A peer
// builds its inverted index on its first query, which is a write;
// drivers that build engines on several goroutines over one System call
// Warm once beforehand, after which those builds only read. It freezes
// every peer, spread over the Params.Workers pool. Warm does not change
// any result.
func (s *System) Warm() {
	runIndexed(s.Params.workerCount(), len(s.Peers), func(i int) {
		if pr := s.Peers[i]; pr != nil {
			pr.Freeze()
		}
	})
}

// Fork returns a System equal to s that a cell may perturb without
// touching s. The fork owns what the update and membership operations
// change: a workload.Clone (which shares s's intern table until either
// side compacts or interns a new query), the category bookkeeping, the
// pool list (each pool clipped to its length, so a fork's first append
// reallocates instead of writing into s's backing array) and its peers,
// which are peer.Clones — they share s's item lists and built query
// indexes until their content changes, so Warm s first and no fork
// rebuilds the index of a peer it never perturbs. It shares what cells
// only read: typePools and the corpus generator, whose DocumentRNG only
// looks terms up. Fork writes nothing of s but the atomic marks of what
// it shares, so cells may fork one base concurrently.
//
// Fork is for the drivers that change membership before they build an
// engine, or build several over one perturbed system (churn, flash
// crowd, probe budget, baseline comparison). A driver whose cells
// perturb content or workloads under a fixed membership (Figs 2-4)
// builds one engine and perturbs a ForkOnto of a Clone of it.
//
// The one operation a fork must not run is JoinPeerNovel: it interns
// new words into the generator's vocabulary, which every fork shares.
// RunLongHaul therefore keeps building a System per cell.
func (s *System) Fork() *System {
	return s.forkOver(peer.CloneAll(s.Peers), s.WL.Clone())
}

// ForkOnto returns a fork of s over eng's peers and workload, where eng
// is a Clone of an engine built over s: perturbing the fork perturbs
// what eng evaluates, and eng.Rebuild() then re-asks only the peers the
// perturbation changed, where a new engine over a Fork asks them all.
// The clone's peers and workload share their content with the engine
// it was cloned from; an edit through the fork copies only what it
// writes (a peer's item list, the workload's intern table when it
// interns a new query), so like Fork it leaves s, and every other clone,
// as it was.
func (s *System) ForkOnto(eng *core.Engine) *System {
	return s.forkOver(eng.Peers(), eng.Workload())
}

// forkOver is a fork of s that adopts the given copies of its peers and
// workload and owns copies of the rest (see Fork).
func (s *System) forkOver(peers []*peer.Peer, wl *workload.Workload) *System {
	f := *s
	f.Peers, f.WL = peers, wl
	f.DataCat = slices.Clone(s.DataCat)
	f.QueryCat = slices.Clone(s.QueryCat)
	f.pools = make([][]attr.ID, len(s.pools))
	for c, pool := range s.pools {
		f.pools[c] = slices.Clip(pool)
	}
	return &f
}

// buildBase builds the System a driver forks once per cell, warmed so
// the forks share its peer indexes.
func buildBase(p Params, sc Scenario) *System {
	sys := Build(p, sc)
	sys.Warm()
	return sys
}

// NewEngine wires the system to a fresh core engine over cfg.
func (s *System) NewEngine(cfg *cluster.Config) *core.Engine {
	return core.New(s.Peers, s.WL, cfg, s.Params.Theta, s.Params.Alpha)
}

// cellEngines returns n engines that each start where eng stands, for n
// cells that start from one state: Clones of eng, and eng itself last.
// The clones are taken before the last cell can run on eng.
func cellEngines(eng *core.Engine, n int) []*core.Engine {
	engines := make([]*core.Engine, n)
	for i := range n - 1 {
		engines[i] = eng.Clone()
	}
	engines[n-1] = eng
	return engines
}

// NewRunner builds a protocol runner with the system's parameters.
func (s *System) NewRunner(eng *core.Engine, strat core.Strategy, allowNew bool) *protocol.Runner {
	return s.NewRunnerWorkers(eng, strat, allowNew, 0)
}

// NewRunnerWorkers is NewRunner with a phase-1 decide worker pool of
// the given size (0 or 1: serial). Reports are byte-identical for any
// value. Experiment drivers keep the serial protocol — their
// parallelism lives at the cell level — while serving layers pass
// their core budget through.
func (s *System) NewRunnerWorkers(eng *core.Engine, strat core.Strategy, allowNew bool, workers int) *protocol.Runner {
	return protocol.NewRunner(eng, strat, protocol.Options{
		Epsilon:          s.Params.Epsilon,
		MaxRounds:        s.Params.MaxRounds,
		AllowNewClusters: allowNew,
		Workers:          workers,
	})
}
