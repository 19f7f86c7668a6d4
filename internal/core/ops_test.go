package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/peer"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The engine's randomized tests share one driver: a fixture builds the
// start shape, the driver may split a clone off it (split), apply runs
// one op decoded from a byte pair, check holds the engine the ops write
// to every oracle after every op, and finish ends a run with a Rebuild.
// Seeded tests draw the byte pairs from a generator and fuzzers take
// them from their input, so both reach the same ops.

const scanPeers, scanAttrs = 36, 24

// novelQueries is how many attribute IDs past scanAttrs the ops draw
// novel queries from: nobody holds them, and isolationView looks every
// one of them up.
const novelQueries = 40

// fuzzAttrs is the alphabet a wide joiner's items draw from: dense low
// IDs and a few on later posting pages.
var fuzzAttrs = []attr.ID{0, 1, 2, 3, 4, 5, 70, 71, 140}

// Rare content attributes start at rareBase, past every attribute a
// fixture or a wide joiner holds, and spread over rareSpread IDs (40
// posting pages), so that views share most pages and copy few. Past
// the spread, each joiner that brings rare content also brings one
// attribute past every earlier one.
const rareBase, rareSpread = 200, 40 * postingPageLen

// scanItems draws one to three items of one or two attributes.
func scanItems(rng *stats.RNG) []attr.Set {
	items := make([]attr.Set, 1+rng.Intn(3))
	for i := range items {
		items[i] = attr.NewSet(attr.ID(rng.Intn(scanAttrs)), attr.ID(rng.Intn(scanAttrs)))
	}
	return items
}

// fuzzItems draws n items of zero to three attributes from fuzzAttrs.
func fuzzItems(n int, rng *stats.RNG) []attr.Set {
	items := make([]attr.Set, n)
	for i := range items {
		ids := make([]attr.ID, rng.Intn(4))
		for k := range ids {
			ids[k] = fuzzAttrs[rng.Intn(len(fuzzAttrs))]
		}
		items[i] = attr.NewSet(ids...)
	}
	return items
}

func novelQuery(rng *stats.RNG) attr.Set {
	return attr.NewSet(attr.ID(scanAttrs + rng.Intn(novelQueries)))
}

// newJoiner mints a joiner over scanAttrs: scanItems, one query on a
// known attribute and one more per novel attribute given.
func newJoiner(rng *stats.RNG, novel ...attr.ID) (*peer.Peer, []attr.Set, []int) {
	pr := peer.New(-1)
	pr.SetItems(scanItems(rng))
	qs, counts := []attr.Set{attr.NewSet(attr.ID(rng.Intn(scanAttrs)))}, []int{1 + rng.Intn(3)}
	for _, a := range novel {
		qs, counts = append(qs, attr.NewSet(a)), append(counts, 1+rng.Intn(3))
	}
	return pr, qs, counts
}

// fixture is a start shape: n slots (scanPeers when 0) over scanAttrs
// attributes, each peer holding scanItems and querying two attributes,
// and one query interned that nobody asks, so that a compaction has a
// query to retire. The same fixture builds the same engine bit for bit.
type fixture struct {
	n      int
	groups int // 0: every peer alone; otherwise peer i starts in cluster i % groups
	vacant int // the last slots are vacant, on the free-slot stack
	alpha  float64
	theta  cluster.Theta // linear when unset
	seed   uint64
}

func (f fixture) build() *Engine {
	n := cmp.Or(f.n, scanPeers)
	rng := stats.NewRNG(f.seed)
	peers := make([]*peer.Peer, n)
	wl := workload.New(n)
	assign := make([]cluster.CID, n)
	for i := range peers {
		assign[i] = cluster.None
		if i >= n-f.vacant {
			continue
		}
		peers[i] = peer.New(i)
		peers[i].SetItems(scanItems(rng))
		for range 2 {
			wl.Add(i, attr.NewSet(attr.ID(rng.Intn(scanAttrs))), 1+rng.Intn(3))
		}
		assign[i] = cluster.CID(i)
		if f.groups > 0 {
			assign[i] = cluster.CID(i % f.groups)
		}
	}
	wl.Intern(attr.NewSet(attr.ID(scanAttrs + 100)))
	theta := f.theta
	if theta.F == nil {
		theta = cluster.LinearTheta()
	}
	return New(peers, wl, cluster.FromAssignment(assign), theta, f.alpha)
}

// split says whether a driver splits a clone off at the start, and
// which of the two engines the ops then write.
type split int

const (
	noClone        split = iota // never cloned, as the daemon's engine: every write runs in place
	originalWrites              // the clone must stay as it was
	cloneWrites                 // the original must stay as it was
)

// driver runs ops on one engine, the writer, and checks it after each.
// When the writer was split from a clone, the other engine, which no op
// touches, must stay as it was.
type driver struct {
	t     testing.TB
	e     *Engine
	ev    *Evaluator // a private evaluator of e
	other *Engine    // nil under noClone
	want  string     // isolationView(other) when it was split off
	step  int
	lines [2]stateLines // the checker's renderings, kept between ops
	// rebuilt: no incremental mutation since the last Rebuild, so the
	// engine must equal the dense rebuild and New bit for bit.
	rebuilt bool
	novel   attr.ID // the attribute past every earlier one the last rare joiner brought

	incr, replica, replicaBase *RoutingView

	// What the ops reached, for the entry points' coverage asserts.
	joins                    []int // every joiner's item count
	reused, compactions      int   // slots refilled at once, compactions that removed queries
	residue, unsortedRebuild int   // residue cells seen, Rebuilds over a candidate-ordered result list
	rare                     int   // joiners that brought rare content
	arms                     scanArms
}

// newDriver builds f, splits a clone off as s says and checks the start.
func newDriver(t testing.TB, f fixture, s split) *driver {
	d := &driver{t: t, e: f.build(), rebuilt: true, novel: rareBase + rareSpread}
	d.fork(s)
	d.check("start")
	return d
}

// splitOf spreads a test's seeds over the three splits.
func splitOf(seed uint64) split { return split(seed % 3) }

// fork clones the writer, unless s is noClone, and the clone must equal
// it bit for bit; from here on the engine s names writes and the other
// must not change.
func (d *driver) fork(s split) {
	t, e := d.t, d.e
	t.Helper()
	d.ev = e.NewEvaluator()
	if s == noClone {
		return
	}
	d.want = isolationView(e)
	c := e.Clone()
	if err := stateDiff(isolationView(c), d.want); err != nil {
		t.Fatalf("op %d: clone differs from its original:\n%v", d.step, err)
	}
	if c.Stale() {
		t.Fatalf("op %d: clone of a fresh engine is stale", d.step)
	}
	for p := range e.NumSlots() {
		if e.peers[p] != nil && c.peers[p] == e.peers[p] {
			t.Fatalf("op %d: clone shares peer %d with its original", d.step, p)
		}
		if e.IsLive(p) && c.EvaluateContribution(p) != e.EvaluateContribution(p) {
			t.Fatalf("op %d: EvaluateContribution(%d) on the clone %+v, on the original %+v",
				d.step, p, c.EvaluateContribution(p), e.EvaluateContribution(p))
		}
	}
	d.other = c
	if s == cloneWrites {
		d.e, d.other, d.ev = c, e, c.NewEvaluator()
	}
}

// run applies ops two bytes at a time, checking after each.
func (d *driver) run(ops []byte) {
	for i := 0; i+1 < len(ops); i += 2 {
		d.check(d.apply(ops[i], ops[i+1]))
	}
}

// runSeeded runs steps ops drawn from a generator seeded with seed.
func (d *driver) runSeeded(seed uint64, steps int) {
	rng := stats.NewRNG(seed)
	for range steps {
		d.check(d.apply(byte(rng.Intn(256)), byte(rng.Intn(256))))
	}
}

// finish ends a run with a Rebuild of the writer, after which check
// holds it to New over its inputs bit for bit.
func (d *driver) finish() {
	d.step++
	d.rebuild()
	d.check("rebuild")
}

const numOps = 10

// apply runs one op on the writer: op % numOps picks it, op / numOps
// gives a join its flags (see join), and arg picks the peer and seeds
// whatever else the op draws. It returns what it did.
func (d *driver) apply(op, arg byte) string {
	t, e := d.t, d.e
	t.Helper()
	d.step++
	rng := stats.NewRNG(uint64(op)<<8 | uint64(arg))
	var live []int
	for p := range e.NumSlots() {
		if e.IsLive(p) {
			live = append(live, p)
		}
	}
	p := live[int(arg)%len(live)]
	flags := op / numOps
	leave := func() string {
		if len(live) <= 2 {
			return "no leave"
		}
		e.RemovePeer(p)
		d.rebuilt = false
		return fmt.Sprintf("leave %d", p)
	}
	switch op % numOps {
	case 0:
		nonEmpty := e.Config().NonEmpty()
		to := nonEmpty[rng.Intn(len(nonEmpty))]
		if c, ok := e.Config().EmptyCluster(); ok && arg%3 == 0 {
			to = c
		}
		e.Move(p, to)
		d.rebuilt = false
		return fmt.Sprintf("move %d to %d", p, to)
	case 1:
		_, did := d.join(flags, arg, rng)
		return did
	case 2:
		return leave()
	case 3: // the vacated slot is the joiner's: a slot reused between two view builds
		left := leave()
		pid, did := d.join(flags, arg, rng)
		if pid == p {
			d.reused++
		}
		return left + ", " + did
	case 4: // a slot no view sees occupied
		pid, did := d.join(flags, arg, rng)
		e.RemovePeer(pid)
		return did + ", leave it"
	case 5:
		before, dead := e.Workload().NumQueries(), e.DeadQueries(0)
		removed := e.Compact(0)
		if removed != dead {
			t.Fatalf("op %d: Compact removed %d, DeadQueries said %d", d.step, removed, dead)
		}
		if got := e.Workload().NumQueries(); got != before-removed || got != liveDistinctQueries(e.Workload()) {
			t.Fatalf("op %d: %d queries after compacting %d of %d; live distinct is %d",
				d.step, got, removed, before, liveDistinctQueries(e.Workload()))
		}
		if removed > 0 {
			d.compactions++
		}
		return fmt.Sprintf("compact %d", removed)
	case 6:
		pr := e.Peers()[p]
		switch arg % 3 {
		case 0:
			if n := pr.NumItems(); n > 0 {
				pr.ReplaceItem(rng.Intn(n), scanItems(rng)[0])
				break
			}
			fallthrough
		case 1:
			pr.AddItem(scanItems(rng)[0])
		default:
			pr.SetItems(scanItems(rng))
		}
		d.rebuild()
		return fmt.Sprintf("content of %d, rebuild", p)
	case 7:
		e.Workload().ReplacePeer(p, []attr.Set{attr.NewSet(attr.ID(rng.Intn(scanAttrs))), novelQuery(rng)}, []int{1 + rng.Intn(3), 1})
		did := fmt.Sprintf("workload of %d", p)
		if flags&1 != 0 { // renumber the queries where the engine cannot see it
			q := live[(int(arg)+1)%len(live)]
			e.Workload().ClearPeer(q)
			e.Workload().Compact(0)
			did += fmt.Sprintf(", clear %d and compact the workload", q)
		}
		d.rebuild()
		return did + ", rebuild"
	case 8:
		a := float64(arg%4) / 2
		e.SetAlpha(a)
		return fmt.Sprintf("alpha %g", a)
	default:
		free := slices.Clone(e.FreeSlots())
		slices.Reverse(free)
		if err := e.SetFreeSlots(free); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("free slots %v", free)
	}
}

// join adds a peer. Flag 1 joins it into a non-empty cluster instead of
// alone, flag 2 adds a novel query, flag 4 gives it rare content (one
// item with a known attribute and a rare one, one with an attribute
// past every earlier one) and a query on the latter, and flag 8 makes
// it wide: arg % 201 items over fuzzAttrs, past 32 more than a posting
// mask carries.
func (d *driver) join(flags, arg byte, rng *stats.RNG) (int, string) {
	e := d.e
	pr, qs, counts := newJoiner(rng)
	switch {
	case flags&8 != 0:
		pr.SetItems(fuzzItems(int(arg)%201, rng))
	case flags&4 != 0:
		d.novel += attr.ID(1 + rng.Intn(3))
		r := attr.ID(rareBase + rng.Intn(rareSpread))
		pr.SetItems([]attr.Set{attr.NewSet(attr.ID(rng.Intn(scanAttrs)), r), attr.NewSet(d.novel)})
		qs, counts = append(qs, attr.NewSet(d.novel)), append(counts, 1)
		d.rare++
	}
	if flags&2 != 0 {
		qs, counts = append(qs, novelQuery(rng)), append(counts, 1)
	}
	to := cluster.None
	if flags&1 != 0 {
		nonEmpty := e.Config().NonEmpty()
		to = nonEmpty[rng.Intn(len(nonEmpty))]
	}
	pid := e.AddPeer(pr, qs, counts, to)
	if pr.ID() != pid {
		d.t.Fatalf("op %d: joiner ID %d, slot %d", d.step, pr.ID(), pid)
	}
	d.rebuilt = false
	d.joins = append(d.joins, pr.NumItems())
	return pid, fmt.Sprintf("join %d (%d items) into %d", pid, pr.NumItems(), e.Config().ClusterOf(pid))
}

// rebuild runs Rebuild after an edit the engine did not see, counting
// the Rebuilds that meet a result list in candidate order (a joiner's,
// not yet sorted by QID). Rebuild must drop the content index.
func (d *driver) rebuild() {
	for _, l := range d.e.peerRes {
		if !slices.IsSortedFunc(l, func(a, b resEntry) int { return cmp.Compare(a.qid, b.qid) }) {
			d.unsortedRebuild++
			break
		}
	}
	d.e.Rebuild()
	if d.e.peersByAttr != nil {
		d.t.Fatalf("op %d: Rebuild kept the content index", d.step)
	}
	d.rebuilt = true
}

// check holds the writer to every oracle, and the other engine to what
// it was:
//   - a writer never cloned to carry no shared mark, so that its writes
//     run in place, as the daemon's do;
//   - the rows to denseRebuild, bit for bit since a Rebuild and within
//     the incremental drift otherwise, with no more cells than the
//     result and demand entries account for plus residue cells;
//   - the costs to New over the same inputs (checkAgainstRebuild), and
//     since a Rebuild the whole engine to New bit for bit;
//   - both decide scans, on the engine and on a private evaluator, to
//     the dense walk bit for bit;
//   - the content index to a scan of the peers;
//   - the views and ForEachSupplier (checkViews);
//   - the other engine, if any, to isolationView when it was split off.
func (d *driver) check(did string) {
	t, e := d.t, d.e
	t.Helper()
	stage := fmt.Sprintf("op %d (%s)", d.step, did)
	if d.other == nil && e.shared.Load() {
		t.Fatalf("%s: an engine never cloned is marked shared, so its writes do not run in place", stage)
	}

	fresh := checkAgainstRebuild(t, e, stage)
	if d.rebuilt {
		if err := matchesDense(e); err != nil {
			t.Fatalf("%s: after a Rebuild, against the dense rebuild: %v", stage, err)
		}
		got, want := d.lines[0].reset(), d.lines[1].reset()
		got.engine(e, false)
		want.engine(fresh, false)
		if string(got.b) != string(want.b) {
			t.Fatalf("%s: after a Rebuild, the engine differs from New over its inputs:\n%v",
				stage, stateDiff(string(got.b), string(want.b)))
		}
	} else {
		ref := denseRebuild(e)
		if err := rowsMatchDense(e, ref, membershipTolerance, true); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if math.Abs(e.SCost()-ref.SCost()) > membershipTolerance || math.Abs(e.WCost()-ref.WCost()) > membershipTolerance {
			t.Fatalf("%s: SCost %v WCost %v, dense %v %v", stage, e.SCost(), e.WCost(), ref.SCost(), ref.WCost())
		}
	}
	cells, residue, entries := 0, 0, 0
	for _, row := range e.rows {
		cells += len(row)
		for _, cl := range row {
			if cl.res == 0 && cl.demand == 0 {
				residue++
			}
		}
	}
	for p := range e.peerRes {
		entries += len(e.peerRes[p]) + len(e.peerWl[p])
	}
	if cells > entries+residue {
		t.Fatalf("%s: %d cells for %d result and demand entries and %d residue cells", stage, cells, entries, residue)
	}
	d.residue += residue

	checkScans(t, e, d.ev, stage, &d.arms)
	e.ensureIndexes()
	if err := contentIndexMatches(e); err != nil {
		t.Fatalf("%s: %v", stage, err)
	}
	d.checkViews(stage)

	if d.other != nil {
		if got := d.lines[0].isolation(d.other).b; string(got) != d.want {
			t.Fatalf("%s changed the other engine:\n%v", stage, stateDiff(string(got), d.want))
		}
	}
}

// checkViews builds the writer's view from its last one and from
// scratch, and carries a replica along by DeltaFrom/ApplyDelta alone (a
// full view after a Rebuild, as a router resyncs). The three must be
// equal, posting tables included, answer every query as a brute-force
// count over the live peers does (as must ForEachSupplier, peer by peer
// and summed per cluster), and hold posting lists whose masks match
// their peers; the incremental build must copy no posting page outside
// the footprint of the slots that changed. Every third op the replica
// keeps its base, so the next delta spans two builds, as for a watcher
// served from the ring.
func (d *driver) checkViews(stage string) {
	t, e := d.t, d.e
	t.Helper()
	prev := d.incr
	d.incr = e.BuildRoutingView(prev)
	scratch := e.BuildRoutingView(nil)
	if dp, ok := d.incr.DeltaFrom(prev); ok {
		pages := make(map[attr.ID]bool)
		for _, ch := range dp.Changed {
			for _, v := range []*RoutingView{prev, d.incr} {
				if s := int(ch.Slot); s < len(v.peers) && v.peers[s] != nil {
					for _, a := range v.peers[s].Attrs() {
						pages[a>>postingPageBits] = true
					}
				}
			}
		}
		if n := freshPages(prev, d.incr); n > len(pages) {
			t.Fatalf("%s: the build copied %d posting pages, the change touched %d", stage, n, len(pages))
		}
	}

	dl, ok := d.incr.DeltaFrom(d.replicaBase)
	if lineage := d.replicaBase != nil && d.replicaBase.lineage == d.incr.lineage; ok != lineage {
		t.Fatalf("%s: a delta within one engine lineage %v, one exists %v", stage, lineage, ok)
	}
	var replica *RoutingView
	var err error
	if ok {
		replica, err = d.replica.ApplyDelta(dl)
	} else {
		replica, err = FromViewData(d.incr.Export())
	}
	if err != nil {
		t.Fatalf("%s: replica: %v", stage, err)
	}
	if d.step%3 != 1 {
		d.replica, d.replicaBase = replica, d.incr
	}
	if replica.Live() != scratch.Live() {
		t.Fatalf("%s: replica counts %d live peers, engine %d", stage, replica.Live(), scratch.Live())
	}

	for i, v := range []*RoutingView{d.incr, scratch, replica} {
		err := checkPostingTable(v)
		if err == nil && v != scratch {
			err = sameView(scratch, v)
		}
		if err != nil {
			t.Fatalf("%s: %s view: %v", stage, []string{"incremental", "scratch", "replica"}[i], err)
		}
	}
	a, b := attr.ID(d.step%scanAttrs), attr.ID(d.step*7%scanAttrs)
	qs := []attr.Set{
		{},
		attr.NewSet(a), attr.NewSet(a, b), attr.NewSet(0, 1), attr.NewSet(0, 70), attr.NewSet(70, 71),
		attr.NewSet(0, 1, 2), attr.NewSet(3, 4, 140), attr.NewSet(d.novel), attr.NewSet(d.novel-1, a),
		attr.NewSet(d.novel + 10*postingPageLen), // past the last page
		attr.NewSet(attr.ID(1 << 20)), attr.NewSet(-1), attr.NewSet(-5, 0),
		attr.NewSet(attr.ID(1 << 30)), attr.NewSet(attr.ID(1<<31 - 1)), attr.NewSet(0, attr.ID(1<<30)),
	}
	for _, a := range fuzzAttrs {
		qs = append(qs, attr.NewSet(a))
	}
	for q := range e.wl.NumQueries() {
		qs = append(qs, e.wl.Query(workload.QID(q)))
	}
	checkViewMatchesOracle(t, e, qs, stage+" (views incremental, scratch, replica)", d.incr, scratch, replica)
}

// bruteRoute is Route by definition: result(q,p) counted item by item
// with SubsetOf over every live peer, summed per cluster, hits in
// ascending cluster order. The empty query routes nowhere.
func bruteRoute(e *Engine, q attr.Set) (int, []RouteHit) {
	if q.IsEmpty() {
		return 0, nil
	}
	per := make([]int, e.cfg.Cmax())
	for pid, p := range e.peers {
		if !e.IsLive(pid) {
			continue
		}
		for _, it := range p.SharedItems() {
			if q.SubsetOf(it) {
				per[e.cfg.ClusterOf(pid)]++
			}
		}
	}
	return routeHits(e, per)
}

// routeHits turns results per cluster into Route's answer.
func routeHits(e *Engine, per []int) (total int, hits []RouteHit) {
	for c, n := range per {
		if n > 0 {
			hits = append(hits, RouteHit{Cluster: cluster.CID(c), Size: e.cfg.Size(cluster.CID(c)), Results: n})
			total += n
		}
	}
	return total, hits
}

// contentIndexMatches holds every list of the content index, as a set
// (a leave reorders a list), to a map built from scratch over the live
// peers, and the attributes outside the map to empty lists.
func contentIndexMatches(e *Engine) error {
	want := make(map[attr.ID][]int32)
	for pid, p := range e.peers {
		if p == nil {
			continue
		}
		for _, a := range p.Attrs() {
			want[a] = append(want[a], int32(pid))
		}
	}
	for a, lst := range e.peersByAttr {
		if len(lst) == 0 {
			continue // the map must not hold a: checked below
		}
		got := slices.Clone(lst)
		slices.Sort(got)
		if !slices.Equal(got, want[attr.ID(a)]) {
			return fmt.Errorf("attribute %d: index holds %v, the live peers %v", a, got, want[attr.ID(a)])
		}
		delete(want, attr.ID(a))
	}
	for a, lst := range want {
		return fmt.Errorf("attribute %d is held by %v, the index's %d lists hold none of them", a, lst, len(e.peersByAttr))
	}
	return nil
}
