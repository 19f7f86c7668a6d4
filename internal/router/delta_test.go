package router

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/peer"
	"repro/internal/viewwire"
	"repro/internal/workload"
)

// deltaFixture is an unstarted router synchronized, through the wire
// codec, with the first view of a four-peer engine over a five-term
// vocabulary; slot 3 has left again.
func deltaFixture(t *testing.T) (*Router, *core.Engine, *core.RoutingView, []string) {
	t.Helper()
	names := []string{"a", "b", "c", "d", "e"}
	peers := make([]*peer.Peer, 4)
	wl := workload.New(4)
	for i := range peers {
		peers[i] = peer.New(i)
		peers[i].SetItems([]attr.Set{attr.NewSet(attr.ID(i), attr.ID(i+1))})
		wl.Add(i, attr.NewSet(attr.ID(i)), 1)
	}
	e := core.New(peers, wl, cluster.NewSingletons(4), cluster.LinearTheta(), 1)
	e.RemovePeer(3)
	v := e.BuildRoutingView(nil)
	rec, err := viewwire.Decode(viewwire.AppendFull(nil, 1, names, v.Export()))
	if err != nil {
		t.Fatal(err)
	}
	rt := New(Config{Upstream: "http://127.0.0.1:1"})
	if err := rt.ApplyRecord(rec); err != nil {
		t.Fatal(err)
	}
	return rt, e, v, names
}

// TestRouterRejectsUnchainedDeltas pins what a replica refuses: a delta
// whose base population version is not the one it stands at, one that
// vacates or moves a slot holding no peer, and one whose content names
// an attribute beyond the vocabulary it extends. A refusal leaves the
// served view as it was, and the delta that does chain still applies.
func TestRouterRejectsUnchainedDeltas(t *testing.T) {
	rt, e, v1, _ := deltaFixture(t)
	pop := v1.PopVersion()
	decode := func(names []string, d core.ViewDelta) viewwire.Record {
		rec, err := viewwire.Decode(viewwire.AppendViewDelta(nil, 2, names, d))
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	join := func(ids ...attr.ID) []core.SlotChange {
		return []core.SlotChange{{Slot: 3, Cluster: 1, Items: []attr.Set{attr.NewSet(ids...)}}}
	}
	for name, c := range map[string]struct {
		rec  viewwire.Record
		want string
	}{
		"base pop_version behind":            {decode(nil, core.ViewDelta{BasePop: pop - 1, PopVersion: pop + 1, Changed: join(0)}), "population version"},
		"base pop_version ahead":             {decode(nil, core.ViewDelta{BasePop: pop + 1, PopVersion: pop + 2, Changed: join(0)}), "population version"},
		"vacates a dead slot":                {decode(nil, core.ViewDelta{BasePop: pop, PopVersion: pop + 1, Changed: []core.SlotChange{{Slot: 3, Cluster: cluster.None}}}), "unoccupied slot 3"},
		"moves a dead slot":                  {decode(nil, core.ViewDelta{BasePop: pop, PopVersion: pop, Moves: []core.SlotMove{{Slot: 3, To: 0}}}), "unoccupied slot 3"},
		"unknown attribute":                  {decode(nil, core.ViewDelta{BasePop: pop, PopVersion: pop + 1, Changed: join(1, 5)}), "attribute 5"},
		"attribute past the names it brings": {decode([]string{"f"}, core.ViewDelta{BasePop: pop, PopVersion: pop + 1, Changed: join(5, 6)}), "attribute 6"},
	} {
		err := rt.ApplyRecord(c.rec)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: ApplyRecord returned %v, want an error naming %q", name, err, c.want)
		}
		if cur := rt.view.Load(); cur.seq != 1 || cur.routing.PopVersion() != pop || cur.terms.Len() != 5 {
			t.Fatalf("%s: the refused delta moved the router to seq %d pop %d with %d terms", name, cur.seq, cur.routing.PopVersion(), cur.terms.Len())
		}
	}
	if rt.DeltaSyncs() != 0 {
		t.Fatalf("refused deltas counted as %d delta syncs", rt.DeltaSyncs())
	}

	// The real successor: slot 3 reused by a peer holding a new term.
	pr := peer.New(-1)
	pr.SetItems([]attr.Set{attr.NewSet(1, 5)})
	e.AddPeer(pr, []attr.Set{attr.NewSet(5)}, []int{1}, cluster.None)
	v2 := e.BuildRoutingView(v1)
	d, ok := v2.DeltaFrom(v1)
	if !ok {
		t.Fatal("no delta between consecutive views")
	}
	if err := rt.ApplyRecord(decode([]string{"f"}, d)); err != nil {
		t.Fatalf("chained delta refused: %v", err)
	}
	sc := api.GetScratch()
	defer api.PutScratch(sc)
	got, _ := rt.AnswerQuery([]string{"f"}, sc)
	if got.Total != 1 || len(got.Clusters) != 1 {
		t.Fatalf("query for the term the delta brought: %+v, want the one newcomer", got)
	}
	if rt.FullSyncs() != 1 || rt.DeltaSyncs() != 1 {
		t.Fatalf("syncs full=%d delta=%d, want 1 and 1", rt.FullSyncs(), rt.DeltaSyncs())
	}
}

// TestRouterTermTableGrowth pins the replica's term table across a
// vocabulary that grows one term per delta, past the size at which the
// table folds its overlay into a new base (1024 terms since the last
// fold): a view applied before a term arrived never resolves it and the
// one that brought it does, no fold changes an answer of any view, old
// or new, and readers still answering from old views race with nothing
// while the applier appends (run with -race).
func TestRouterTermTableGrowth(t *testing.T) {
	rt, e, prev, names := deltaFixture(t)
	const grown = 1200
	novel := func(i int) string { return fmt.Sprintf("novel-%04d", i) }
	total := func(v *syncedView, term string) int {
		sc := api.GetScratch()
		defer api.PutScratch(sc)
		return api.Answer(v.terms, v.routing, nil, []string{term}, sc).Total
	}

	views := []*syncedView{rt.view.Load()} // views[i] is the first to hold term i
	handed := make(chan int, grown)
	var mu sync.Mutex // guards views
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range handed {
				mu.Lock()
				old, cur := views[i/2], views[i]
				mu.Unlock()
				if n := total(cur, novel(i)); n != 1 {
					t.Errorf("view %d answers %d for the term it brought", i, n)
				}
				if n := total(old, novel(i)); i/2 < i && n != 0 {
					t.Errorf("view %d, applied before term %d arrived, resolves it (total %d)", i/2, i, n)
				}
				if n := total(old, novel(i/2)); i/2 > 0 && n != 1 {
					t.Errorf("view %d answers %d for its own term once view %d exists", i/2, n, i)
				}
				if n := total(cur, "a"); n != 1 {
					t.Errorf("view %d answers %d for a term of the first full record", i, n)
				}
			}
		}()
	}
	for i := 1; i <= grown; i++ {
		// One newcomer holding one new term; the previous newcomer's
		// term stays resolvable after it, since its peer stays.
		pr := peer.New(-1)
		pr.SetItems([]attr.Set{attr.NewSet(attr.ID(len(names) + i - 1))})
		e.AddPeer(pr, []attr.Set{attr.NewSet(0)}, []int{1}, cluster.None)
		next := e.BuildRoutingView(prev)
		d, ok := next.DeltaFrom(prev)
		if !ok {
			t.Fatal("no delta between consecutive views")
		}
		rec, err := viewwire.Decode(viewwire.AppendViewDelta(nil, uint64(i+1), []string{novel(i)}, d))
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.ApplyRecord(rec); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		prev = next
		mu.Lock()
		views = append(views, rt.view.Load())
		mu.Unlock()
		handed <- i
	}
	close(handed)
	wg.Wait()

	last := rt.view.Load()
	if last.terms.Len() != len(names)+grown || rt.FullSyncs() != 1 {
		t.Fatalf("router holds %d terms after %d full syncs, want %d after 1", last.terms.Len(), rt.FullSyncs(), len(names)+grown)
	}
	for i := 1; i <= grown; i++ {
		if n := total(last, novel(i)); n != 1 {
			t.Fatalf("after %d growths term %d answers %d", grown, i, n)
		}
	}
}
