package core

import (
	"slices"
	"testing"

	"repro/internal/attr"
	"repro/internal/peer"
	"repro/internal/stats"
	"repro/internal/workload"
)

// queryIndexOracle answers appendCandidates from a map built from
// scratch over the workload as it stands.
func queryIndexOracle(wl *workload.Workload, p *peer.Peer) []workload.QID {
	var empty []workload.QID
	byFirst := make(map[attr.ID][]workload.QID)
	for q := 0; q < wl.NumQueries(); q++ {
		qid := workload.QID(q)
		if ids := wl.Query(qid).IDs(); len(ids) == 0 {
			empty = append(empty, qid)
		} else {
			byFirst[ids[0]] = append(byFirst[ids[0]], qid)
		}
	}
	out := empty
	for _, a := range p.Attrs() {
		out = append(out, byFirst[a]...)
	}
	return out
}

func holderOf(attrs ...attr.ID) *peer.Peer {
	p := peer.New(0)
	p.SetItems([]attr.Set{attr.NewSet(attrs...)})
	return p
}

func checkQueryIndex(t *testing.T, x *queryIndex, wl *workload.Workload, p *peer.Peer, when string) {
	t.Helper()
	all := queryIndexOracle(wl, p)
	nq := workload.QID(wl.NumQueries())
	for _, from := range []workload.QID{0, 1, nq / 2, nq - 1, nq} {
		want := slices.DeleteFunc(slices.Clone(all), func(q workload.QID) bool { return q < from })
		if got := x.appendCandidates(nil, p, from); !slices.Equal(got, want) {
			t.Fatalf("%s: candidates from query %d on of a peer holding %v are %v, a map built from scratch gives %v",
				when, from, p.Attrs(), got, want)
		}
	}
}

// TestQueryIndexReinternUnderEmptiedList retires the only query under
// an attribute, so its list empties but stays, and interns another
// query under the same attribute: it must land in that list.
func TestQueryIndexReinternUnderEmptiedList(t *testing.T) {
	wl := workload.New(2)
	wl.Add(0, attr.NewSet(3, 9), 1)
	wl.Add(1, attr.NewSet(5), 1)
	var x queryIndex
	x.extend(wl)
	p := holderOf(3, 5, 9, 40) // 40 is past head
	checkQueryIndex(t, &x, wl, p, "after the first extend")

	wl.ClearPeer(0)
	remap, removed := wl.Compact(0)
	if removed != 1 {
		t.Fatalf("compaction removed %d queries, want 1", removed)
	}
	x.remap(remap)
	checkQueryIndex(t, &x, wl, p, "after the remap")
	if lists := len(x.lists); lists != 2 {
		t.Fatalf("%d lists after the remap, want the emptied one kept: 2", lists)
	}

	wl.Add(0, attr.NewSet(3), 2)
	x.extend(wl)
	checkQueryIndex(t, &x, wl, p, "after the re-intern")
	if lists := len(x.lists); lists != 2 {
		t.Fatalf("%d lists after the re-intern, want the emptied one reused: 2", lists)
	}
}

// TestQueryIndexMatchesMapOracle drives seeded random sequences of
// extend, remap (behind a real compaction) and reset, with queries
// whose first attribute lies past the table's end and peers holding
// attributes the table has never seen, and holds appendCandidates, in
// order, to a map built from scratch after every step.
func TestQueryIndexMatchesMapOracle(t *testing.T) {
	const peers, dense = 6, 10
	for seed := uint64(1); seed <= 20; seed++ {
		rng := stats.NewRNG(seed)
		wl := workload.New(peers)
		var x queryIndex
		novel := attr.ID(dense)
		randomAttr := func() attr.ID {
			if rng.Intn(4) == 0 {
				novel += attr.ID(1 + rng.Intn(30))
				return novel
			}
			if rng.Intn(3) == 0 {
				return attr.ID(dense + rng.Intn(int(novel)-dense+1))
			}
			return attr.ID(rng.Intn(dense))
		}
		for step := 0; step < 80; step++ {
			when := "extend"
			switch op := rng.Intn(10); {
			case op < 6:
				for k := rng.Intn(4); k >= 0; k-- {
					var q attr.Set
					if rng.Intn(8) != 0 {
						q = attr.NewSet(randomAttr(), randomAttr())
					}
					wl.Add(rng.Intn(peers), q, 1+rng.Intn(3))
				}
			case op < 9:
				when = "remap"
				wl.ClearPeer(rng.Intn(peers))
				if remap, removed := wl.Compact(0); removed > 0 {
					x.remap(remap)
				}
			default:
				when = "reset"
				x.reset()
			}
			x.extend(wl)
			if x.n != wl.NumQueries() {
				t.Fatalf("seed %d step %d: index covers %d of %d queries", seed, step, x.n, wl.NumQueries())
			}
			for k := 0; k < 4; k++ {
				p := holderOf(randomAttr(), randomAttr(), randomAttr(), novel+attr.ID(1+rng.Intn(50)))
				checkQueryIndex(t, &x, wl, p, when)
			}
		}
	}
}
