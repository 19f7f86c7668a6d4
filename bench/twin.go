package main

import (
	"runtime"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/peer"
	"repro/internal/protocol"
	"repro/internal/service"
	"repro/internal/workload"
)

// twin is an engine built from a snapshot exactly as
// service.NewFromSnapshot builds the daemon's — same vocabulary order,
// same workload interning order, same runner options — but with no
// service around it. It is the oracle maintenance is checked against
// and the stand-in the layer replays mutate, since the daemon keeps
// its engine private.
type twin struct {
	vocab  *attr.Vocab
	eng    *core.Engine
	runner *protocol.Runner
}

func newTwin(snap *service.Snapshot) *twin {
	tw := &twin{vocab: attr.NewVocab()}
	peers := make([]*peer.Peer, snap.Slots)
	wl := workload.New(snap.Slots)
	assign := make([]cluster.CID, snap.Slots)
	for i := range assign {
		assign[i] = cluster.None
	}
	for _, ps := range snap.Peers {
		pr := peer.New(ps.Slot)
		pr.SetItems(tw.sets(ps.Items))
		peers[ps.Slot] = pr
		// PeerSnapshot.Queries has an unexported element type; its
		// fields are reachable all the same.
		for _, q := range ps.Queries {
			wl.Add(ps.Slot, attr.NewSet(tw.vocab.InternAll(q.Terms)...), q.Count)
		}
		assign[ps.Slot] = cluster.CID(ps.Cluster)
	}
	tw.eng = core.New(peers, wl, cluster.FromAssignment(assign), cluster.LinearTheta(), snap.Alpha)
	tw.runner = protocol.NewRunner(tw.eng, core.NewSelfish(), protocol.Options{
		Epsilon:          snap.Epsilon,
		MaxRounds:        maxRounds,
		AllowNewClusters: true,
		Workers:          runtime.GOMAXPROCS(0),
	})
	return tw
}

// sets interns term lists into attribute sets, growing the vocabulary
// in the order the daemon's does.
func (tw *twin) sets(items [][]string) []attr.Set {
	out := make([]attr.Set, 0, len(items))
	for _, it := range items {
		out = append(out, attr.NewSet(tw.vocab.InternAll(it)...))
	}
	return out
}

// converge runs maintenance periods to convergence, as
// topology.converge does over HTTP, and returns the same totals.
func (tw *twin) converge() reformResponse {
	var total reformResponse
	for i := 0; i < maxPeriods && !total.Converged; i++ {
		rpt := tw.runner.Run()
		total.Rounds += rpt.RoundsRun
		total.Converged = rpt.Converged
	}
	total.SCost = tw.eng.SCostNormalized()
	total.Clusters = tw.eng.Config().NumNonEmpty()
	return total
}

// terms renders the vocabulary as the name table and lookup map a
// published view carries.
func (tw *twin) terms() (names []string, byName map[string]attr.ID) {
	names = make([]string, tw.vocab.Len())
	byName = make(map[string]attr.ID, len(names))
	for id := range names {
		names[id] = tw.vocab.Name(attr.ID(id))
		byName[names[id]] = attr.ID(id)
	}
	return names, byName
}
