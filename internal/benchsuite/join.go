// Package benchsuite holds micro-benchmark bodies that both harnesses
// run — `go test -bench` through bench_test.go and `reform bench`
// through testing.Benchmark — so a benchmark is defined once.
package benchsuite

import (
	"testing"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/peer"
	"repro/internal/router"
	"repro/internal/stats"
	"repro/internal/viewwire"
)

// newcomer draws one joiner for sys.
func newcomer(sys *experiments.System) (*peer.Peer, []attr.Set, []int) {
	items, queries, counts := sys.NewcomerMaterials(0, 0, 0, stats.NewRNG(6))
	pr := peer.New(-1)
	pr.SetItems(items)
	return pr, queries, counts
}

// BuildViewAfterJoin times what publishing a join costs the daemon:
// BuildRoutingView against the previous view right after one AddPeer.
// The join itself, and the leave and republish that restore the
// population for the next iteration, run with the timer stopped. eng is
// left as it was found.
func BuildViewAfterJoin(sys *experiments.System, eng *core.Engine) func(b *testing.B) {
	return func(b *testing.B) {
		pr, queries, counts := newcomer(sys)
		view := eng.BuildRoutingView(nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			id := eng.AddPeer(pr, queries, counts, cluster.None)
			b.StartTimer()
			view = eng.BuildRoutingView(view)
			b.StopTimer()
			eng.RemovePeer(id)
			view = eng.BuildRoutingView(view)
			b.StartTimer()
		}
	}
}

// RouterApplyJoinDelta times what the same join costs a router replica:
// ApplyRecord of the decoded delta record that carries it, against a
// view synchronized from one full record, and reports the record's size
// as wire-B/join. The leave's delta, which restores the population for
// the next iteration, is applied with the timer stopped. eng is left as
// it was found.
func RouterApplyJoinDelta(sys *experiments.System, eng *core.Engine) func(b *testing.B) {
	return func(b *testing.B) {
		decode := func(wire []byte) viewwire.Record {
			rec, err := viewwire.Decode(wire)
			if err != nil {
				b.Fatal(err)
			}
			return rec
		}
		pr, queries, counts := newcomer(sys)
		base := eng.BuildRoutingView(nil)
		id := eng.AddPeer(pr, queries, counts, cluster.None)
		joined := eng.BuildRoutingView(base)
		eng.RemovePeer(id)
		left := eng.BuildRoutingView(joined)
		dj, _ := joined.DeltaFrom(base)
		dl, _ := left.DeltaFrom(joined)
		joinWire := viewwire.AppendViewDelta(nil, 2, nil, dj)
		join := decode(joinWire)
		leave := decode(viewwire.AppendViewDelta(nil, 3, nil, dl))

		rt := router.New(router.Config{Upstream: "unused", RouteCache: -1})
		if err := rt.ApplyRecord(decode(viewwire.AppendFull(nil, 1, sys.Gen.Vocab().Names(), base.Export()))); err != nil {
			b.Fatal(err)
		}
		pop := base.PopVersion()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Each record chains on the population version the previous
			// one left the replica at.
			join.BasePop, join.PopVersion = pop, pop+1
			leave.BasePop, leave.PopVersion = pop+1, pop+2
			pop += 2
			if err := rt.ApplyRecord(join); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := rt.ApplyRecord(leave); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(len(joinWire)), "wire-B/join")
	}
}
