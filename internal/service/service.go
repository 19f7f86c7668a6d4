// Package service runs the clustered overlay as a long-lived network
// daemon: an always-on process whose membership is driven by HTTP
// requests (peers join and leave at any time through the engine's
// incremental membership path) and whose overlay quality is sustained
// by reformulation rounds on a ticker — the paper's periodic selfish
// maintenance turned into an online serving loop.
//
// The JSON API lives under a versioned /v1/ prefix. The endpoint
// table in New names each route once, grouped into a data plane —
// reads any stateless router replica (internal/router) can also serve
// — a control plane only this authoritative daemon serves, and a
// replication plane. API.md documents every endpoint.
//
// Errors everywhere carry the api package's JSON envelope with a
// stable machine-readable code; see API.md at the repository root.
//
// # Concurrency: a mutation path and a lock-free read path
//
// All mutations (join, leave, reform, compact, restore) serialize on
// one mutex: the cost engine is single-threaded by design (it owns
// scratch buffers), and membership operations are cheap (proportional
// to the moving peer's footprint), so a single writer serializes
// cleanly. Maintenance periods, the one mutation whose cost grows
// with the system rather than with one peer's footprint, run OFF the
// mutation critical path: a resumable protocol.Period is stepped with
// at most StepBudget work units per mutex hold (each step's phase-1
// decide scan additionally fans out over ReformWorkers cores), the
// lock is released between steps so queued joins and leaves
// interleave with the period, and the read view is republished after
// every step that granted relocations. p99 mutation latency is
// therefore bounded by one step, not one period; the /v1/stats
// mutation_lock histogram records every hold. After every mutation
// the server snapshots the routing
// state into an immutable read view — term table, posting lists,
// cluster assignment, stats gauges — and publishes it through an
// atomic pointer. POST /v1/query, POST /v1/query/batch and
// GET /v1/stats are served entirely from the latest view: they never
// take the mutex, scale across cores, and keep answering at full
// speed while a slow maintenance period holds the lock. Every answer
// is snapshot isolated — it reflects exactly one published view,
// never a half-applied mutation — and all queries of a batch share
// one view. Request counters and latency histograms are atomics, so
// GET /v1/stats is exact even mid-maintenance.
//
// Each publication is also numbered and fed to GET /v1/view/watch,
// the replication feed a router tier follows: full view records on
// first contact or population change, compact pure-relocation deltas
// while only the cluster assignment moves (see internal/viewwire).
//
// Snapshots taken periodically and on graceful shutdown let the
// overlay survive restarts: a new process restored from a snapshot
// serves the same peers, clusters and costs.
//
// # Long-running operation
//
// Distinct queries intern QIDs, and every QID owns a row in the cost
// engine's aggregates — under open-ended churn with novel queries that
// state grows with query history, not with the live population. The
// daemon therefore compacts in place (Engine.Compact: dead QIDs are
// retired and the survivors densely renumbered) whenever the dead-QID
// ratio crosses CompactDeadRatio, checked on the CompactEvery ticker
// and after every maintenance period; POST /v1/compact forces one
// immediately. Compaction preserves every cost and answer exactly, so
// it is invisible to clients; with it the daemon's memory is bounded
// by its live query set and reform serve runs indefinitely.
package service

import (
	"context"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/peer"
	"repro/internal/protocol"
	"repro/internal/replog"
	"repro/internal/retry"
	"repro/internal/workload"
)

// Config parameterizes a Server. Zero values fall back to the paper's
// setting (α = 1, ε = 0.001, linear θ).
type Config struct {
	// Alpha is the membership-cost weight.
	Alpha float64
	// Epsilon is the reformulation gain threshold.
	Epsilon float64
	// Theta is the cluster participation cost; nil means linear.
	Theta cluster.Theta
	// MaxRounds bounds each maintenance period.
	MaxRounds int
	// ReformEvery drives maintenance periods on a ticker; 0 disables
	// the ticker (maintenance then runs only via POST /v1/reform).
	ReformEvery time.Duration
	// StepBudget bounds the work — phase-1 cluster scans plus phase-2
	// grant services — one maintenance step performs while holding the
	// mutation lock; between steps the lock is released, so joins and
	// leaves interleave with an in-progress period and p99 mutation
	// latency is bounded by one step instead of one period. 0 means
	// the default 32; a negative value runs each whole period under a
	// single lock hold (the pre-scheduler behavior).
	StepBudget int
	// ReformWorkers sizes the worker pool the phase-1 decide scan of
	// each maintenance step fans out over (protocol.Options.Workers).
	// 0 means one worker per CPU; 1 scans serially. Any value produces
	// byte-identical maintenance outcomes.
	ReformWorkers int
	// SnapshotPath, when set, is where periodic and shutdown snapshots
	// are written.
	SnapshotPath string
	// SnapshotEvery is the snapshot period (0: only on shutdown).
	SnapshotEvery time.Duration
	// CompactEvery drives workload-compaction checks on a ticker; 0
	// disables the ticker (the check still runs after every
	// maintenance period, and POST /v1/compact forces a compaction).
	CompactEvery time.Duration
	// CompactDeadRatio is the dead-QID fraction above which a check
	// compacts; 0 means the default 0.5. A negative value compacts
	// whenever any dead query exists (an always-compact policy).
	CompactDeadRatio float64
	// CompactMinQueries suppresses threshold compactions while the
	// workload has fewer distinct queries than this (tiny workloads
	// flap around any ratio); 0 means the default 64.
	CompactMinQueries int
	// RouteCache sizes the view-epoch hot-query result cache the data
	// plane consults (entries; rounded up to a power of two). 0 means
	// the default 4096; a negative value disables caching so every
	// query routes from scratch. Cached answers are byte-identical to
	// uncached ones by construction (entries are keyed to the exact
	// published view), so this is purely a performance knob.
	RouteCache int
	// Join, when non-empty, starts the server as a replication
	// follower of the listed base URLs (rotated on failure; usually
	// the leader first, then sibling followers as relays). A follower
	// serves the data plane from its replicated state, redirects
	// control-plane mutations to its leader, and becomes the leader
	// itself via POST /v1/promote. Empty means lead from the start.
	Join []string
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 1
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.001
	}
	if c.Theta.F == nil {
		c.Theta = cluster.LinearTheta()
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 300
	}
	if c.StepBudget == 0 {
		c.StepBudget = 32
	}
	if c.ReformWorkers == 0 {
		c.ReformWorkers = runtime.GOMAXPROCS(0)
	}
	if c.CompactDeadRatio == 0 {
		c.CompactDeadRatio = 0.5
	}
	if c.CompactMinQueries == 0 {
		c.CompactMinQueries = 64
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the online overlay daemon.
type Server struct {
	cfg Config

	// mu serializes the mutation path: every write to vocab, eng and
	// runner happens under it, followed by a publishLocked. The read
	// path (query, batch, stats, watch) never takes it. Acquire it
	// through lockMutation so every hold is recorded in the hold-time
	// histogram; maintenance periods take it once per bounded step,
	// never across steps.
	mu      sync.Mutex
	vocab   *attr.Vocab
	eng     *core.Engine
	runner  *protocol.Runner
	started time.Time
	// viewSeq numbers publications (under mu; monotone from 1).
	viewSeq uint64

	// maintMu serializes maintenance periods themselves (the ticker
	// and POST /v1/reform): one period at a time, while mu stays free
	// between its steps.
	maintMu sync.Mutex
	// maintProgress is the in-progress period's latest position (nil
	// when no period runs); /v1/stats reads it lock-free.
	maintProgress atomic.Pointer[protocol.Progress]
	// stepHook, when set (tests only), runs between maintenance steps
	// with the mutation lock released.
	stepHook func()

	// routeCache is the view-epoch hot-query result cache the data
	// plane consults (nil when Config.RouteCache < 0). Entries are
	// keyed to the exact RoutingView they were computed against, so
	// every publication invalidates wholesale with no coordination.
	routeCache *core.RouteCache

	// view is the atomically published read snapshot; ring retains the
	// last viewRing publications as delta bases for /v1/view/watch and
	// notify wakes its long-pollers. See view.go.
	view   atomic.Pointer[readView]
	ringMu sync.Mutex
	ring   [viewRing]*readView
	notify atomic.Pointer[notifier]

	// Operational counters, each reported by GET /v1/stats as the
	// api.DaemonStats field of the same meaning (scanned covers
	// finished periods; the open one reports through maintProgress).
	// All atomics: the read path touches them without the mutex.
	reforms, rounds, moves, scanned, joins, leaves atomic.Int64
	compactions, compacted, served                 atomic.Int64
	publishes, fullRecords, deltaRecords           atomic.Int64

	// routes is the endpoint table Handler serves.
	routes *api.Routes
	// lockHold records every mutation-lock hold (joins, leaves,
	// compactions, snapshots and single maintenance steps).
	lockHold api.LatencyHist

	// Replication (see replication.go and follow.go). Every node —
	// leader or follower — carries the mutation log; the leader
	// appends to it under the mutation lock, followers append what
	// they replay from the stream, and any node serves the
	// /v1/replog/watch feed from its copy. epoch is this instance's
	// random identity, stamped on both replication feeds so clients
	// detect restarts.
	replLog    *replog.Log
	epoch      uint64
	isLeader   atomic.Bool
	leaderTerm atomic.Uint64
	// replSynced flips once a follower installs its first catch-up;
	// until then its data plane answers 503 not_ready.
	replSynced atomic.Bool
	// replOpenPeriod tracks whether the log shows a maintenance period
	// open (startPeriodLocked to endPeriodLocked): what a promotion must
	// close.
	replOpenPeriod atomic.Bool
	// leaderURL is where a follower redirects control-plane mutations
	// (the upstream it last synced from; holds a string).
	leaderURL atomic.Value
	// promoteMu serializes Promote against itself.
	promoteMu sync.Mutex
	// followCancel/followDone bound the follower sync loop's lifetime;
	// Promote and BeginShutdown cancel it and wait on done.
	followCancel context.CancelFunc
	followDone   chan struct{}

	entriesLogged     atomic.Int64
	entriesApplied    atomic.Int64
	catchupsServed    atomic.Int64
	catchupsInstalled atomic.Int64
	replErrors        atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a Server over an initially empty system: the population
// grows entirely through the join API, a snapshot restore, or — with
// Config.Join set — replication from a leader.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		started: time.Now(),
		stop:    make(chan struct{}),
	}
	s.routes = api.NewRoutes(
		// Data plane: servable from a published view alone (on a
		// follower, once the first catch-up installed).
		api.Endpoint{Key: "query", Pattern: "POST /v1/query", H: s.handleQuery},
		api.Endpoint{Key: "query_batch", Pattern: "POST /v1/query/batch", H: s.handleQueryBatch},
		api.Endpoint{Key: "stats", Pattern: "GET /v1/stats", H: s.handleStats},
		// Control plane: mutations serve on the leader; followers
		// redirect them there (307) so clients can talk to any node.
		api.Endpoint{Key: "peers_join", Pattern: "POST /v1/peers", H: s.leaderOnly(s.handleJoin)},
		api.Endpoint{Key: "peers_get", Pattern: "GET /v1/peers/{id}", H: s.handlePeerGet},
		api.Endpoint{Key: "peers_leave", Pattern: "DELETE /v1/peers/{id}", H: s.leaderOnly(s.handleLeave)},
		api.Endpoint{Key: "reform", Pattern: "POST /v1/reform", H: s.leaderOnly(s.handleReform)},
		api.Endpoint{Key: "compact", Pattern: "POST /v1/compact", H: s.leaderOnly(s.handleCompact)},
		api.Endpoint{Key: "snapshot", Pattern: "GET /v1/snapshot", H: s.handleSnapshot},
		api.Endpoint{Key: "view_watch", Pattern: "GET /v1/view/watch", H: s.handleViewWatch},
		// Replication plane: the mutation-log feed (any node) and
		// follower promotion (deliberately NOT leader-gated: it is
		// what a follower runs when the leader is gone).
		api.Endpoint{Key: "replog_watch", Pattern: "GET /v1/replog/watch", H: s.handleReplogWatch},
		api.Endpoint{Key: "promote", Pattern: "POST /v1/promote", H: s.handlePromote},
	)
	if cfg.RouteCache >= 0 {
		s.routeCache = core.NewRouteCache(cfg.RouteCache)
	}
	s.replLog = replog.NewLog()
	s.epoch = newEpoch()
	// No follow loop yet: done is pre-closed and cancel a no-op, so
	// Promote works even on a follower whose Start was never called.
	s.followDone = make(chan struct{})
	close(s.followDone)
	s.followCancel = func() {}
	if len(cfg.Join) == 0 {
		// Standalone == a leader with no followers yet; it logs every
		// mutation so followers can join at any time.
		s.isLeader.Store(true)
		s.leaderTerm.Store(1)
	}
	s.adoptLocked(attr.NewVocab(), core.New(nil, workload.New(0), cluster.FromAssignment(nil), cfg.Theta, cfg.Alpha), 0)
	return s
}

// Start launches the background loops: maintenance and compaction
// tickers (which fire only while this node leads — a promoted
// follower's tickers come alive without new goroutines), the snapshot
// ticker, and — when Config.Join is set — the replication follow loop.
// Callers that only use the HTTP handler (tests, manual maintenance)
// may skip it.
func (s *Server) Start() {
	if s.cfg.ReformEvery > 0 {
		s.wg.Add(1)
		go s.tick(s.cfg.ReformEvery, func() {
			if !s.isLeader.Load() {
				return // maintenance is scheduled by the leader alone
			}
			rpt := s.Reform()
			s.cfg.Logf("reform: %d rounds, %d moves, scost %.4f -> %.4f",
				rpt.RoundsRun, countMoves(rpt), rpt.InitialSCost, rpt.FinalSCost)
		})
	}
	if s.cfg.SnapshotPath != "" && s.cfg.SnapshotEvery > 0 {
		s.wg.Add(1)
		go s.tick(s.cfg.SnapshotEvery, func() {
			if err := s.WriteSnapshot(s.cfg.SnapshotPath); err != nil {
				s.cfg.Logf("snapshot: %v", err)
			}
		})
	}
	if s.cfg.CompactEvery > 0 {
		s.wg.Add(1)
		go s.tick(s.cfg.CompactEvery, func() {
			if !s.isLeader.Load() {
				return // compactions replicate from the leader's log
			}
			defer s.lockMutation()()
			// Republish only when the check actually compacted: a
			// no-op tick changes nothing a view carries.
			if s.maybeCompactLocked() > 0 {
				s.publishLocked()
			}
		})
	}
	select {
	case <-s.stop:
		return // shut down before Start: don't launch the follow loop
	default:
	}
	if len(s.cfg.Join) > 0 && !s.isLeader.Load() {
		ctx, cancel := context.WithCancel(context.Background())
		s.followCancel = cancel
		s.followDone = make(chan struct{})
		s.wg.Add(1)
		go s.followLoop(ctx, s.cfg.Join)
	}
}

func (s *Server) tick(every time.Duration, fn func()) {
	defer s.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			fn()
		case <-s.stop:
			return
		}
	}
}

// BeginShutdown starts a graceful stop without waiting: the stop
// channel closes, which ends the tickers and the follow loop and —
// critically — wakes every long-poll parked in /v1/view/watch and
// /v1/replog/watch (they answer 204 immediately). Call it BEFORE
// http.Server.Shutdown, which otherwise waits out each watcher's
// long-poll timeout (up to watchMaxTimeout) as an in-flight request.
// Idempotent.
func (s *Server) BeginShutdown() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.followCancel()
}

// Shutdown stops the background loops, waits for them, and writes a
// final snapshot when a path is configured, so a restarted daemon
// resumes the same overlay. (It includes BeginShutdown; callers
// pairing with an http.Server should call BeginShutdown first, then
// http.Server.Shutdown, then this.)
func (s *Server) Shutdown() error {
	s.BeginShutdown()
	s.wg.Wait()
	if s.cfg.SnapshotPath != "" {
		return s.WriteSnapshot(s.cfg.SnapshotPath)
	}
	return nil
}

// lockMutation acquires the mutation lock and returns its release
// func, which records the hold duration in the mutation-lock
// histogram /v1/stats exposes — the direct measure of how long any
// single critical section can stall a join or leave.
func (s *Server) lockMutation() func() {
	s.mu.Lock()
	start := time.Now()
	return func() {
		s.lockHold.Observe(time.Since(start))
		s.mu.Unlock()
	}
}

// Reform runs one maintenance period now and returns its report.
//
// The period executes off the mutation critical path: a resumable
// protocol.Period is stepped with StepBudget work units per step, the
// mutation lock is taken for one step at a time and released between
// steps, so joins, leaves and compactions interleave with an
// in-progress period instead of stalling behind all of its rounds.
// The read view is republished after every step that granted
// relocations — queries see the overlay improve mid-period — and a
// threshold compaction check rides along at the end: maintenance
// periods are the natural cadence at which churned-away demand
// accumulates. Concurrent Reform calls (the ticker and POST
// /v1/reform) serialize on maintMu, one period at a time.
func (s *Server) Reform() protocol.Report {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	budget := s.cfg.StepBudget
	if budget < 0 {
		budget = 0 // protocol: unbounded step = whole period in one hold
	}

	unlock := s.lockMutation()
	per := s.runner.Begin()
	s.startPeriodLocked()
	drained := 0
	pr := per.Progress()
	s.maintProgress.Store(&pr)
	for {
		moves := per.Moves()
		done := per.Step(budget)
		if per.Moves() > moves {
			// Replicate this step's grants before publishing, under the
			// same hold: followers learn each relocation exactly when
			// the leader's own read view starts reflecting it.
			drained = s.logGrantsLocked(per, drained)
			s.publishLocked()
		}
		pr := per.Progress()
		s.maintProgress.Store(&pr)
		if done {
			s.scanned.Add(int64(pr.Scanned))
			s.maybeCompactLocked()
			rpt := per.Report()
			s.endPeriodLocked(replog.PeriodEndOp{
				Converged: rpt.Converged,
				Rounds:    rpt.RoundsRun,
				Moves:     countMoves(rpt),
			})
			s.publishLocked()
			unlock()
			break
		}
		unlock()
		// The lock is free: queued joins and leaves get their turn
		// before the next step is scheduled.
		if h := s.stepHook; h != nil {
			h()
		}
		runtime.Gosched()
		unlock = s.lockMutation()
	}
	s.maintProgress.Store(nil)

	rpt := per.Report()
	// Detach the report from the runner-recycled Rounds storage: the
	// caller may still be reading it when the next period begins.
	rpt.Rounds = append([]protocol.RoundReport(nil), rpt.Rounds...)
	return rpt
}

// Compact retires dead queries now, regardless of the dead-QID ratio.
// It returns how many were removed, the surviving distinct-query
// count, and the daemon's compaction generation — the same triple
// POST /v1/compact reports.
func (s *Server) Compact() (removed, queries, generation int) {
	defer s.lockMutation()()
	op := s.compactLocked()
	s.publishLocked()
	return op.Removed, op.Queries, int(s.compactions.Load())
}

// maybeCompactLocked compacts when the dead-QID ratio crosses the
// configured threshold and returns the number of queries removed
// (0 when the check was a no-op). Callers hold s.mu.
func (s *Server) maybeCompactLocked() int {
	total := s.eng.Workload().NumQueries()
	if total < s.cfg.CompactMinQueries {
		return 0
	}
	dead := s.eng.DeadQueries(0)
	if dead == 0 || float64(dead) <= s.cfg.CompactDeadRatio*float64(total) {
		return 0
	}
	return s.compactLocked().Removed
}

// The replicated transitions. Each runs under s.mu and mutates, counts
// and logs in one place: the leader's handlers, Reform and Promote
// call it with what they decided, and a follower's applyEntryLocked
// calls it with what the entry carries, then compares the outcome the
// entry records. logLocked does nothing on a follower.

// compactLocked retires every dead query and returns how many it
// removed and how many distinct queries are left.
func (s *Server) compactLocked() replog.CompactOp {
	before := s.eng.Workload().NumQueries()
	op := replog.CompactOp{Removed: s.eng.Compact(0), Queries: s.eng.Workload().NumQueries()}
	if op.Removed > 0 {
		s.compactions.Add(1)
		s.compacted.Add(int64(op.Removed))
		s.logLocked(replog.KindCompact, op)
		s.cfg.Logf("compact: %d -> %d distinct queries (generation %d)",
			before, op.Queries, s.compactions.Load())
	}
	return op
}

// joinLocked admits the peer op describes and returns op with the slot
// and cluster the engine placed it in.
func (s *Server) joinLocked(op replog.JoinOp) replog.JoinOp {
	pr := peer.New(-1)
	pr.SetItems(internItems(s.vocab, op.Items))
	queries := make([]attr.Set, len(op.Queries))
	counts := make([]int, len(op.Queries))
	for i, q := range op.Queries {
		queries[i] = attr.NewSet(s.vocab.InternAll(q.Terms)...)
		counts[i] = q.Count
	}
	op.Slot = s.eng.AddPeer(pr, queries, counts, cluster.None)
	op.Cluster = int(s.eng.Config().ClusterOf(op.Slot))
	s.joins.Add(1)
	s.logLocked(replog.KindJoin, op)
	return op
}

// leaveLocked retires the live peer in slot.
func (s *Server) leaveLocked(slot int) {
	s.eng.RemovePeer(slot)
	s.leaves.Add(1)
	s.logLocked(replog.KindLeave, replog.LeaveOp{Slot: slot})
}

// startPeriodLocked opens a maintenance period.
func (s *Server) startPeriodLocked() {
	s.logLocked(replog.KindPeriodStart, nil)
	s.replOpenPeriod.Store(true)
}

// endPeriodLocked closes the open maintenance period. Only a period
// that ran to its end counts: reforms, rounds and moves advance by
// op's figures unless op is Aborted.
func (s *Server) endPeriodLocked(op replog.PeriodEndOp) {
	s.logLocked(replog.KindPeriodEnd, op)
	s.replOpenPeriod.Store(false)
	if !op.Aborted {
		s.reforms.Add(1)
		s.rounds.Add(int64(op.Rounds))
		s.moves.Add(int64(op.Moves))
	}
}

func countMoves(rpt protocol.Report) int {
	n := 0
	for _, rr := range rpt.Rounds {
		n += rr.Granted
	}
	return n
}

// Handler returns the daemon's HTTP handler: the v1 surface.
func (s *Server) Handler() http.Handler { return s.routes.Handler() }

// The request-size limits are the api package's.
const (
	maxBodyBytes    = api.MaxBodyBytes
	maxBatchQueries = api.MaxBatchQueries
)

// The data-plane wire types are the api package's; the aliases keep
// this package's tests and callers spelled the way the handlers read.
type (
	queryRequest  = api.QueryRequest
	clusterHit    = api.ClusterHit
	queryResponse = api.QueryResponse
	batchRequest  = api.BatchRequest
	batchResponse = api.BatchResponse
)

// joinRequest is the POST /v1/peers body.
type joinRequest struct {
	// Items is the peer's shared content: one attribute-set (e.g. the
	// distinct terms of a document) per item.
	Items [][]string `json:"items"`
	// Queries is the peer's local workload.
	Queries []replog.QueryCount `json:"queries"`
}

type joinResponse struct {
	ID      int     `json:"id"`
	Cluster int     `json:"cluster"`
	Peers   int     `json:"peers"`
	SCost   float64 `json:"scost"`
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if !api.DecodeStrict(w, r, "join", &req) {
		return
	}
	for _, q := range req.Queries {
		if len(q.Terms) == 0 {
			api.Error(w, http.StatusBadRequest, api.CodeEmptyQuery, "query with no terms")
			return
		}
		if q.Count <= 0 {
			api.Error(w, http.StatusBadRequest, api.CodeBadQueryCount, "query count must be positive")
			return
		}
	}

	if req.Queries == nil {
		req.Queries = []replog.QueryCount{} // logged as [], never null
	}

	defer s.lockMutation()()
	op := s.joinLocked(replog.JoinOp{Items: req.Items, Queries: req.Queries})
	s.publishLocked()
	api.WriteJSON(w, http.StatusCreated, joinResponse{
		ID:      op.Slot,
		Cluster: op.Cluster,
		Peers:   s.eng.NumPeers(),
		SCost:   s.eng.SCostNormalized(),
	})
}

func (s *Server) peerID(w http.ResponseWriter, r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		api.Error(w, http.StatusBadRequest, api.CodeBadPeerID, "bad peer id %q", r.PathValue("id"))
		return 0, false
	}
	if !s.isLive(id) {
		api.Error(w, http.StatusNotFound, api.CodePeerNotFound, "no live peer %d", id)
		return 0, false
	}
	return id, true
}

// isLive reports whether id names a slot a live peer holds. Callers
// hold s.mu.
func (s *Server) isLive(id int) bool {
	return id >= 0 && id < s.eng.NumSlots() && s.eng.IsLive(id)
}

func (s *Server) handlePeerGet(w http.ResponseWriter, r *http.Request) {
	defer s.lockMutation()()
	id, ok := s.peerID(w, r)
	if !ok {
		return
	}
	cid := s.eng.Config().ClusterOf(id)
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"id":           id,
		"cluster":      int(cid),
		"cluster_size": s.eng.Config().Size(cid),
		"cost":         s.eng.PeerCost(id, cid),
	})
}

func (s *Server) handleLeave(w http.ResponseWriter, r *http.Request) {
	defer s.lockMutation()()
	id, ok := s.peerID(w, r)
	if !ok {
		return
	}
	s.leaveLocked(id)
	s.publishLocked()
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"removed": id,
		"peers":   s.eng.NumPeers(),
		"scost":   s.eng.SCostNormalized(),
	})
}

// handleQuery routes a query: it reports, cluster by cluster, where
// the query's results live — the routing view a querying client uses
// to decide which clusters to contact. It is read-only (ad-hoc
// queries are not recorded as demand) and lock-free: the answer comes
// entirely from the latest published read view, through the exact
// code path every router replica runs (api.ServeQuery).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !s.dataReady(w) {
		return
	}
	v := s.loadView()
	s.served.Add(int64(api.ServeQuery(w, r, v.terms, v.routing, s.routeCache)))
}

// dataReady gates the data plane on a follower that has not installed
// its first catch-up yet: its (empty) view is not the overlay, so it
// answers 503 not_ready — exactly like an unsynchronized router
// replica — instead of confidently wrong empty answers.
func (s *Server) dataReady(w http.ResponseWriter) bool {
	if s.isLeader.Load() || s.replSynced.Load() {
		return true
	}
	w.Header().Set("Retry-After", "1")
	api.Error(w, http.StatusServiceUnavailable, api.CodeNotReady,
		"follower has no replicated state yet; retry shortly")
	return false
}

// handleQueryBatch routes up to api.MaxBatchQueries queries in one
// request. All answers come from one published view, so the batch is
// internally consistent even while mutations land concurrently.
func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	if !s.dataReady(w) {
		return
	}
	v := s.loadView()
	s.served.Add(int64(api.ServeQueryBatch(w, r, v.terms, v.routing, s.routeCache)))
}

// Long-poll bounds for both watch feeds.
const (
	watchDefaultTimeout = 25 * time.Second
	watchMaxTimeout     = 55 * time.Second
)

// handleViewWatch is the view replication feed: a long-poll that
// returns the wire record carrying the watcher from its (seq, pop)
// position to the latest published view. First contact (no position)
// gets the current full record immediately; an up-to-date watcher
// blocks until the next publication, its timeout, or server shutdown
// (both 204); a watcher whose base is still in the delta ring gets a
// delta (joins, leaves and relocations since), anything else a full
// resync. Positions are only honored when the watcher echoes
// this instance's epoch: a watcher that outlived a restart (sequence
// numbers reset with the process) is otherwise resynchronized with a
// full record instead of silently fed records keyed against the dead
// instance's history. Lock-free like the rest of the read path.
func (s *Server) handleViewWatch(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(retry.EpochHeader, strconv.FormatUint(s.epoch, 10))
	q := r.URL.Query()
	seq, ok := queryU64(w, q, "seq")
	if !ok {
		return
	}
	pop, ok := queryU64(w, q, "pop")
	if !ok {
		return
	}
	epoch, ok := queryU64(w, q, "epoch")
	if !ok {
		return
	}
	if epoch != 0 && epoch != s.epoch {
		// The watcher followed another instance; its position means
		// nothing here. Treat as first contact.
		seq, pop = 0, 0
	}
	s.longPoll(w, r, func() <-chan struct{} { return s.notify.Load().ch },
		func() []byte { return s.recordSince(seq, pop) })
}

// queryU64 parses the unsigned query parameter name of a watch feed, 0
// when absent. A malformed value is answered 400 and ok is false.
func queryU64(w http.ResponseWriter, q url.Values, name string) (n uint64, ok bool) {
	raw := q.Get(name)
	if raw == "" {
		return 0, true
	}
	n, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		api.Error(w, http.StatusBadRequest, api.CodeBadParam, "bad %s %q", name, raw)
		return 0, false
	}
	return n, true
}

// longPoll parks a watch request until next has a record for it, then
// writes that record. changed returns a channel closed at the feed's
// next change; it is loaded before next runs, so a change between the
// two cannot be missed. The request's timeout_ms (clamped to
// watchMaxTimeout) and server shutdown both end the park with 204 —
// shutdown answers every parked watcher at once, so
// http.Server.Shutdown is not held hostage by long polls.
func (s *Server) longPoll(w http.ResponseWriter, r *http.Request, changed func() <-chan struct{}, next func() []byte) {
	timeout, err := api.ParseTimeoutMS(r.URL.Query().Get("timeout_ms"), watchDefaultTimeout, watchMaxTimeout)
	if err != nil {
		api.Error(w, http.StatusBadRequest, api.CodeBadParam, "%v", err)
		return
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		ch := changed()
		if rec := next(); rec != nil {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(rec)
			return
		}
		select {
		case <-ch:
		case <-deadline.C:
			w.WriteHeader(http.StatusNoContent)
			return
		case <-s.stop:
			w.WriteHeader(http.StatusNoContent)
			return
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleReform(w http.ResponseWriter, _ *http.Request) {
	rpt := s.Reform()
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"rounds":    rpt.RoundsRun,
		"moves":     countMoves(rpt),
		"converged": rpt.Converged,
		"scost":     rpt.FinalSCost,
		"wcost":     rpt.FinalWCost,
		"clusters":  rpt.FinalClusters,
	})
}

func (s *Server) handleCompact(w http.ResponseWriter, _ *http.Request) {
	removed, queries, generation := s.Compact()
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"removed":     removed,
		"queries":     queries,
		"compactions": generation,
	})
}

// handleStats is lock-free: gauges come from the latest published
// view (exact between mutations by construction) and counters from
// atomics, so the numbers are correct even while a maintenance
// period holds the mutation lock.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	v := s.loadView()
	holds, lat := s.lockHold.Summary()
	pr := s.maintProgress.Load()
	api.WriteJSON(w, http.StatusOK, api.DaemonStats{
		Gauges:           v.g,
		Compactions:      s.compactions.Load(),
		CompactedQueries: s.compacted.Load(),
		Reforms:          s.reforms.Load(),
		Rounds:           s.rounds.Load(),
		Moves:            s.moves.Load(),
		Joins:            s.joins.Load(),
		Leaves:           s.leaves.Load(),
		QueriesServed:    s.served.Load(),
		RouteCache:       api.NewCacheStats(s.routeCache),
		PublishedViews:   s.publishes.Load(),
		ViewSeq:          v.seq,
		PopVersion:       v.routing.PopVersion(),
		WatchFull:        s.fullRecords.Load(),
		WatchDelta:       s.deltaRecords.Load(),
		Endpoints:        s.routes.Stats(),
		Maintenance: api.MaintenanceStats{
			Active:     pr != nil,
			StepBudget: s.cfg.StepBudget,
			Workers:    s.cfg.ReformWorkers,
			Scanned:    s.scanned.Load(),
			Progress:   pr,
		},
		Replication:   s.replicationStats(),
		MutationLock:  api.HoldStats{Holds: holds, Latency: lat},
		UptimeSeconds: time.Since(s.started).Seconds(),
	})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	api.WriteJSON(w, http.StatusOK, s.Snapshot())
}
