// Package router is the stateless query-router tier: a process that
// follows the authoritative daemon's routing-view replication feed
// (GET /v1/view/watch, wire format in internal/viewwire) and serves
// the v1 data plane — POST /v1/query and POST /v1/query/batch — from
// its local copy of the view.
//
// A router holds no overlay state of its own: everything it serves is
// reconstructed from a full record and advanced by delta records
// (joins, leaves and relocations), so any number of replicas scale the
// read path horizontally while the daemon remains the single writer.
// Because a replica answers through exactly the same code path as the
// daemon (internal/api over a core.RoutingView), its responses are
// byte-identical to the engine's for the same published view — the
// tier's correctness contract, pinned by the property tests in this
// package.
//
// The router follows the feed through retry.Follower, the long-poll
// loop every replica shares: the same rotation, epoch echo and capped
// jittered backoff a serve-tier follower uses on /v1/replog/watch.
//
// Until the first full record arrives (and again only if the process
// restarts), the data plane answers 503 with a Retry-After header and
// the api.CodeNotReady error code. After that the router always
// serves its latest synchronized view, even while the upstream is
// briefly unreachable — stale-but-consistent beats unavailable for a
// read tier; /v1/stats reports how far behind it is.
package router

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/retry"
	"repro/internal/viewwire"
)

// Config parameterizes a Router.
type Config struct {
	// Upstream is the authoritative daemon's base URL. Ignored when
	// Upstreams is set.
	Upstream string
	// Upstreams is the rotation list of upstream base URLs: the sync
	// loop follows one and rotates to the next on failure, so a router
	// rides out a leader failover by re-syncing from a survivor. Empty
	// means []string{Upstream}.
	Upstreams []string
	// PollTimeout is the long-poll timeout requested from upstream;
	// 0 means 25s.
	PollTimeout time.Duration
	// RetryAfter is the base backoff between failed sync attempts and
	// the Retry-After the data plane advertises while unsynchronized;
	// 0 means 1s. Repeated failures double the backoff (with jitter)
	// up to retry.MaxBackoff; one success resets it.
	RetryAfter time.Duration
	// Client is the HTTP client used upstream; nil means a dedicated
	// client with sane long-poll timeouts.
	Client *http.Client
	// RouteCache sizes the replica's view-epoch hot-query result cache
	// (entries; rounded up to a power of two). 0 means the default
	// 4096; negative disables caching. Because every applied
	// replication record publishes a fresh *core.RoutingView, cached
	// answers stay byte-identical to uncached routing automatically.
	RouteCache int
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if len(c.Upstreams) == 0 {
		c.Upstreams = []string{c.Upstream}
	}
	c.Upstream = c.Upstreams[0]
	if c.PollTimeout <= 0 {
		c.PollTimeout = 25 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// syncedView is one atomically published local view: the resolved
// term table plus the reconstructed routing view.
type syncedView struct {
	seq     uint64
	terms   *attr.TermTable
	routing *core.RoutingView
}

// Router follows the replication feed and serves the data plane.
type Router struct {
	cfg     Config
	started time.Time

	// view is the latest synchronized local view (nil until the first
	// full record lands); the data plane loads it once per request.
	view atomic.Pointer[syncedView]

	// cache is the replica's view-epoch hot-query result cache (nil
	// when Config.RouteCache < 0).
	cache *core.RouteCache

	// upstream is the rotation member that last answered the sync loop.
	upstream atomic.Value // string

	// notifyMu guards notify, a channel closed (and replaced) whenever
	// a new view is published — WaitSynced parks on it instead of
	// polling.
	notifyMu sync.Mutex
	notify   chan struct{}

	fullSyncs  atomic.Int64
	deltaSyncs atomic.Int64
	syncErrors atomic.Int64
	served     atomic.Int64

	// routes is the endpoint table Handler serves: the v1 data plane.
	routes *api.Routes

	ctx      context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	stopOnce sync.Once
}

// New builds a Router; call Start to launch the sync loop.
func New(cfg Config) *Router {
	rt := &Router{cfg: cfg.withDefaults(), started: time.Now()}
	if rt.cfg.RouteCache >= 0 {
		rt.cache = core.NewRouteCache(rt.cfg.RouteCache)
	}
	rt.upstream.Store(rt.cfg.Upstreams[0])
	rt.notify = make(chan struct{})
	rt.routes = api.NewRoutes(
		api.Endpoint{Key: "query", Pattern: "POST /v1/query", H: rt.handleQuery},
		api.Endpoint{Key: "query_batch", Pattern: "POST /v1/query/batch", H: rt.handleBatch},
		api.Endpoint{Key: "stats", Pattern: "GET /v1/stats", H: rt.handleStats},
	)
	rt.ctx, rt.cancel = context.WithCancel(context.Background())
	return rt
}

// Start launches the background sync loop against cfg.Upstream.
func (rt *Router) Start() {
	rt.wg.Add(1)
	go rt.follow()
}

// Shutdown stops the sync loop and waits for it to exit.
func (rt *Router) Shutdown() {
	rt.stopOnce.Do(rt.cancel)
	rt.wg.Wait()
}

// ApplyRecord advances the local view with one decoded replication
// record: a full record (re)builds it, a delta record derives the next
// view from the current one — newcomers built, the posting lists of
// changed peers patched, the vocabulary grown, everything else shared.
// A delta must chain: its base population version is the current
// view's, and its content only names attributes of the vocabulary it
// extends. Errors leave the current view untouched; the caller decides
// whether to resynchronize. Calls must not run concurrently.
func (rt *Router) ApplyRecord(rec viewwire.Record) error {
	switch rec.Kind {
	case viewwire.KindFull:
		routing, err := core.FromViewData(rec.View)
		if err != nil {
			return fmt.Errorf("router: full record rejected: %w", err)
		}
		rt.view.Store(&syncedView{seq: rec.Seq, terms: attr.NewTermTable(rec.Terms), routing: routing})
		rt.fullSyncs.Add(1)
	case viewwire.KindDelta:
		cur := rt.view.Load()
		if cur == nil {
			return fmt.Errorf("router: delta record with no base view")
		}
		vocab := cur.terms.Len() + len(rec.Names)
		for _, ch := range rec.Changed {
			for _, it := range ch.Items {
				if ids := it.IDs(); len(ids) > 0 && int(ids[len(ids)-1]) >= vocab {
					return fmt.Errorf("router: delta rejected: slot %d holds attribute %d of a %d-term vocabulary", ch.Slot, ids[len(ids)-1], vocab)
				}
			}
		}
		routing, err := cur.routing.ApplyDelta(rec.Delta())
		if err != nil {
			return fmt.Errorf("router: delta rejected: %w", err)
		}
		rt.view.Store(&syncedView{seq: rec.Seq, terms: cur.terms.Grow(rec.Names), routing: routing})
		rt.deltaSyncs.Add(1)
	default:
		return fmt.Errorf("router: unknown record kind %d", rec.Kind)
	}
	rt.wakeWaiters()
	return nil
}

// follow long-polls the upstream view feed through the shared
// follower loop (internal/retry) until Shutdown. Its position is the
// current view's (seq, pop); a record ApplyRecord rejects drops it,
// so the next poll resynchronizes with a full record.
func (rt *Router) follow() {
	defer rt.wg.Done()
	f := retry.Follower[viewwire.Record]{
		Path: "/v1/view/watch",
		Position: func() url.Values {
			v := rt.view.Load()
			if v == nil {
				return nil
			}
			return url.Values{
				"seq": {strconv.FormatUint(v.seq, 10)},
				"pop": {strconv.FormatUint(v.routing.PopVersion(), 10)},
			}
		},
		Decode:    viewwire.Decode,
		Apply:     rt.ApplyRecord,
		Upstreams: rt.cfg.Upstreams,
		Poll:      rt.cfg.PollTimeout,
		Retry:     rt.cfg.RetryAfter,
		Client:    rt.cfg.Client,
		Errors:    &rt.syncErrors,
		Current:   &rt.upstream,
		Name:      "router",
		Logf:      rt.cfg.Logf,
	}
	f.Run(rt.ctx)
}

// Synced reports whether a view is available to serve from.
func (rt *Router) Synced() bool { return rt.view.Load() != nil }

// Seq returns the synchronized view's sequence number (0 before the
// first sync).
func (rt *Router) Seq() uint64 {
	if v := rt.view.Load(); v != nil {
		return v.seq
	}
	return 0
}

// FullSyncs returns how many full records have been applied.
func (rt *Router) FullSyncs() int64 { return rt.fullSyncs.Load() }

// DeltaSyncs returns how many delta records have been applied.
func (rt *Router) DeltaSyncs() int64 { return rt.deltaSyncs.Load() }

// SyncErrors returns how many sync attempts failed.
func (rt *Router) SyncErrors() int64 { return rt.syncErrors.Load() }

// wakeWaiters releases every WaitSynced parked on the notify channel
// after a new view publishes.
func (rt *Router) wakeWaiters() {
	rt.notifyMu.Lock()
	close(rt.notify)
	rt.notify = make(chan struct{})
	rt.notifyMu.Unlock()
}

// WaitSynced blocks until the router has reached at least seq (0: any
// view at all), the timeout elapses, or the router shuts down; it
// reports success. It parks on a notification from ApplyRecord rather
// than polling, so it wakes the instant a view publishes — and
// returns immediately once Shutdown cancels the sync loop.
func (rt *Router) WaitSynced(seq uint64, timeout time.Duration) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		// Grab the notification channel before checking the view: a
		// publish between the check and the park closes this channel,
		// so the wake-up cannot be missed.
		rt.notifyMu.Lock()
		ch := rt.notify
		rt.notifyMu.Unlock()
		if v := rt.view.Load(); v != nil && v.seq >= seq {
			return true
		}
		select {
		case <-ch:
		case <-deadline.C:
			return false
		case <-rt.ctx.Done():
			return false
		}
	}
}

// AnswerQuery answers one query from the current view without HTTP
// framing — the loadtest verifier and the RouterServe benchmark drive
// this directly. ok is false while unsynchronized.
func (rt *Router) AnswerQuery(raw []string, sc *api.Scratch) (resp api.QueryResponse, ok bool) {
	v := rt.view.Load()
	if v == nil {
		return api.QueryResponse{}, false
	}
	return api.Answer(v.terms, v.routing, rt.cache, raw, sc), true
}

// Handler returns the router's HTTP handler: the v1 data plane plus
// the router's own stats.
func (rt *Router) Handler() http.Handler { return rt.routes.Handler() }

// notReady answers 503 with the Retry-After the config advertises.
func (rt *Router) notReady(w http.ResponseWriter) {
	secs := int(rt.cfg.RetryAfter.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	api.Error(w, http.StatusServiceUnavailable, api.CodeNotReady, "no synchronized view yet; retry shortly")
}

func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	v := rt.view.Load()
	if v == nil {
		rt.notReady(w)
		return
	}
	rt.served.Add(int64(api.ServeQuery(w, r, v.terms, v.routing, rt.cache)))
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	v := rt.view.Load()
	if v == nil {
		rt.notReady(w)
		return
	}
	rt.served.Add(int64(api.ServeQueryBatch(w, r, v.terms, v.routing, rt.cache)))
}

// handleStats reports the router's replication position and endpoint
// metrics — deliberately a different payload from the daemon's
// /v1/stats: a router has no engine gauges, only a followed view.
func (rt *Router) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := api.RouterStats{
		Upstream:      rt.upstream.Load().(string),
		Upstreams:     rt.cfg.Upstreams,
		FullSyncs:     rt.fullSyncs.Load(),
		DeltaSyncs:    rt.deltaSyncs.Load(),
		SyncErrors:    rt.syncErrors.Load(),
		QueriesServed: rt.served.Load(),
		RouteCache:    api.NewCacheStats(rt.cache),
		UptimeSeconds: time.Since(rt.started).Seconds(),
		Endpoints:     rt.routes.Stats(),
	}
	if v := rt.view.Load(); v != nil {
		st.Synced = true
		st.RouterView = &api.RouterView{ViewSeq: v.seq, PopVersion: v.routing.PopVersion(), Peers: v.routing.Live(), Slots: v.routing.Slots()}
	}
	api.WriteJSON(w, http.StatusOK, st)
}
