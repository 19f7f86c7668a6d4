package api

import (
	"repro/internal/core"
	"repro/internal/protocol"
)

// This file is the GET /v1/stats schema of both tiers. Servers fill
// these types and clients decode into them; API.md documents the
// fields from the comments here. A nil embedded pointer drops its
// block's keys from the payload.

// DaemonStats is the daemon's GET /v1/stats payload.
type DaemonStats struct {
	Gauges
	// Compactions is the compaction generation (it survives snapshot
	// restores); CompactedQueries counts the queries compactions retired.
	Compactions      int64 `json:"compactions"`
	CompactedQueries int64 `json:"compacted_queries"`
	// Reforms, Rounds and Moves count finished maintenance periods,
	// their reformulation rounds and their granted relocations.
	Reforms int64 `json:"reforms"`
	Rounds  int64 `json:"rounds"`
	Moves   int64 `json:"moves"`
	// Joins and Leaves count membership changes applied on this node.
	Joins  int64 `json:"joins"`
	Leaves int64 `json:"leaves"`
	// QueriesServed counts queries answered, single and batched.
	QueriesServed int64      `json:"queries_served"`
	RouteCache    CacheStats `json:"route_cache"`
	// PublishedViews counts read-view publications. ViewSeq is the
	// latest view's sequence number and PopVersion its population
	// version, the position a watcher of GET /v1/view/watch echoes.
	PublishedViews int64  `json:"published_views"`
	ViewSeq        uint64 `json:"view_seq"`
	PopVersion     uint64 `json:"pop_version"`
	// WatchFull and WatchDelta count the full and delta records
	// GET /v1/view/watch shipped.
	WatchFull  int64 `json:"watch_full"`
	WatchDelta int64 `json:"watch_delta"`
	// Endpoints holds one entry per route, keyed by endpoint name.
	Endpoints   map[string]EndpointStats `json:"endpoints"`
	Maintenance MaintenanceStats         `json:"maintenance"`
	Replication ReplicationStats         `json:"replication"`
	// MutationLock is the hold-time histogram of the mutation lock:
	// joins, leaves, compactions, snapshots and maintenance steps.
	MutationLock  HoldStats `json:"mutation_lock"`
	UptimeSeconds float64   `json:"uptime_seconds"`
}

// Gauges are the engine-derived numbers of a daemon's stats, captured
// when a view is published. They change only at mutation boundaries,
// so they are exact between publishes.
type Gauges struct {
	// Peers counts live peers; Slots counts slots, vacated ones too.
	Peers int `json:"peers"`
	Slots int `json:"slots"`
	// Clusters counts non-empty clusters.
	Clusters int `json:"clusters"`
	// Queries counts distinct workload queries; DeadQueries those no
	// live peer asks any more, which a compaction retires.
	Queries     int `json:"queries"`
	DeadQueries int `json:"dead_queries"`
	// SCost and WCost are the normalized social and workload costs.
	SCost float64 `json:"scost"`
	WCost float64 `json:"wcost"`
}

// MaintenanceStats is the daemon's maintenance block.
type MaintenanceStats struct {
	// Active says a maintenance period is open; its position follows.
	Active bool `json:"active"`
	// StepBudget is the work one step does under the mutation lock;
	// Workers sizes the phase-1 decide scan.
	StepBudget int `json:"step_budget"`
	Workers    int `json:"workers"`
	// Scanned counts the phase-1 peer evaluations of finished periods.
	Scanned int64 `json:"scanned"`
	// Progress is the open period's position; nil between periods.
	*protocol.Progress
}

// ReplicationStats is the daemon's replication block.
type ReplicationStats struct {
	// Role is "leader" or "follower"; Term is the leadership term.
	Role string `json:"role"`
	Term uint64 `json:"term"`
	// Epoch is this instance's random identity, in decimal.
	Epoch string `json:"epoch"`
	// LogBase, LogLast and LogLen locate the retained mutation log.
	LogBase uint64 `json:"log_base"`
	LogLast uint64 `json:"log_last"`
	LogLen  int    `json:"log_len"`
	// EntriesLogged and EntriesApplied count log entries appended as
	// leader and replayed as follower.
	EntriesLogged  int64 `json:"entries_logged"`
	EntriesApplied int64 `json:"entries_applied"`
	// CatchupsServed and CatchupsInstalled count catch-up snapshots
	// sent to followers and installed from upstream.
	CatchupsServed    int64 `json:"catchups_served"`
	CatchupsInstalled int64 `json:"catchups_installed"`
	// SyncErrors counts failed polls of GET /v1/replog/watch.
	SyncErrors int64 `json:"sync_errors"`
	// Synced is true on a leader and on a follower once its first
	// catch-up installed.
	Synced bool `json:"synced"`
	// OpenPeriod says the log shows a maintenance period open.
	OpenPeriod bool `json:"open_period"`
	// LeaderURL is where a follower redirects mutations; a leader omits it.
	LeaderURL string `json:"leader_url,omitempty"`
}

// RouterStats is a router's GET /v1/stats payload.
type RouterStats struct {
	// Synced says a view has arrived; its position follows.
	Synced bool `json:"synced"`
	// Upstream is the rotation member that last answered; Upstreams is
	// the whole rotation.
	Upstream  string   `json:"upstream"`
	Upstreams []string `json:"upstreams"`
	// FullSyncs and DeltaSyncs count applied records; SyncErrors
	// counts failed polls.
	FullSyncs     int64                    `json:"full_syncs"`
	DeltaSyncs    int64                    `json:"delta_syncs"`
	SyncErrors    int64                    `json:"sync_errors"`
	QueriesServed int64                    `json:"queries_served"`
	RouteCache    CacheStats               `json:"route_cache"`
	UptimeSeconds float64                  `json:"uptime_seconds"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
	// RouterView is nil until the first full record arrives.
	*RouterView
}

// Seq returns the synced view's sequence number, 0 before the first
// sync. (Reading ViewSeq directly panics on an unsynced router's stats.)
func (st RouterStats) Seq() uint64 {
	if st.RouterView == nil {
		return 0
	}
	return st.ViewSeq
}

// RouterView is where a synced router stands.
type RouterView struct {
	ViewSeq    uint64 `json:"view_seq"`
	PopVersion uint64 `json:"pop_version"`
	Peers      int    `json:"peers"`
	Slots      int    `json:"slots"`
}

// CacheStats is the route_cache block of both tiers.
type CacheStats struct {
	Enabled bool `json:"enabled"`
	// RouteCacheStats holds the counters; nil when the cache is off.
	*core.RouteCacheStats
}

// NewCacheStats reports c's counters; a nil cache reports disabled.
func NewCacheStats(c *core.RouteCache) CacheStats {
	if c == nil {
		return CacheStats{}
	}
	st := c.Stats()
	return CacheStats{Enabled: true, RouteCacheStats: &st}
}
