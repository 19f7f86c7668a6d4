package router

import (
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// Leaf paths of GET /v1/stats, one "kind block: key key ..." line per
// group; the top-level block is "". Expanded by schema.
const (
	daemonLeaves = `
number : clusters compacted_queries compactions dead_queries joins leaves moves peers
number : pop_version published_views queries queries_served reforms rounds scost slots
number : uptime_seconds view_seq watch_delta watch_full wcost
bool route_cache: enabled
number mutation_lock: holds mean_us p50_us p95_us p99_us
bool maintenance: active
number maintenance: scanned step_budget workers
bool replication: open_period synced
string replication: epoch role
number replication: catchups_installed catchups_served entries_applied entries_logged
number replication: log_base log_last log_len sync_errors term`
	cacheLeaves    = `number route_cache: bypasses capacity evictions hits misses`
	followerLeaves = `string replication: leader_url`
	periodLeaves   = `
number maintenance: granted period_scanned pos requests round steps total
string maintenance: phase`
	routerLeaves = `
bool : synced
number : delta_syncs full_syncs queries_served sync_errors uptime_seconds
string : upstream
array : upstreams
bool route_cache: enabled`
	routerViewLeaves = `number : peers pop_version slots view_seq`
)

// daemonRoutes and routerRoutes pair each tier's endpoint entries with
// the route each reports.
var (
	daemonRoutes = []string{
		"query", "POST /v1/query", "query_batch", "POST /v1/query/batch",
		"stats", "GET /v1/stats", "peers_join", "POST /v1/peers",
		"peers_get", "GET /v1/peers/{id}", "peers_leave", "DELETE /v1/peers/{id}",
		"reform", "POST /v1/reform", "compact", "POST /v1/compact",
		"snapshot", "GET /v1/snapshot", "view_watch", "GET /v1/view/watch",
		"replog_watch", "GET /v1/replog/watch", "promote", "POST /v1/promote",
	}
	routerRoutes = daemonRoutes[:6]
)

// schema expands leaf groups and endpoint pairs into "path kind"
// lines; an endpoint's route leaf carries its value.
func schema(routes []string, groups ...string) []string {
	var out []string
	for _, g := range groups {
		for _, line := range strings.Split(strings.TrimSpace(g), "\n") {
			kind, rest, _ := strings.Cut(line, " ")
			block, keys, _ := strings.Cut(rest, ":")
			for _, k := range strings.Fields(keys) {
				out = append(out, strings.TrimPrefix(block+"."+k, ".")+" "+kind)
			}
		}
	}
	for i := 0; i < len(routes); i += 2 {
		for _, k := range []string{"errors", "mean_us", "p50_us", "p95_us", "p99_us", "requests"} {
			out = append(out, "endpoints."+routes[i]+"."+k+" number")
		}
		out = append(out, "endpoints."+routes[i]+".route string "+routes[i+1])
	}
	return out
}

// leafPaths appends a decoded JSON value's "path kind" lines, as
// schema writes them.
func leafPaths(out []string, path string, v any) []string {
	kind := "null"
	switch v := v.(type) {
	case map[string]any:
		for k, x := range v {
			out = leafPaths(out, strings.TrimPrefix(path+"."+k, "."), x)
		}
		return out
	case []any:
		kind = "array"
	case bool:
		kind = "bool"
	case float64:
		kind = "number"
	case string:
		kind = "string"
		if strings.HasPrefix(path, "endpoints.") && strings.HasSuffix(path, ".route") {
			kind += " " + v
		}
	}
	return append(out, path+" "+kind)
}

// readStats decodes h's GET /v1/stats into T.
func readStats[T any](t *testing.T, h http.Handler) T {
	t.Helper()
	code, body := do(h, "GET", "/v1/stats", nil)
	var st T
	if err := json.Unmarshal(body, &st); code != http.StatusOK || err != nil {
		t.Fatalf("stats: %d %s (%v)", code, body, err)
	}
	return st
}

// TestStatsSchema pins the wire shape of GET /v1/stats on both tiers:
// every leaf path with its JSON kind, and each endpoint entry's route,
// for a leader, a follower, a leader in mid-period with its route cache
// off, an unsynced router with its cache off and a synced router. Key
// order is not part of the contract, so paths compare as sorted sets.
func TestStatsSchema(t *testing.T) {
	_, lh, synced := newPair(t)
	if !synced.WaitSynced(serviceSeq(t, lh), 5*time.Second) {
		t.Fatal("router never synced")
	}

	follower := service.New(service.Config{Join: []string{synced.cfg.Upstream}})
	follower.Start()
	t.Cleanup(func() { follower.Shutdown() })
	fh := follower.Handler()
	for deadline := time.Now().Add(5 * time.Second); !readStats[struct{ Replication struct{ Synced bool } }](t, fh).Replication.Synced; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("follower never synced")
		}
	}

	// Periods run back to back with one work unit per step, so nearly
	// every stats read lands inside one.
	busy := service.New(service.Config{RouteCache: -1, StepBudget: 1})
	bh := busy.Handler()
	for i := 0; i < 12; i++ {
		do(bh, "POST", "/v1/peers", joinBodyJSON(i%3, i))
	}
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			busy.Reform()
		}
	}()
	var midPeriod any
	for deadline := time.Now().Add(5 * time.Second); midPeriod == nil && time.Now().Before(deadline); {
		body := readStats[json.RawMessage](t, bh)
		var st struct{ Maintenance struct{ Active bool } }
		if json.Unmarshal(body, &st) == nil && st.Maintenance.Active {
			json.Unmarshal(body, &midPeriod)
		}
	}
	stop.Store(true)
	<-done
	if midPeriod == nil {
		t.Fatal("no stats read landed inside a maintenance period")
	}

	unsynced := New(Config{Upstream: "http://127.0.0.1:1", RouteCache: -1}) // never started
	for _, tc := range []struct {
		name string
		doc  any
		want []string
	}{
		{"leader", readStats[any](t, lh), schema(daemonRoutes, daemonLeaves, cacheLeaves)},
		{"follower", readStats[any](t, fh), schema(daemonRoutes, daemonLeaves, cacheLeaves, followerLeaves)},
		{"leader mid-period, cache off", midPeriod, schema(daemonRoutes, daemonLeaves, periodLeaves)},
		{"unsynced router, cache off", readStats[any](t, unsynced.Handler()), schema(routerRoutes, routerLeaves)},
		{"synced router", readStats[any](t, synced.Handler()), schema(routerRoutes, routerLeaves, cacheLeaves, routerViewLeaves)},
	} {
		got := leafPaths(nil, "", tc.doc)
		slices.Sort(got)
		for _, p := range got {
			if !slices.Contains(tc.want, p) {
				t.Errorf("%s: unexpected leaf %s", tc.name, p)
			}
		}
		for _, p := range tc.want {
			if !slices.Contains(got, p) {
				t.Errorf("%s: missing leaf %s", tc.name, p)
			}
		}
		t.Logf("%s: %d leaf paths", tc.name, len(got))
	}
}
