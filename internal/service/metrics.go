package service

import "repro/internal/api"

// The daemon's lock-free request metrics live in the shared api
// package (the router tier records through the same implementation);
// this file only lays out which endpoints the daemon instruments and
// how GET /v1/stats names them.

// serverMetrics holds one api.EndpointMetrics per instrumented
// endpoint plus the mutation-lock hold-time histogram.
type serverMetrics struct {
	query    api.EndpointMetrics
	batch    api.EndpointMetrics
	stats    api.EndpointMetrics
	join     api.EndpointMetrics
	peerGet  api.EndpointMetrics
	leave    api.EndpointMetrics
	reform   api.EndpointMetrics
	compact  api.EndpointMetrics
	snapshot api.EndpointMetrics
	watch    api.EndpointMetrics
	replog   api.EndpointMetrics
	promote  api.EndpointMetrics

	// lockHold records every mutation-lock hold duration (joins,
	// leaves, compactions, snapshots and individual maintenance
	// steps). Under the stepped scheduler its p99 is bounded by one
	// step's work, not one period's.
	lockHold api.LatencyHist
}

// init stamps each endpoint with its canonical v1 route, which the
// stats payload reports so dashboards key on the HTTP surface.
func (sm *serverMetrics) init() {
	sm.query.Route = "POST /v1/query"
	sm.batch.Route = "POST /v1/query/batch"
	sm.stats.Route = "GET /v1/stats"
	sm.join.Route = "POST /v1/peers"
	sm.peerGet.Route = "GET /v1/peers/{id}"
	sm.leave.Route = "DELETE /v1/peers/{id}"
	sm.reform.Route = "POST /v1/reform"
	sm.compact.Route = "POST /v1/compact"
	sm.snapshot.Route = "GET /v1/snapshot"
	sm.watch.Route = "GET /v1/view/watch"
	sm.replog.Route = "GET /v1/replog/watch"
	sm.promote.Route = "POST /v1/promote"
}

// endpoints renders the per-endpoint stats map.
func (sm *serverMetrics) endpoints() map[string]any {
	return map[string]any{
		"query":        sm.query.Snapshot(),
		"query_batch":  sm.batch.Snapshot(),
		"stats":        sm.stats.Snapshot(),
		"peers_join":   sm.join.Snapshot(),
		"peers_get":    sm.peerGet.Snapshot(),
		"peers_leave":  sm.leave.Snapshot(),
		"reform":       sm.reform.Snapshot(),
		"compact":      sm.compact.Snapshot(),
		"snapshot":     sm.snapshot.Snapshot(),
		"view_watch":   sm.watch.Snapshot(),
		"replog_watch": sm.replog.Snapshot(),
		"promote":      sm.promote.Snapshot(),
	}
}
