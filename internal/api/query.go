package api

import (
	"net/http"
	"slices"
	"sync"

	"repro/internal/attr"
	"repro/internal/core"
)

// This file is the shared data-plane read path: resolve query terms
// against a published term table, Route over an immutable
// core.RoutingView, and render the JSON answer — with every buffer
// pooled, so the per-query path allocates nothing at steady state.
// The serving daemon and every router replica answer through these
// functions, which is what makes router answers byte-identical to the
// engine's by construction.

// QueryRequest is the POST /v1/query body (and one batch element).
type QueryRequest struct {
	Terms []string `json:"terms"`
}

// ClusterHit is one cluster's share of a query's results.
type ClusterHit struct {
	Cluster int     `json:"cluster"`
	Size    int     `json:"size"`
	Results int     `json:"results"`
	Recall  float64 `json:"recall"`
}

// QueryResponse is the answer to one routed query.
type QueryResponse struct {
	Total    int          `json:"total"`
	Clusters []ClusterHit `json:"clusters"`
}

// BatchRequest is the POST /v1/query/batch body.
type BatchRequest struct {
	Queries []QueryRequest `json:"queries"`
}

// BatchResponse is the answer to a batch, element-wise parallel to
// the request.
type BatchResponse struct {
	Results []QueryResponse `json:"results"`
}

// Scratch bundles the reusable buffers of one in-flight query
// request; a pool recycles them across requests so the hot read path
// allocates only what the HTTP layer itself requires. A Scratch must
// not be shared by concurrent requests.
type Scratch struct {
	route core.RouteScratch
	ids   []attr.ID
	hits  []ClusterHit
}

var scratchPool = sync.Pool{
	New: func() any {
		// hits must start non-nil: an empty answer marshals as [].
		return &Scratch{hits: make([]ClusterHit, 0, 8)}
	},
}

// GetScratch borrows a scratch from the shared pool; return it with
// PutScratch once every QueryResponse aliasing it has been encoded.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns a borrowed scratch to the pool.
func PutScratch(sc *Scratch) { scratchPool.Put(sc) }

// emptyHits is the shared empty answer (non-nil so it marshals as
// []); it is only ever read.
var emptyHits = []ClusterHit{}

// resolve renders raw query terms into a canonical attribute set.
// Unknown terms cannot match anything (items only contain interned
// attributes), so any unknown term resolves to ok=false and the
// caller answers empty without routing.
func (sc *Scratch) resolve(terms *attr.TermTable, raw []string) (q attr.Set, ok bool) {
	sc.ids = sc.ids[:0]
	for _, t := range raw {
		id, known := terms.Lookup(t)
		if !known {
			return attr.Set{}, false
		}
		sc.ids = append(sc.ids, id)
	}
	slices.Sort(sc.ids)
	return attr.FromSorted(slices.Compact(sc.ids)), true
}

// answerResolved routes an already-resolved query (through the cache
// when one is supplied) and renders the cluster hits into sc.
func answerResolved(rv *core.RoutingView, cache *core.RouteCache, q attr.Set, sc *Scratch) QueryResponse {
	total, hits := rv.RouteCached(q, cache, &sc.route)
	sc.hits = sc.hits[:0]
	for _, h := range hits {
		sc.hits = append(sc.hits, ClusterHit{
			Cluster: int(h.Cluster),
			Size:    h.Size,
			Results: h.Results,
			Recall:  float64(h.Results) / float64(total),
		})
	}
	return QueryResponse{Total: total, Clusters: sc.hits}
}

// Answer evaluates raw terms against one published (term table, view)
// snapshot and returns the routing answer, consulting cache (which may
// be nil) for repeated queries against the same view. The response's
// Clusters slice aliases sc and is valid until sc's next use; callers
// that retain answers (the batch path) copy it out. Unknown terms yield
// the empty answer. The call is allocation-free at steady state.
func Answer(terms *attr.TermTable, rv *core.RoutingView, cache *core.RouteCache, raw []string, sc *Scratch) QueryResponse {
	q, ok := sc.resolve(terms, raw)
	if !ok {
		sc.hits = sc.hits[:0]
		return QueryResponse{Clusters: sc.hits}
	}
	return answerResolved(rv, cache, q, sc)
}

// AnswerQuery is Answer for a caller holding its term table as one
// plain map.
func AnswerQuery(terms map[string]attr.ID, rv *core.RoutingView, cache *core.RouteCache, raw []string, sc *Scratch) QueryResponse {
	t := attr.TermsOf(terms)
	return Answer(&t, rv, cache, raw, sc)
}

// ServeQuery implements the POST /v1/query data-plane endpoint over
// one published (terms, view) snapshot: decode, validate, answer,
// encode. It returns the number of queries answered (0 when the
// request was rejected), for the caller's served counter.
func ServeQuery(w http.ResponseWriter, r *http.Request, terms *attr.TermTable, rv *core.RoutingView, cache *core.RouteCache) int {
	var req QueryRequest
	if !DecodeStrict(w, r, "query", &req) {
		return 0
	}
	if len(req.Terms) == 0 {
		Error(w, http.StatusBadRequest, CodeEmptyQuery, "query with no terms")
		return 0
	}
	sc := GetScratch()
	resp := Answer(terms, rv, cache, req.Terms, sc)
	WriteJSON(w, http.StatusOK, resp)
	PutScratch(sc)
	return 1
}

// ServeQueryBatch implements POST /v1/query/batch: up to
// MaxBatchQueries queries answered from one (terms, view) snapshot,
// so the batch is internally consistent even while mutations land
// concurrently. Duplicate queries within a batch (same canonical
// attribute set, whatever the term order or repetition) are routed
// once and share the answer — legal precisely because the whole batch
// is served from one snapshot. It returns the number of queries
// answered.
func ServeQueryBatch(w http.ResponseWriter, r *http.Request, terms *attr.TermTable, rv *core.RoutingView, cache *core.RouteCache) int {
	var req BatchRequest
	if !DecodeStrict(w, r, "batch", &req) {
		return 0
	}
	if len(req.Queries) == 0 {
		Error(w, http.StatusBadRequest, CodeEmptyBatch, "batch with no queries")
		return 0
	}
	if len(req.Queries) > MaxBatchQueries {
		Error(w, http.StatusRequestEntityTooLarge, CodeBatchTooLarge,
			"batch of %d queries over the %d limit", len(req.Queries), MaxBatchQueries)
		return 0
	}
	for i, q := range req.Queries {
		if len(q.Terms) == 0 {
			Error(w, http.StatusBadRequest, CodeEmptyQuery, "query %d with no terms", i)
			return 0
		}
	}
	sc := GetScratch()
	results := make([]QueryResponse, len(req.Queries))
	var seen map[string]int // canonical key -> index of first occurrence
	if len(req.Queries) > 1 {
		seen = make(map[string]int, len(req.Queries))
	}
	var kb []byte
	for i := range req.Queries {
		q, ok := sc.resolve(terms, req.Queries[i].Terms)
		if !ok {
			results[i] = QueryResponse{Clusters: emptyHits}
			continue
		}
		if seen != nil {
			kb = q.AppendKey(kb[:0])
			if j, dup := seen[string(kb)]; dup {
				results[i] = results[j]
				continue
			}
			seen[string(kb)] = i
		}
		resp := answerResolved(rv, cache, q, sc)
		resp.Clusters = append(make([]ClusterHit, 0, len(resp.Clusters)), resp.Clusters...)
		results[i] = resp
	}
	PutScratch(sc)
	WriteJSON(w, http.StatusOK, BatchResponse{Results: results})
	return len(req.Queries)
}

// CacheStatsMap renders a route cache's counters for a /v1/stats
// payload; a nil cache reports itself disabled.
func CacheStatsMap(c *core.RouteCache) map[string]any {
	if c == nil {
		return map[string]any{"enabled": false}
	}
	st := c.Stats()
	return map[string]any{
		"enabled":   true,
		"capacity":  st.Capacity,
		"hits":      st.Hits,
		"misses":    st.Misses,
		"evictions": st.Evictions,
		"bypasses":  st.Bypasses,
	}
}
