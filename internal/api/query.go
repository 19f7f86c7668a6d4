package api

import (
	"hash/maphash"
	"net/http"
	"slices"
	"sync"

	"repro/internal/attr"
	"repro/internal/core"
)

// This file is the shared data-plane read path: resolve query terms
// against a published term table, Route over an immutable
// core.RoutingView, and render the JSON answer. The whole POST
// /v1/query and /v1/query/batch handler is pooled: the body is read
// and the answer rendered in one Scratch (see codec.go), so a request
// the fast path accepts allocates only what net/http and the size
// limit require. The serving daemon and every router replica answer
// through these functions, which is what makes router answers
// byte-identical to the engine's by construction.

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

	// The handler's: the request body, then the answer rendered over
	// it; the queries decoded from it; unquoted terms.
	buf []byte
	qs  []parsed
	esc []byte
	// A batch's distinct queries: the hash of a canonical key names the
	// first query with that key and the bytes of its answer in buf.
	seed   maphash.Seed
	key    []byte
	seen   map[uint64]int32
	firsts []first
}

// first is the first occurrence of a distinct query in a batch and
// where its answer sits in the rendered body.
type first struct {
	q        attr.Set
	from, to int32
}

var scratchPool = sync.Pool{
	New: func() any {
		// hits must start non-nil: an empty answer marshals as [].
		return &Scratch{hits: make([]ClusterHit, 0, 8), seed: maphash.MakeSeed(), seen: map[uint64]int32{}}
	},
}

// GetScratch borrows a scratch from the shared pool; return it with
// PutScratch once every QueryResponse aliasing it has been encoded.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns a borrowed scratch to the pool.
func PutScratch(sc *Scratch) { scratchPool.Put(sc) }

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
// that retain answers copy it out. Unknown terms yield
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
	sc := GetScratch()
	defer PutScratch(sc)
	if !sc.decode(w, r, terms, false) {
		return 0
	}
	p := sc.qs[0]
	if p.n == 0 {
		Error(w, http.StatusBadRequest, CodeEmptyQuery, "query with no terms")
		return 0
	}
	if q, ok := sc.query(p); ok {
		sc.buf = appendAnswer(sc.buf[:0], answerResolved(rv, cache, q, sc))
	} else {
		sc.buf = append(sc.buf[:0], emptyAnswer...)
	}
	sc.buf = append(sc.buf, '\n')
	writeBody(w, sc.buf)
	return 1
}

// ServeQueryBatch implements POST /v1/query/batch: up to
// MaxBatchQueries queries answered from one (terms, view) snapshot,
// so the batch is internally consistent even while mutations land
// concurrently. Duplicate queries within a batch (same canonical
// attribute set, whatever the term order or repetition) are routed
// once and the bytes of the first answer repeated — legal precisely
// because the whole batch is served from one snapshot. It returns the
// number of queries answered.
func ServeQueryBatch(w http.ResponseWriter, r *http.Request, terms *attr.TermTable, rv *core.RoutingView, cache *core.RouteCache) int {
	sc := GetScratch()
	defer PutScratch(sc)
	if !sc.decode(w, r, terms, true) {
		return 0
	}
	if len(sc.qs) == 0 {
		Error(w, http.StatusBadRequest, CodeEmptyBatch, "batch with no queries")
		return 0
	}
	if len(sc.qs) > MaxBatchQueries {
		Error(w, http.StatusRequestEntityTooLarge, CodeBatchTooLarge,
			"batch of %d queries over the %d limit", len(sc.qs), MaxBatchQueries)
		return 0
	}
	for i, p := range sc.qs {
		if p.n == 0 {
			Error(w, http.StatusBadRequest, CodeEmptyQuery, "query %d with no terms", i)
			return 0
		}
	}
	clear(sc.seen)
	sc.firsts = sc.firsts[:0]
	b := append(sc.buf[:0], batchOpen...)
	for i, p := range sc.qs {
		if i > 0 {
			b = append(b, ',')
		}
		q, ok := sc.query(p)
		if !ok {
			b = append(b, emptyAnswer...)
			continue
		}
		sc.key = q.AppendKey(sc.key[:0])
		h := maphash.Bytes(sc.seed, sc.key)
		j, taken := sc.seen[h]
		if taken && slices.Equal(sc.firsts[j].q.IDs(), q.IDs()) {
			f := sc.firsts[j]
			b = append(b, b[f.from:f.to]...)
			continue
		}
		from := len(b)
		b = appendAnswer(b, answerResolved(rv, cache, q, sc))
		if !taken { // a colliding key is answered, not remembered
			sc.seen[h] = int32(len(sc.firsts))
			sc.firsts = append(sc.firsts, first{q: q, from: int32(from), to: int32(len(b))})
		}
	}
	sc.buf = append(b, batchClose...)
	writeBody(w, sc.buf)
	return len(sc.qs)
}

// query is p's canonical attribute set; ok is false when one of its
// terms is unknown. It sorts p's IDs in place.
func (sc *Scratch) query(p parsed) (q attr.Set, ok bool) {
	if !p.known {
		return attr.Set{}, false
	}
	ids := sc.ids[p.start:p.end]
	slices.Sort(ids)
	return attr.FromSorted(slices.Compact(ids)), true
}
