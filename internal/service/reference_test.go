package service

import (
	"net/http"

	"repro/internal/api"
	"repro/internal/attr"
	"repro/internal/core"
)

// referenceServeQuery is POST /v1/query as encoding/json serves it:
// reflection decode through api.DecodeStrict, api.Answer, api.WriteJSON.
// FuzzQueryHandlers holds api.ServeQuery's bytes to it.
func referenceServeQuery(w http.ResponseWriter, r *http.Request, terms *attr.TermTable, rv *core.RoutingView) {
	var req api.QueryRequest
	if !api.DecodeStrict(w, r, "query", &req) {
		return
	}
	if len(req.Terms) == 0 {
		api.Error(w, http.StatusBadRequest, api.CodeEmptyQuery, "query with no terms")
		return
	}
	sc := api.GetScratch()
	defer api.PutScratch(sc)
	api.WriteJSON(w, http.StatusOK, api.Answer(terms, rv, nil, req.Terms, sc))
}

// referenceServeQueryBatch is POST /v1/query/batch as encoding/json
// serves it. It answers every query, duplicates included, so it also
// checks that api.ServeQueryBatch's dedup changes no byte.
func referenceServeQueryBatch(w http.ResponseWriter, r *http.Request, terms *attr.TermTable, rv *core.RoutingView) {
	var req api.BatchRequest
	if !api.DecodeStrict(w, r, "batch", &req) {
		return
	}
	if len(req.Queries) == 0 {
		api.Error(w, http.StatusBadRequest, api.CodeEmptyBatch, "batch with no queries")
		return
	}
	if len(req.Queries) > api.MaxBatchQueries {
		api.Error(w, http.StatusRequestEntityTooLarge, api.CodeBatchTooLarge,
			"batch of %d queries over the %d limit", len(req.Queries), api.MaxBatchQueries)
		return
	}
	for i, q := range req.Queries {
		if len(q.Terms) == 0 {
			api.Error(w, http.StatusBadRequest, api.CodeEmptyQuery, "query %d with no terms", i)
			return
		}
	}
	sc := api.GetScratch()
	defer api.PutScratch(sc)
	results := make([]api.QueryResponse, len(req.Queries))
	for i, q := range req.Queries {
		resp := api.Answer(terms, rv, nil, q.Terms, sc)
		resp.Clusters = append([]api.ClusterHit{}, resp.Clusters...)
		results[i] = resp
	}
	api.WriteJSON(w, http.StatusOK, api.BatchResponse{Results: results})
}
