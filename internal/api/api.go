// Package api is the HTTP surface shared by the authoritative serving
// daemon (internal/service) and the stateless query-router tier
// (internal/router): the v1 JSON wire types, the machine-readable
// error envelope, strict request decoding, the pooled query handlers
// (a JSON codec for the two query bodies that is byte-identical to
// encoding/json, around an allocation-free answering path over a
// published core.RoutingView), the lock-free per-endpoint metrics and
// the typed GET /v1/stats payloads of both tiers.
//
// Both tiers answer data-plane requests through the same functions,
// so a router's response — success or error — is byte-identical to
// the engine's for the same request against the same view. That
// identity is the router tier's correctness contract, and it is
// pinned by property tests rather than re-implemented per tier.
//
// # The v1 API
//
// Endpoints live under a versioned /v1/ prefix and split into a data
// plane (reads, servable by any router replica), a control plane
// (mutations and admin, authoritative daemon only) and a replication
// plane (the mutation-log feed and follower promotion, any daemon):
//
//	data plane:        POST /v1/query, POST /v1/query/batch, GET /v1/stats
//	control plane:     POST /v1/peers, GET|DELETE /v1/peers/{id},
//	                   POST /v1/reform, POST /v1/compact,
//	                   GET /v1/snapshot, GET /v1/view/watch
//	replication plane: GET /v1/replog/watch, POST /v1/promote
//
// Every error response carries one JSON envelope:
//
//	{"error": {"code": "<machine-readable>", "message": "<human-readable>"}}
//
// Codes are stable API: clients branch on them, messages are free to
// change. See API.md at the repository root for the full contract.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// MaxBodyBytes bounds every request body; larger bodies get 413.
const MaxBodyBytes = 1 << 20

// MaxBatchQueries bounds one POST /v1/query/batch; larger batches get
// 413.
const MaxBatchQueries = 1024

// Stable machine-readable error codes. These are API: a code, once
// shipped, keeps its meaning (messages are informational only).
const (
	// CodeBadJSON: the body is not one well-formed JSON document of
	// the expected shape (syntax error, unknown field, trailing data).
	CodeBadJSON = "bad_json"
	// CodeBodyTooLarge: the request body exceeds MaxBodyBytes.
	CodeBodyTooLarge = "body_too_large"
	// CodeBatchTooLarge: a batch carries more than MaxBatchQueries.
	CodeBatchTooLarge = "batch_too_large"
	// CodeEmptyQuery: a query (standalone or batch element) has no terms.
	CodeEmptyQuery = "empty_query"
	// CodeEmptyBatch: a batch carries no queries.
	CodeEmptyBatch = "empty_batch"
	// CodeBadQueryCount: a join workload entry has a non-positive count.
	CodeBadQueryCount = "bad_query_count"
	// CodeBadPeerID: the peer id path element is not an integer.
	CodeBadPeerID = "bad_peer_id"
	// CodePeerNotFound: no live peer occupies the named slot.
	CodePeerNotFound = "peer_not_found"
	// CodeBadParam: a query-string parameter is malformed.
	CodeBadParam = "bad_param"
	// CodeNotLeader: a control-plane mutation hit a follower that knows
	// no live leader to redirect to (a follower that does know its
	// leader answers 307 with a Location header instead).
	CodeNotLeader = "not_leader"
	// CodeNotReady: a router replica has no synchronized view yet
	// (503; retry after the Retry-After header).
	CodeNotReady = "not_ready"
)

// ErrorInfo is the payload of the error envelope.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorBody is the envelope every non-2xx response carries.
type errorBody struct {
	Error ErrorInfo `json:"error"`
}

// WriteJSON writes v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// Error writes the JSON error envelope with a stable machine-readable
// code and a formatted human-readable message.
func Error(w http.ResponseWriter, status int, code, format string, args ...any) {
	WriteJSON(w, status, errorBody{Error: ErrorInfo{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

// DecodeStrict decodes a JSON request body into dst, rejecting
// unknown fields, trailing data and bodies over MaxBodyBytes. On
// failure it writes the enveloped 4xx response and returns false.
func DecodeStrict(w http.ResponseWriter, r *http.Request, what string, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	return decodeStrict(w, r.Body, what, dst)
}

// decodeStrict is DecodeStrict over a body already limited to
// MaxBodyBytes.
func decodeStrict(w http.ResponseWriter, body io.Reader, what string, dst any) bool {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			Error(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge, "%s body over %d bytes", what, mbe.Limit)
		} else {
			Error(w, http.StatusBadRequest, CodeBadJSON, "bad %s body: %v", what, err)
		}
		return false
	}
	// Exactly one JSON document per request: trailing content is as
	// malformed as a truncated body.
	if _, err := dec.Token(); err != io.EOF {
		Error(w, http.StatusBadRequest, CodeBadJSON, "bad %s body: trailing data after JSON document", what)
		return false
	}
	return true
}
