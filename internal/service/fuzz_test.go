package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzQueryHandlers throws arbitrary bodies at the JSON POST
// endpoints (/query, /query/batch, /peers — selected by the first
// input byte: 'q', 'b' and 'p' name them, any other byte picks by its
// value). The contract under fuzz: the daemon never panics,
// never returns a 5xx, and always answers with well-formed JSON —
// malformed bodies, unknown fields and oversized batches all land on
// clean 4xx responses. On /v1/query and /v1/query/batch the status,
// Content-Type and body bytes must equal what the encoding/json
// reference in reference_test.go writes for the same body and view.
// CI runs a short continuation of this fuzz on top of the committed
// seed corpus in testdata/fuzz.
func FuzzQueryHandlers(f *testing.F) {
	f.Add(byte('q'), []byte(`{"terms":["fz-a"]}`))
	f.Add(byte('q'), []byte(`{"terms":[]}`))
	f.Add(byte('q'), []byte(`{"terms":["fz-a"],"extra":1}`))
	f.Add(byte('q'), []byte(`{`))
	f.Add(byte('b'), []byte(`{"queries":[{"terms":["fz-a"]},{"terms":["fz-b","fz-c"]}]}`))
	f.Add(byte('b'), []byte(`{"queries":[]}`))
	f.Add(byte('b'), []byte(`{"queries":[{"terms":[]}]}`))
	f.Add(byte('p'), []byte(`{"items":[["fz-a"]],"queries":[{"terms":["fz-a"],"count":2}]}`))
	f.Add(byte('p'), []byte(`{"items":[["fz-a"]],"queries":[{"terms":["fz-a"],"count":-1}]}`))
	f.Add(byte('p'), []byte(`{"bogus":true}`))
	f.Add(byte('x'), []byte(`null`))
	f.Add(byte('q'), []byte(`"terms"`))
	f.Add(byte('q'), []byte(`{"terms":["fz-a"]}{"terms":["fz-b"]}`))
	f.Add(byte('q'), []byte(`{"terms":["fz\u002da","é"]}`))
	f.Add(byte('q'), []byte(`{"terms":["\"","fz-b"]}`))
	f.Add(byte('q'), []byte(`{"Terms":["fz-a"]}`))
	f.Add(byte('q'), []byte(`{"terms":null}`))
	f.Add(byte('b'), []byte(`{"queries":[{"terms":["fz-b","fz-a"]},{"terms":["fz-a","fz-zz"]},{"terms":["fz-a","fz-b","fz-a"]}]}`))

	paths := []string{"/v1/query", "/v1/query/batch", "/v1/peers"}
	f.Fuzz(func(t *testing.T, which byte, body []byte) {
		s := New(Config{})
		h := s.Handler()
		seed := httptest.NewRequest("POST", "/v1/peers", strings.NewReader(
			`{"items":[["fz-a","fz-b"],["fz-b","fz-c"]],"queries":[{"terms":["fz-a"],"count":1}]}`))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, seed)
		if rec.Code != http.StatusCreated {
			t.Fatalf("seed join failed: %d %s", rec.Code, rec.Body.Bytes())
		}

		path := paths[int(which)%len(paths)]
		switch which { // the seeds' letters name their endpoint
		case 'q':
			path = paths[0]
		case 'b':
			path = paths[1]
		case 'p':
			path = paths[2]
		}
		req := httptest.NewRequest("POST", path, bytes.NewReader(body))
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, req) // a panic here fails the fuzz run
		if path != "/v1/peers" {
			ref := httptest.NewRecorder()
			v := s.loadView()
			req = httptest.NewRequest("POST", path, bytes.NewReader(body))
			if path == "/v1/query" {
				referenceServeQuery(ref, req, v.terms, v.routing)
			} else {
				referenceServeQueryBatch(ref, req, v.terms, v.routing)
			}
			if rec.Code != ref.Code || rec.Header().Get("Content-Type") != ref.Header().Get("Content-Type") ||
				!bytes.Equal(rec.Body.Bytes(), ref.Body.Bytes()) {
				t.Fatalf("POST %s %q: handler wrote %d %q %s, encoding/json %d %q %s", path, body,
					rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes(),
					ref.Code, ref.Header().Get("Content-Type"), ref.Body.Bytes())
			}
		}
		if rec.Code >= 500 {
			t.Fatalf("POST %s %q: server error %d %s", path, body, rec.Code, rec.Body.Bytes())
		}
		var out any
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("POST %s %q: non-JSON response %q: %v", path, body, rec.Body.Bytes(), err)
		}
		if rec.Code >= 400 {
			m, ok := out.(map[string]any)
			if !ok || m["error"] == nil {
				t.Fatalf("POST %s %q: %d without error field: %s", path, body, rec.Code, rec.Body.Bytes())
			}
		}
	})
}
