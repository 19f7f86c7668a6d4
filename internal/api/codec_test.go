package api

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/attr"
)

// reflectDecode is the encoding/json path the scanner stands in for:
// one strict document, unknown fields and trailing data rejected.
func reflectDecode(body []byte, dst any) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if dec.Decode(dst) != nil {
		return false
	}
	_, err := dec.Token()
	return err == io.EOF
}

// scan runs the fast path's scanner over body as decode does.
func scan(body []byte, terms *attr.TermTable, batch bool) (*Scratch, bool) {
	sc := &Scratch{}
	s := scanner{b: body, sc: sc, terms: terms}
	ok := (batch && s.batch()) || (!batch && s.query())
	s.ws()
	return sc, ok && s.i == len(s.b)
}

// requestTerms is the terms of every query a decoded request carries.
func requestTerms(batch bool, q QueryRequest, b BatchRequest) [][]string {
	if !batch {
		return [][]string{q.Terms}
	}
	out := make([][]string, len(b.Queries))
	for i, e := range b.Queries {
		out[i] = e.Terms
	}
	return out
}

// checkResolved holds what the scanner resolved to want, query by
// query, under a table that knows every term of want.
func checkResolved(t *testing.T, body []byte, sc *Scratch, terms *attr.TermTable, want [][]string) {
	t.Helper()
	if len(sc.qs) != len(want) {
		t.Fatalf("%q: scanner read %d queries, encoding/json %d", body, len(sc.qs), len(want))
	}
	for i, p := range sc.qs {
		var ids []attr.ID
		for _, term := range want[i] {
			id, _ := terms.Lookup(term)
			ids = append(ids, id)
		}
		if int(p.n) != len(want[i]) || !p.known || !slices.Equal(sc.ids[p.start:p.end], ids) {
			t.Fatalf("%q: query %d resolved to %v (%d terms, known %v), encoding/json decodes %q",
				body, i, sc.ids[p.start:p.end], p.n, p.known, want[i])
		}
	}
}

// FuzzQueryCodec holds the scanner to encoding/json on any body of
// either endpoint (the low bit of the first input picks the batch
// one). Whenever the scanner accepts, encoding/json accepts too and
// decodes the same terms, which the scanner resolved to the same IDs
// and in the same order. And it accepts exactly what encoding/json does
// on the bodies it claims: canonical renderings, compact or indented, of
// every request encoding/json decodes with no null list in it. What it
// does not claim goes to encoding/json whole, so a scanner that rejects
// too much is only slower, never wrong.
func FuzzQueryCodec(f *testing.F) {
	f.Add(byte('q'), []byte(`{"terms":["fz-a"]}`))
	f.Add(byte('q'), []byte(`{"terms":[]}`))
	f.Add(byte('q'), []byte(`{"terms":["fz-a"],"extra":1}`))
	f.Add(byte('q'), []byte(`{`))
	f.Add(byte('b'), []byte(`{"queries":[{"terms":["fz-a"]},{"terms":["fz-b","fz-c"]}]}`))
	f.Add(byte('b'), []byte(`{"queries":[]}`))
	f.Add(byte('b'), []byte(`{"queries":[{"terms":[]}]}`))
	f.Add(byte('q'), []byte(`null`))
	f.Add(byte('q'), []byte(`"terms"`))
	f.Add(byte('q'), []byte(`{"terms":["fz-a"]}{"terms":["fz-b"]}`))
	f.Add(byte('q'), []byte(`{"terms":["é"]}`))
	f.Add(byte('q'), []byte(`{"terms":["\u00e9","\ud83d\ude00","\ud800x"]}`))
	f.Add(byte('q'), []byte(`{"terms":["\"", "a\\b\/c\n", "\b\f\r\t"]}`))
	f.Add(byte('q'), []byte("{\"terms\":[\"\xff\xfe\"]}"))
	f.Add(byte('q'), []byte("{\"terms\":[\"a\tb\"]}"))
	f.Add(byte('q'), []byte(`{"Terms":["fz-a"]}`))
	f.Add(byte('q'), []byte(`{"terms":null}`))
	f.Add(byte('b'), []byte(" {\n\t\"queries\" : [ { \"terms\" : [ \"fz-a\" , \"fz-a\" ] } ] }\r\n"))
	f.Add(byte('b'), []byte(`{"queries":[{"terms":["fz-a"]}],"queries":[]}`))

	f.Fuzz(func(t *testing.T, which byte, body []byte) {
		batch := which&1 == 0
		var qr QueryRequest
		var br BatchRequest
		var jsonOK bool
		if batch {
			jsonOK = reflectDecode(body, &br)
		} else {
			jsonOK = reflectDecode(body, &qr)
		}
		want := requestTerms(batch, qr, br)
		var names []string
		for _, q := range want {
			names = append(names, q...)
		}
		slices.Sort(names)
		terms := attr.NewTermTable(slices.Compact(names))

		sc, ok := scan(body, terms, batch)
		if ok {
			if !jsonOK {
				t.Fatalf("%q: the scanner accepts what encoding/json rejects", body)
			}
			checkResolved(t, body, sc, terms, want)
			// Against a table that knows nothing, no query resolves.
			sc, _ = scan(body, attr.NewTermTable(nil), batch)
			for i, p := range sc.qs {
				if p.known != (p.n == 0) || p.end != p.start {
					t.Fatalf("%q: query %d resolves against an empty table", body, i)
				}
			}
		}
		if !jsonOK || (batch && br.Queries == nil) || slices.ContainsFunc(want, func(q []string) bool { return q == nil }) {
			return
		}
		var req any = qr
		if batch {
			req = br
		}
		compact, _ := json.Marshal(req)
		indented, _ := json.MarshalIndent(req, " ", "\t")
		for _, canon := range [][]byte{compact, indented} {
			sc, ok := scan(canon, terms, batch)
			if !ok {
				t.Fatalf("%q: the scanner rejects the canonical %q", body, canon)
			}
			checkResolved(t, canon, sc, terms, want)
		}
	})
}

// encodeJSON is what WriteJSON sends for v.
func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// appendBatch renders a batch answer as ServeQueryBatch frames it.
func appendBatch(b []byte, results []QueryResponse) []byte {
	b = append(b, batchOpen...)
	for i, r := range results {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendAnswer(b, r)
	}
	return append(b, batchClose...)
}

// checkEncoding holds the appended bytes of resp, alone and as a
// batch, to json.Encoder's.
func checkEncoding(t *testing.T, results []QueryResponse) {
	t.Helper()
	for _, r := range results {
		got := append(appendAnswer(nil, r), '\n')
		if want := encodeJSON(t, r); !bytes.Equal(got, want) {
			t.Fatalf("answer %+v:\n got %s\nwant %s", r, got, want)
		}
	}
	got := appendBatch(nil, results)
	if want := encodeJSON(t, BatchResponse{Results: results}); !bytes.Equal(got, want) {
		t.Fatalf("batch of %d:\n got %s\nwant %s", len(results), got, want)
	}
}

// TestAppendAnswerMatchesEncodingJSON pins the encoder to json.Encoder
// byte for byte: recalls at both ends of the float64 range and across
// the 'f'/'e' switch, empty and nil cluster lists, empty batches, and
// random answers whose recalls are random finite bit patterns.
func TestAppendAnswerMatchesEncodingJSON(t *testing.T) {
	recalls := []float64{1, 0.1, 1.0 / 3, 1e-7, 5e-324, math.MaxFloat64, 0, math.Copysign(0, -1),
		1e-6, 9.99999e-7, 1e20, 1e21, 123456789, 0.5, -1e-7, -2.5, 1e-100, 2.2250738585072014e-308}
	var table []QueryResponse
	for i, r := range recalls {
		table = append(table, QueryResponse{Total: i * 7, Clusters: []ClusterHit{
			{Cluster: i, Size: i + 1, Results: 3 * i, Recall: r},
		}})
	}
	table = append(table,
		QueryResponse{Clusters: []ClusterHit{}},
		QueryResponse{},
		QueryResponse{Total: math.MaxInt, Clusters: []ClusterHit{{Cluster: math.MinInt, Size: -1, Results: math.MaxInt, Recall: 1}}},
	)
	checkEncoding(t, table)
	checkEncoding(t, []QueryResponse{})

	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 2000; n++ {
		results := make([]QueryResponse, rng.Intn(4))
		for i := range results {
			r := &results[i]
			r.Total = int(rng.Uint64()>>1) >> rng.Intn(63)
			r.Clusters = make([]ClusterHit, rng.Intn(5))
			for j := range r.Clusters {
				recall := math.Float64frombits(rng.Uint64())
				if math.IsNaN(recall) || math.IsInf(recall, 0) {
					recall = rng.Float64()
				}
				r.Clusters[j] = ClusterHit{Cluster: rng.Intn(1 << 20), Size: rng.Intn(100), Results: rng.Intn(1 << 30), Recall: recall}
			}
		}
		checkEncoding(t, results)
	}
}
