package api

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/attr"
)

// This file is the data plane's JSON codec: POST /v1/query and
// /v1/query/batch bodies are scanned straight into resolved term IDs,
// and answers are appended into the same pooled buffer, with no
// reflection and no per-term strings. It is a fast path only: a body
// the scanner does not accept — malformed, oversized, or merely spelled
// in a way it does not handle (a non-lowercase or duplicate key, null,
// an empty object) — is replayed whole through DecodeStrict's
// encoding/json path, so every answer and every error body stays what
// encoding/json makes of it. The encoder writes exactly the bytes
// json.Encoder.Encode writes for QueryResponse and BatchResponse.

// parsed is one query of a decoded body: n terms, of which the first
// that resolve are ids[start:end]. known is false once a term did not
// resolve; such a query matches nothing.
type parsed struct {
	start, end int32
	n          int32
	known      bool
}

// addQuery records raw terms as one parsed query, resolving each
// against terms.
func (sc *Scratch) addQuery(terms *attr.TermTable, raw []string) {
	p := parsed{start: int32(len(sc.ids)), n: int32(len(raw)), known: true}
	for _, t := range raw {
		id, ok := terms.Lookup(t)
		if !ok {
			p.known = false
			break
		}
		sc.ids = append(sc.ids, id)
	}
	p.end = int32(len(sc.ids))
	sc.qs = append(sc.qs, p)
}

// decode reads a query (batch false) or batch body into sc.qs, resolving
// terms as it goes. On failure it has written the same 4xx response
// DecodeStrict writes and returns false.
func (sc *Scratch) decode(w http.ResponseWriter, r *http.Request, terms *attr.TermTable, batch bool) bool {
	r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	sc.ids, sc.qs = sc.ids[:0], sc.qs[:0]
	err := sc.readBody(r.Body)
	if err == nil {
		s := scanner{b: sc.buf, sc: sc, terms: terms}
		if (batch && s.batch()) || (!batch && s.query()) {
			if s.ws(); s.i == len(s.b) {
				return true
			}
		}
	}
	// Not the fast path's: replay what was read, then whatever the
	// size-limited body still holds, through encoding/json.
	sc.ids, sc.qs = sc.ids[:0], sc.qs[:0]
	body := io.MultiReader(bytes.NewReader(sc.buf), r.Body)
	if !batch {
		var req QueryRequest
		if !decodeStrict(w, body, "query", &req) {
			return false
		}
		sc.addQuery(terms, req.Terms)
		return true
	}
	var req BatchRequest
	if !decodeStrict(w, body, "batch", &req) {
		return false
	}
	for _, q := range req.Queries {
		sc.addQuery(terms, q.Terms)
	}
	return true
}

// readBody reads body to its end into sc.buf and returns the read error
// that ended it, nil for io.EOF. What was read before an error stays in
// sc.buf.
func (sc *Scratch) readBody(body io.Reader) error {
	b := sc.buf[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			sc.buf = b
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// scanner accepts exactly the canonical bodies
//
//	{"terms":[<string>,...]}
//	{"queries":[{"terms":[<string>,...]},...]}
//
// with JSON whitespace anywhere between tokens, and unquotes strings
// the way encoding/json does. Anything else it rejects without saying
// why: the caller's encoding/json replay finds the reason.
type scanner struct {
	b     []byte
	i     int
	sc    *Scratch
	terms *attr.TermTable
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// lit consumes c after optional whitespace.
func (s *scanner) lit(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// key consumes `"name":`, spelled exactly so.
func (s *scanner) key(name string) bool {
	s.ws()
	b := s.b[s.i:]
	if len(b) < len(name)+2 || b[0] != '"' || string(b[1:1+len(name)]) != name || b[1+len(name)] != '"' {
		return false
	}
	s.i += len(name) + 2
	return s.lit(':')
}

// query consumes one {"terms":[...]} object into sc.qs.
func (s *scanner) query() bool {
	if !s.lit('{') || !s.key("terms") || !s.lit('[') {
		return false
	}
	sc := s.sc
	p := parsed{start: int32(len(sc.ids)), known: true}
	if !s.lit(']') {
		for {
			s.ws()
			t, ok := s.str()
			if !ok {
				return false
			}
			p.n++
			if p.known {
				id, known := s.terms.LookupBytes(t)
				if known {
					sc.ids = append(sc.ids, id)
				}
				p.known = known
			}
			if s.lit(']') {
				break
			}
			if !s.lit(',') {
				return false
			}
		}
	}
	p.end = int32(len(sc.ids))
	sc.qs = append(sc.qs, p)
	return s.lit('}')
}

// batch consumes one {"queries":[...]} object.
func (s *scanner) batch() bool {
	if !s.lit('{') || !s.key("queries") || !s.lit('[') {
		return false
	}
	if !s.lit(']') {
		for {
			if !s.query() {
				return false
			}
			if s.lit(']') {
				break
			}
			if !s.lit(',') {
				return false
			}
		}
	}
	return s.lit('}')
}

// str consumes one string and returns its unquoted bytes: a slice of
// the body when nothing in it needs unquoting, else sc.esc.
func (s *scanner) str() ([]byte, bool) {
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	s.i++
	start := s.i
	for s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c == '\\':
			return s.unquote(start)
		case c < ' ':
			return nil, false
		case c < utf8.RuneSelf:
			s.i++
		default:
			r, size := utf8.DecodeRune(s.b[s.i:])
			if r == utf8.RuneError && size == 1 {
				return s.unquote(start)
			}
			s.i += size
		}
	}
	return nil, false
}

// unquote finishes the string begun at start, from s.i on, into sc.esc
// by encoding/json's rules: escapes decoded, a \u surrogate pair joined
// and a lone surrogate or an invalid UTF-8 byte replaced by U+FFFD.
func (s *scanner) unquote(start int) ([]byte, bool) {
	out := append(s.sc.esc[:0], s.b[start:s.i]...)
	for s.i < len(s.b) {
		c := s.b[s.i]
		switch {
		case c == '"':
			s.i++
			s.sc.esc = out // keep what it grew to
			return out, true
		case c < ' ':
			return nil, false
		case c == '\\':
			if s.i+1 >= len(s.b) {
				return nil, false
			}
			switch e := s.b[s.i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := getu4(s.b[s.i:])
				if r < 0 {
					return nil, false
				}
				s.i += 6
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, getu4(s.b[s.i:])); dec != unicode.ReplacementChar {
						s.i += 6
						r = dec
					}
				}
				out = utf8.AppendRune(out, r) // a lone surrogate appends as U+FFFD
				continue
			default:
				return nil, false
			}
			s.i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			s.i++
		default:
			r, size := utf8.DecodeRune(s.b[s.i:])
			out = utf8.AppendRune(out, r)
			s.i += size
		}
	}
	return nil, false
}

// getu4 decodes the \uXXXX escape at the start of b, or returns -1.
func getu4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// emptyAnswer is the answer to a query with an unknown term.
const emptyAnswer = `{"total":0,"clusters":[]}`

// The frame of a batch answer around its comma-separated answers.
const (
	batchOpen  = `{"results":[`
	batchClose = "]}\n"
)

// appendAnswer appends resp as json.Encoder writes it, less the
// trailing newline. A nil Clusters renders as null, as encoding/json
// renders it; the answering paths never pass one.
func appendAnswer(b []byte, resp QueryResponse) []byte {
	b = append(b, `{"total":`...)
	b = strconv.AppendInt(b, int64(resp.Total), 10)
	if resp.Clusters == nil {
		return append(b, `,"clusters":null}`...)
	}
	b = append(b, `,"clusters":[`...)
	for i, h := range resp.Clusters {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"cluster":`...)
		b = strconv.AppendInt(b, int64(h.Cluster), 10)
		b = append(b, `,"size":`...)
		b = strconv.AppendInt(b, int64(h.Size), 10)
		b = append(b, `,"results":`...)
		b = strconv.AppendInt(b, int64(h.Results), 10)
		b = append(b, `,"recall":`...)
		b = appendFloat(b, h.Recall)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// appendFloat renders a finite f as encoding/json does: the shortest
// 'f' form, or 'e' below 1e-6 and from 1e21 on, with a two-digit
// negative exponent cut to one (e-07 -> e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// jsonContentType is the Content-Type header value WriteJSON sets, as
// one shared slice; net/http only reads it, and Header.Add on a
// one-element slice appends into a new array.
var jsonContentType = []string{"application/json"}

// writeBody sends a 200 JSON body in one Write, with the headers
// WriteJSON sets.
func writeBody(w http.ResponseWriter, b []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}
