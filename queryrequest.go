package privmdr

import (
	"bytes"
	"encoding/json"
)

// queryRequestJSON is QueryRequest without its UnmarshalJSON method: what
// encoding/json decodes when the fast path declines.
type queryRequestJSON QueryRequest

// UnmarshalJSON decodes a POST /query body. The canonical shape every
// client marshals, {"queries":[[{"attr":A,"lo":L,"hi":H},…],…]} with
// exact lowercase keys (each predicate's three in any order), integers of
// at most nine digits and any JSON whitespace, is parsed directly. Anything
// else (other or repeated keys, other key cases, nulls, floats, exponents,
// leading zeros, longer integers, escapes, trailing bytes, malformed input)
// goes to encoding/json on the same bytes, so every result and every error
// is the one encoding/json gives.
func (r *QueryRequest) UnmarshalJSON(data []byte) error {
	if qs, ok := decodeQueryBatch(data); ok {
		r.Queries = qs
		return nil
	}
	return json.Unmarshal(data, (*queryRequestJSON)(r))
}

// Shortest canonical predicate, {"attr":0,"lo":0,"hi":0}, and shortest
// non-empty query, [{…}]: the byte lengths that bound the presized capacities
// in decodeQueryBatch.
const (
	minPredBytes  = 24
	minQueryBytes = minPredBytes + 2
)

// decodeQueryBatch is the fast path of QueryRequest.UnmarshalJSON; ok is
// false for any input outside the canonical shape. The predicates share one
// backing array, and each query is capped to its own span so an append to
// one cannot overwrite the next. Both slices are presized by counting '{'
// and '[', but never past what a canonical body of len(data) bytes can
// hold, so a body of bare brackets allocates no more than its own size.
func decodeQueryBatch(data []byte) (qs []Query, ok bool) {
	s := jsonScanner{b: data}
	if !s.lit('{') || !s.key("queries") || !s.lit('[') {
		return nil, false
	}
	preds := make([]Pred, 0, min(bytes.Count(data, []byte{'{'})-1, len(data)/minPredBytes))
	qs = make([]Query, 0, min(bytes.Count(data, []byte{'['})-1, len(data)/minQueryBytes))
	for !s.lit(']') {
		if len(qs) > 0 && !s.lit(',') || !s.lit('[') {
			return nil, false
		}
		start := len(preds)
		for !s.lit(']') {
			if len(preds) > start && !s.lit(',') {
				return nil, false
			}
			p, ok := s.pred()
			if !ok {
				return nil, false
			}
			preds = append(preds, p)
		}
		qs = append(qs, preds[start:len(preds):len(preds)])
	}
	if !s.lit('}') || !s.end() {
		return nil, false
	}
	return qs, true
}

// jsonScanner walks the canonical query-batch shape over b.
type jsonScanner struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (s *jsonScanner) ws() {
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
func (s *jsonScanner) lit(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *jsonScanner) end() bool {
	s.ws()
	return s.i == len(s.b)
}

// key consumes the object key "name" and its colon.
func (s *jsonScanner) key(name string) bool {
	s.ws()
	n := len(name) + 2
	if len(s.b)-s.i < n || s.b[s.i] != '"' || string(s.b[s.i+1:s.i+n-1]) != name || s.b[s.i+n-1] != '"' {
		return false
	}
	s.i += n
	return s.lit(':')
}

// pred consumes one {"attr","lo","hi"} object holding each key once.
func (s *jsonScanner) pred() (p Pred, ok bool) {
	if !s.lit('{') {
		return p, false
	}
	var seen [3]bool
	for k := 0; k < 3; k++ {
		if k > 0 && !s.lit(',') {
			return p, false
		}
		var field int
		var dst *int
		switch {
		case s.key("attr"):
			field, dst = 0, &p.Attr
		case s.key("lo"):
			field, dst = 1, &p.Lo
		case s.key("hi"):
			field, dst = 2, &p.Hi
		default:
			return p, false
		}
		if seen[field] {
			return p, false
		}
		seen[field] = true
		if *dst, ok = s.int(); !ok {
			return p, false
		}
	}
	return p, s.lit('}')
}

// int consumes an integer -?(0|[1-9][0-9]*) of at most nine digits, so it
// fits an int on every platform. A fraction, an exponent, a tenth digit or a
// digit after a leading zero is left for the caller's next token check to
// reject.
func (s *jsonScanner) int() (int, bool) {
	s.ws()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start, v := s.i, 0
	for s.i < len(s.b) && s.i-start < 9 && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		v = v*10 + int(s.b[s.i]-'0')
		s.i++
		if s.b[start] == '0' {
			break
		}
	}
	if s.i == start {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}
