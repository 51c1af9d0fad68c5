package privmdr_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"privmdr"
)

// queryRequestSeeds are the fuzz seeds for the /query body decoder: the
// canonical shape clients marshal, plus every variant the fast path must
// either parse exactly as encoding/json does or hand over to it.
func queryRequestSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte
	for _, shape := range [][4]int{{8, 1, 3, 16}, {6, 2, 3, 64}, {4, 3, 6, 1024}, {2, 6, 6, 1 << 16}} {
		qs, err := privmdr.RandomWorkload(shape[0], shape[1], shape[2], shape[3], 0.5, uint64(shape[3]))
		if err != nil {
			tb.Fatal(err)
		}
		body, err := json.Marshal(privmdr.QueryRequest{Queries: qs})
		if err != nil {
			tb.Fatal(err)
		}
		indented, err := json.MarshalIndent(privmdr.QueryRequest{Queries: qs}, "\r\n", "\t ")
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, body, indented, append(body, " \n\t\r"...), append([]byte("\n "), body...))
	}
	for _, s := range []string{
		// canonical, empty and degenerate batches
		`{"queries":[[{"attr":0,"lo":1,"hi":2}]]}`,
		`{"queries":[[{"attr":0,"lo":1,"hi":2},{"attr":1,"lo":0,"hi":15}],[{"attr":2,"lo":3,"hi":3}]]}`,
		`{"queries":[]}`, `{"queries":[[]]}`, `{"queries":[[],[]]}`, `{}`, `[]`, ``, ` `,
		// whitespace everywhere, key orders
		" { \"queries\" : [ [ { \"attr\" : 0 , \"lo\" : 1 , \"hi\" : 2 } ] ] } ",
		`{"queries":[[{"hi":2,"lo":1,"attr":0}]]}`, `{"queries":[[{"lo":1,"attr":0,"hi":2}]]}`,
		// other key cases, duplicate, missing and unknown keys
		`{"Queries":[[{"ATTR":0,"Lo":1,"hI":2}]]}`,
		`{"queries":[[{"attr":0,"attr":1,"lo":1,"hi":2}]]}`,
		`{"queries":[],"queries":[[{"attr":0,"lo":0,"hi":1}]]}`,
		`{"queries":[[{"attr":0,"lo":1}]]}`, `{"queries":[[{}]]}`,
		`{"queries":[[{"attr":0,"lo":1,"hi":2,"x":3}]],"y":[1]}`,
		// numbers: -0, leading zeros, floats, exponents, long integers
		`{"queries":[[{"attr":-0,"lo":0,"hi":1}]]}`,
		`{"queries":[[{"attr":01,"lo":0,"hi":1}]]}`, `{"queries":[[{"attr":00,"lo":0,"hi":1}]]}`,
		`{"queries":[[{"attr":1.0,"lo":0,"hi":1}]]}`, `{"queries":[[{"attr":1e2,"lo":0,"hi":1}]]}`,
		`{"queries":[[{"attr":1E+0,"lo":0,"hi":1}]]}`, `{"queries":[[{"attr":-,"lo":0,"hi":1}]]}`,
		`{"queries":[[{"attr":123456789,"lo":-123456789,"hi":1}]]}`,
		`{"queries":[[{"attr":1234567890,"lo":0,"hi":1}]]}`,
		`{"queries":[[{"attr":12345678901234567890,"lo":0,"hi":1}]]}`,
		`{"queries":[[{"attr":-9223372036854775809,"lo":0,"hi":1}]]}`,
		// null, booleans and strings
		`null`, `{"queries":null}`, `{"queries":[null]}`, `{"queries":[[null]]}`,
		`{"queries":[[{"attr":null,"lo":0,"hi":1}]]}`, `{"queries":[[{"attr":true,"lo":0,"hi":1}]]}`,
		`{"queries":[[{"attr":"0","lo":0,"hi":1}]]}`,
		`{"queries":[[{"\u0061ttr":0,"lo":0,"hi":1}]]}`, `{"qu\u0065ries":[[{"attr":0,"lo":0,"hi":1}]]}`,
		`{"queries":[[{"attr\n":0,"lo":0,"hi":1}]]}`,
		// trailing bytes and truncation
		`{"queries":[[{"attr":0,"lo":1,"hi":2}]]}x`, `{"queries":[[{"attr":0,"lo":1,"hi":2}]]}{}`,
		`{"queries":[[{"attr":0,"lo":1,"hi":2}]]`, `{"queries":[[{"attr":0,"lo":1,"hi":2}],]}`,
		`{"queries":[[{"attr":0,"lo":1,"hi":2},]]}`, `{"queries":[[{"attr":0,"lo":1,"hi":2,}]]}`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// FuzzQueryRequest pins QueryRequest.UnmarshalJSON to encoding/json: it never
// panics, a body its fast path accepts decodes under plain encoding/json to
// a reflect.DeepEqual request, and a body it declines yields encoding/json's
// own result or error.
func FuzzQueryRequest(f *testing.F) {
	for _, s := range queryRequestSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want privmdr.QueryRequestJSON
		wantErr := json.Unmarshal(data, &want)
		if qs, ok := privmdr.DecodeQueryBatch(data); ok {
			if wantErr != nil {
				t.Fatalf("fast path accepted %q; encoding/json: %v", data, wantErr)
			}
			if !reflect.DeepEqual(qs, want.Queries) {
				t.Fatalf("fast path decoded %q as %#v; encoding/json %#v", data, qs, want.Queries)
			}
		}
		var got privmdr.QueryRequest
		err := got.UnmarshalJSON(data)
		switch {
		case wantErr != nil:
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%q: error %v, encoding/json %v", data, err, wantErr)
			}
		case err != nil:
			t.Fatalf("%q: error %v, encoding/json accepts it", data, err)
		case !reflect.DeepEqual(got.Queries, want.Queries):
			t.Fatalf("%q: decoded %#v, encoding/json %#v", data, got.Queries, want.Queries)
		}
	})
}

// TestQueryRequestFastPathCoverage keeps the fast path honest about what it
// accepts: every marshalled batch and whitespace variant, none of the
// shapes it promises to hand to encoding/json.
func TestQueryRequestFastPathCoverage(t *testing.T) {
	for _, s := range queryRequestSeeds(t)[:16] {
		if _, ok := privmdr.DecodeQueryBatch(s); !ok {
			t.Errorf("fast path declined the canonical body %q", s)
		}
	}
	for _, s := range []string{
		`{"Queries":[[{"attr":0,"lo":1,"hi":2}]]}`,
		`{"queries":[[{"attr":0,"attr":1,"lo":1,"hi":2}]]}`,
		`{"queries":[[{"attr":0,"lo":1}]]}`,
		`{"queries":[[{"attr":01,"lo":0,"hi":1}]]}`,
		`{"queries":[[{"attr":1.0,"lo":0,"hi":1}]]}`,
		`{"queries":[[{"attr":1234567890,"lo":0,"hi":1}]]}`,
		`{"queries":null}`,
		`{"queries":[[{"\u0061ttr":0,"lo":1,"hi":2}]]}`,
		`{"queries":[[{"attr":0,"lo":1,"hi":2}]]}x`,
	} {
		if _, ok := privmdr.DecodeQueryBatch([]byte(s)); ok {
			t.Errorf("fast path accepted %q", s)
		}
	}
}

// TestQueryRequestBracketFlood keeps the decoder's memory proportional to
// the body: a body that opens like a batch and then floods '{' or '[' must
// be rejected without allocating more than a small multiple of its own size.
func TestQueryRequestBracketFlood(t *testing.T) {
	for _, flood := range []byte{'{', '['} {
		body := append([]byte(`{"queries":[`), bytes.Repeat([]byte{flood}, 1<<20)...)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		var req privmdr.QueryRequest
		err := req.UnmarshalJSON(body)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%q flood accepted", flood)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4*uint64(len(body)) {
			t.Errorf("%q flood of %d bytes allocated %d bytes", flood, len(body), alloc)
		}
	}
}

// BenchmarkQueryRequestDecode times one /query body decode: the fast path
// the servers call, against plain encoding/json on the same body.
func BenchmarkQueryRequestDecode(b *testing.B) {
	var batch []privmdr.Query
	for lambda := 1; lambda <= 3; lambda++ {
		qs, err := privmdr.RandomWorkload(2, lambda, 3, 256, 0.5, uint64(lambda))
		if err != nil {
			b.Fatal(err)
		}
		batch = append(batch, qs...)
	}
	body, err := json.Marshal(privmdr.QueryRequest{Queries: batch})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("UnmarshalJSON", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req privmdr.QueryRequest
			if err := req.UnmarshalJSON(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req privmdr.QueryRequestJSON
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
