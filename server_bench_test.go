package privmdr

import (
	"bytes"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"privmdr/internal/httpapi"
	"privmdr/internal/mech"
)

// frameFixture builds one encoded report frame of n reports.
func frameFixture(tb testing.TB, n int) []byte {
	tb.Helper()
	rs := make([]Report, n)
	for i := range rs {
		rs[i] = Report{Group: i % 3, Seed: uint64(i) * 0x9e3779b97f4a7c15, Value: i % 7}
	}
	frame, err := mech.EncodeReports(rs)
	if err != nil {
		tb.Fatal(err)
	}
	return frame
}

// decodeFrame is the POST /reports decode path: body read into a reused
// buffer, then batch decode into a reused slice.
func decodeFrame(tb testing.TB, src *bytes.Reader, fr *reportFrame) {
	var err error
	fr.body, err = httpapi.ReadAll(src, fr.body[:0])
	if err != nil {
		tb.Fatal(err)
	}
	fr.batch, err = mech.AppendDecodedReports(fr.batch[:0], fr.body)
	if err != nil {
		tb.Fatal(err)
	}
}

// TestReportsDecodeZeroAlloc guards the POST /reports decode path: with a
// warm frame (the steady state the pool provides), reading the body and
// decoding the batch performs zero allocations.
func TestReportsDecodeZeroAlloc(t *testing.T) {
	frame := frameFixture(t, 4096)
	src := bytes.NewReader(frame)
	fr := &reportFrame{}
	decodeFrame(t, src, fr) // warm the buffers once

	allocs := testing.AllocsPerRun(50, func() {
		src.Reset(frame)
		decodeFrame(t, src, fr)
	})
	if allocs != 0 {
		t.Errorf("warm report-frame decode allocates %g objects/op, want 0", allocs)
	}
	if len(fr.batch) != 4096 {
		t.Fatalf("decoded %d reports, want 4096", len(fr.batch))
	}
}

// BenchmarkReportsDecode measures the pooled POST /reports decode path;
// allocs/op is the headline number (0 once the pool is warm).
func BenchmarkReportsDecode(b *testing.B) {
	frame := frameFixture(b, 4096)
	src := bytes.NewReader(frame)
	fr := &reportFrame{}
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset(frame)
		decodeFrame(b, src, fr)
	}
}

// ingestFixture builds a live collector of the named mechanism over d
// attributes plus one encoded frame of n valid reports for it — the full
// POST /reports steady state: body read, batch decode, vet, run-partition,
// batch fold.
func ingestFixture(tb testing.TB, name string, d, n int) (Collector, []byte) {
	tb.Helper()
	m, err := mechByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	p := Params{N: n, D: d, C: 64, Eps: 1, Seed: 9}
	proto, err := m.Protocol(p)
	if err != nil {
		tb.Fatal(err)
	}
	coll, err := proto.NewCollector()
	if err != nil {
		tb.Fatal(err)
	}
	record := []int{5, 17, 42}[:d]
	rs := make([]Report, n)
	for u := range rs {
		a, err := proto.Assignment(u)
		if err != nil {
			tb.Fatal(err)
		}
		rs[u], err = proto.ClientReport(a, record, mech.ClientRand(p, u))
		if err != nil {
			tb.Fatal(err)
		}
	}
	frame, err := mech.EncodeReports(rs)
	if err != nil {
		tb.Fatal(err)
	}
	return coll, frame
}

// TestBatchedIngestZeroAlloc pins the whole warm ingest path — frame read,
// batch decode, vetting, run partitioning, and per-run batch folding into a
// streaming collector — at zero allocations per request, for every
// mechanism. Once the pools are warm, sustained POST /reports traffic
// creates no garbage, and a collector's heap cannot grow with the number
// of reports it has folded. HIO runs at d = 2: at d = 3 and c = 64 its
// deepest groups pass the streaming cap and keep their reports by design.
func TestBatchedIngestZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, tc := range []struct {
		mech string
		d    int
	}{{"Uni", 3}, {"MSW", 3}, {"CALM", 3}, {"HIO", 2}, {"LHIO", 3}, {"TDG", 3}, {"HDG", 3}} {
		t.Run(tc.mech, func(t *testing.T) {
			coll, frame := ingestFixture(t, tc.mech, tc.d, 4096)
			src := bytes.NewReader(frame)
			fr := &reportFrame{}
			submit := func() {
				src.Reset(frame)
				decodeFrame(t, src, fr)
				if err := coll.SubmitBatch(fr.batch); err != nil {
					t.Fatal(err)
				}
			}
			submit() // warm the buffers and pools once

			allocs := testing.AllocsPerRun(50, submit)
			if allocs != 0 {
				t.Errorf("warm batched ingest allocates %g objects/op, want 0", allocs)
			}
		})
	}
}

// TestReportFramePoolDropsOversizedFrames posts one oversized frame (a
// million empty reports, 4 MiB of body and 24 MiB decoded) to a live Uni
// server, then 500 ordinary frames, and checks the live heap after a GC:
// the frame pool must not keep the oversized body and batch alive by
// handing them to every later request.
func TestReportFramePoolDropsOversizedFrames(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector, so nothing stays pinned")
	}
	proto, err := ProtocolByName("Uni", Params{N: 1, D: 2, C: 4, Eps: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewLiveQueryServer(proto, LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// emptyFrame encodes n empty (Uni) reports without materializing them.
	emptyFrame := func(n int) []byte {
		one, err := mech.EncodeReports([]Report{{}})
		if err != nil {
			t.Fatal(err)
		}
		one = one[1:] // drop the count prefix (a single byte for 1)
		return append(binary.AppendUvarint(nil, uint64(n)), bytes.Repeat(one, n)...)
	}
	post := func(frame []byte) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reports", bytes.NewReader(frame)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST /reports: %d %s", rec.Code, rec.Body)
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// Two GCs empty the pool of frames earlier tests left in it.
	runtime.GC()
	runtime.GC()
	small := emptyFrame(512)
	post(small)
	base := liveHeap()
	post(emptyFrame(1 << 20))
	for i := 0; i < 500; i++ {
		post(small)
	}
	if grown := int64(liveHeap()) - int64(base); grown > 8<<20 {
		t.Errorf("live heap grew %.1f MiB after one oversized frame, want < 8 MiB", float64(grown)/(1<<20))
	}
	if got, want := s.Received(), 501*512+1<<20; got != want {
		t.Fatalf("received %d reports, want %d", got, want)
	}
}

// BenchmarkBatchedIngest measures the warm decode+submit path end to end
// for one 4096-report frame against a streaming TDG collector.
func BenchmarkBatchedIngest(b *testing.B) {
	coll, frame := ingestFixture(b, "TDG", 3, 4096)
	src := bytes.NewReader(frame)
	fr := &reportFrame{}
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset(frame)
		decodeFrame(b, src, fr)
		if err := coll.SubmitBatch(fr.batch); err != nil {
			b.Fatal(err)
		}
	}
}
