package privmdr_test

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"privmdr"
)

// startLive stands up a live query server over httptest and arranges its
// refresher shutdown.
func startLive(t *testing.T, proto privmdr.Protocol, opts privmdr.LiveOptions) (*privmdr.QueryServer, *httptest.Server) {
	t.Helper()
	srv, err := privmdr.NewLiveQueryServer(proto, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestLiveServerEpochServing is the live-mode stress test, per mechanism
// under -race: concurrent POST /reports shards, the background refresher,
// and concurrent POST /query batches all run against one server at once.
// POST /reports must never be rejected (no 409 — the finalize-once gate is
// gone), queries must always succeed against whatever epoch is serving, and
// once ingestion settles a forced refresh must answer bit-identically to a
// one-shot Finalize collector that ingested the same reports.
func TestLiveServerEpochServing(t *testing.T) {
	ds := liveDataset(t, 2400)
	qs := liveWorkload(t, ds.D(), ds.C)
	queryBody, err := json.Marshal(privmdr.QueryRequest{Queries: qs})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range privmdr.Mechanisms() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			t.Parallel()
			p := privmdr.Params{N: ds.N(), D: ds.D(), C: ds.C, Eps: 1.0, Seed: 210}
			proto, err := m.Protocol(p)
			if err != nil {
				t.Fatal(err)
			}
			reports := makeReports(t, proto, ds)
			_, ts := startLive(t, proto, privmdr.LiveOptions{Refresh: 2 * time.Millisecond, MinNewReports: 1})

			// Ingestion: four disjoint shards streamed concurrently in small
			// frames, so many refresh ticks land mid-stream.
			const shards = 4
			var ingest sync.WaitGroup
			for s := 0; s < shards; s++ {
				ingest.Add(1)
				go func(s int) {
					defer ingest.Done()
					lo, hi := s*len(reports)/shards, (s+1)*len(reports)/shards
					for at := lo; at < hi; at += 100 {
						end := min(at+100, hi)
						frame, err := privmdr.EncodeReports(reports[at:end])
						if err != nil {
							t.Error(err)
							return
						}
						code, body := postBody(t, ts.URL+"/reports", "application/octet-stream", frame)
						if code != http.StatusOK {
							t.Errorf("POST /reports mid-serving: %d %s (live mode must never 409)", code, body)
							return
						}
					}
				}(s)
			}

			// Query load: clients hammer /query against whatever epoch is
			// serving while ingestion and refreshes run.
			stop := make(chan struct{})
			var load sync.WaitGroup
			for w := 0; w < 2; w++ {
				load.Add(1)
				go func() {
					defer load.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						code, payload := postBody(t, ts.URL+"/query", "application/json", queryBody)
						if code != http.StatusOK {
							t.Errorf("POST /query mid-ingest: %d %s", code, payload)
							return
						}
					}
				}()
			}
			ingest.Wait()
			close(stop)
			load.Wait()
			if t.Failed() {
				t.FailNow()
			}

			// Everything ingested: one forced refresh, then the answers must
			// equal a one-shot finalize over the same multiset.
			code, payload := postBody(t, ts.URL+"/refresh", "application/json", nil)
			if code != http.StatusOK {
				t.Fatalf("POST /refresh: %d %s", code, payload)
			}
			code, payload = postBody(t, ts.URL+"/query", "application/json", queryBody)
			if code != http.StatusOK {
				t.Fatalf("POST /query: %d %s", code, payload)
			}
			var qr privmdr.QueryResponse
			if err := json.Unmarshal(payload, &qr); err != nil {
				t.Fatal(err)
			}
			want := oneShotAnswers(t, proto, reports, qs)
			if !answersEqual(qr.Answers, want) {
				t.Fatalf("live epoch answers differ from one-shot finalize\n got %v\nwant %v", qr.Answers, want)
			}

			var status privmdr.ServerStatus
			getJSON(t, ts.URL+"/healthz", &status)
			if status.Mode != "live" || !status.Serving || status.Received != len(reports) ||
				status.EstimatorReports != len(reports) || status.Staleness != 0 {
				t.Fatalf("settled live status = %+v", status)
			}
		})
	}
}

// TestLiveServerIdleRefresherSealsNothing pins the idle contract: the
// background refresher never builds an epoch over an empty collector, and
// stays below the MinNewReports threshold — only a forced refresh (or the
// first query) seals one.
func TestLiveServerIdleRefresherSealsNothing(t *testing.T) {
	f := newServerFixture(t)
	srv, ts := startLive(t, f.proto, privmdr.LiveOptions{Refresh: time.Millisecond, MinNewReports: 1 << 30})
	time.Sleep(30 * time.Millisecond)
	if st := srv.Status(); st.Serving || st.Epoch != 0 {
		t.Fatalf("idle background refresher sealed an epoch: %+v", st)
	}
	// Below the threshold the scheduled refresher still skips…
	if code, body := postBody(t, ts.URL+"/reports", "application/octet-stream", f.shards[0]); code != http.StatusOK {
		t.Fatalf("POST /reports: %d %s", code, body)
	}
	time.Sleep(30 * time.Millisecond)
	if st := srv.Status(); st.Serving {
		t.Fatalf("refresher sealed an epoch below MinNewReports: %+v", st)
	}
	// …but a forced refresh ignores it.
	if epoch, swapped, err := srv.Refresh(); err != nil || !swapped || epoch != 1 {
		t.Fatalf("forced refresh = (%d, %v, %v), want epoch 1", epoch, swapped, err)
	}
}

// TestLiveServerEpochLifecycle walks the live endpoints deterministically
// (no background refresher): epoch numbering, the healthz staleness
// contract, idle-refresh skipping, and mid-serving state export.
func TestLiveServerEpochLifecycle(t *testing.T) {
	f := newServerFixture(t)
	srv, ts := startLive(t, f.proto, privmdr.LiveOptions{})

	var status privmdr.ServerStatus
	getJSON(t, ts.URL+"/healthz", &status)
	if status.Mode != "live" || status.Serving || status.Epoch != 0 {
		t.Fatalf("fresh live status = %+v", status)
	}

	// First shard, first epoch.
	if code, body := postBody(t, ts.URL+"/reports", "application/octet-stream", f.shards[0]); code != http.StatusOK {
		t.Fatalf("POST /reports: %d %s", code, body)
	}
	type refreshReply struct {
		Epoch            uint64 `json:"epoch"`
		Swapped          bool   `json:"swapped"`
		EstimatorReports int    `json:"estimator_reports"`
	}
	var rr refreshReply
	code, payload := postBody(t, ts.URL+"/refresh", "application/json", nil)
	if code != http.StatusOK {
		t.Fatalf("POST /refresh: %d %s", code, payload)
	}
	if err := json.Unmarshal(payload, &rr); err != nil {
		t.Fatal(err)
	}
	n1 := srv.Received()
	if rr.Epoch != 1 || !rr.Swapped || rr.EstimatorReports != n1 {
		t.Fatalf("first refresh = %+v (received %d)", rr, n1)
	}

	// Idle refresh: nothing new arrived, so the swap is skipped and the
	// epoch does not advance.
	code, payload = postBody(t, ts.URL+"/refresh", "application/json", nil)
	if code != http.StatusOK {
		t.Fatalf("POST /refresh: %d %s", code, payload)
	}
	if err := json.Unmarshal(payload, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Epoch != 1 || rr.Swapped {
		t.Fatalf("idle refresh advanced the epoch: %+v", rr)
	}

	// More reports: staleness counts them until the next refresh seals
	// epoch 2 over everything.
	if code, body := postBody(t, ts.URL+"/reports", "application/octet-stream", f.shards[1]); code != http.StatusOK {
		t.Fatalf("POST /reports after epoch 1: %d %s (live mode must never 409)", code, body)
	}
	getJSON(t, ts.URL+"/healthz", &status)
	if status.Epoch != 1 || status.EstimatorReports != n1 || status.Staleness != srv.Received()-n1 || status.Staleness == 0 {
		t.Fatalf("stale status = %+v (received %d, epoch over %d)", status, srv.Received(), n1)
	}

	// Mid-serving state export still works — live servers never trip the
	// finalized gate.
	blob := getState(t, ts.URL)
	if st, err := privmdr.DecodeState(blob); err != nil || st.Received() != srv.Received() {
		t.Fatalf("mid-serving GET /state: %v (got %d reports, want %d)", err, st.Received(), srv.Received())
	}

	code, payload = postBody(t, ts.URL+"/refresh", "application/json", nil)
	if code != http.StatusOK {
		t.Fatalf("POST /refresh: %d %s", code, payload)
	}
	if err := json.Unmarshal(payload, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Epoch != 2 || !rr.Swapped || rr.EstimatorReports != srv.Received() {
		t.Fatalf("second refresh = %+v", rr)
	}
	getJSON(t, ts.URL+"/healthz", &status)
	if status.Epoch != 2 || status.Staleness != 0 {
		t.Fatalf("post-refresh status = %+v", status)
	}
}

// TestLiveServerSnapshotEpochRoundTrip covers live-mode persistence: a
// snapshot taken while the server is actively serving (the SIGTERM path)
// restores into a fresh live server with the report multiset and the epoch
// counter intact, so post-restart epochs continue the numbering and answer
// bit-identically.
func TestLiveServerSnapshotEpochRoundTrip(t *testing.T) {
	f := newServerFixture(t)
	srv, ts := startLive(t, f.proto, privmdr.LiveOptions{})

	for _, frame := range f.shards[:2] {
		if code, body := postBody(t, ts.URL+"/reports", "application/octet-stream", frame); code != http.StatusOK {
			t.Fatalf("POST /reports: %d %s", code, body)
		}
		if code, payload := postBody(t, ts.URL+"/refresh", "application/json", nil); code != http.StatusOK {
			t.Fatalf("POST /refresh: %d %s", code, payload)
		}
	}
	// The server is serving epoch 2; snapshot it mid-serving.
	body, err := json.Marshal(privmdr.QueryRequest{Queries: f.qs})
	if err != nil {
		t.Fatal(err)
	}
	code, payload := postBody(t, ts.URL+"/query", "application/json", body)
	if code != http.StatusOK {
		t.Fatalf("POST /query: %d %s", code, payload)
	}
	var before privmdr.QueryResponse
	if err := json.Unmarshal(payload, &before); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "live.snap")
	if err := srv.SaveSnapshot(snap); err != nil {
		t.Fatalf("SaveSnapshot while serving: %v", err)
	}

	// The wrapper is introspectable and carries the epoch.
	raw, err := srv.State()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	st, epoch, err := privmdr.DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 || st.Received() != raw.Received() {
		t.Fatalf("DecodeSnapshot = (epoch %d, %d reports), want (2, %d)", epoch, st.Received(), raw.Received())
	}

	// Restore into a fresh live server: counts and epoch base carry over,
	// and the next refresh continues the numbering.
	restored, err := privmdr.NewLiveQueryServer(f.proto, privmdr.LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = restored.Close() })
	if err := restored.LoadSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if restored.Received() != srv.Received() {
		t.Fatalf("restored %d reports, want %d", restored.Received(), srv.Received())
	}
	if got := restored.Status(); got.Epoch != 2 || got.Serving {
		t.Fatalf("restored status = %+v, want epoch base 2, not yet serving", got)
	}
	epochN, swapped, err := restored.Refresh()
	if err != nil || !swapped || epochN != 3 {
		t.Fatalf("post-restore refresh = (%d, %v, %v), want epoch 3", epochN, swapped, err)
	}
	tsR := httptest.NewServer(restored)
	t.Cleanup(tsR.Close)
	code, payload = postBody(t, tsR.URL+"/query", "application/json", body)
	if code != http.StatusOK {
		t.Fatalf("POST /query after restore: %d %s", code, payload)
	}
	var after privmdr.QueryResponse
	if err := json.Unmarshal(payload, &after); err != nil {
		t.Fatal(err)
	}
	if !answersEqual(after.Answers, before.Answers) {
		t.Fatal("restored live server answers differ from the snapshot origin")
	}
}

// TestRefreshRequiresLiveMode pins the mode split: finalize-once servers
// reject POST /refresh with 409 (their only transition is Finalize), and a
// live server that is explicitly finalized goes terminal — reports are then
// rejected exactly like the legacy lifecycle.
func TestRefreshRequiresLiveMode(t *testing.T) {
	f := newServerFixture(t)
	ts := f.start(t)
	if code, payload := postBody(t, ts.URL+"/refresh", "application/json", nil); code != http.StatusConflict {
		t.Fatalf("POST /refresh on finalize-once server: %d %s, want 409", code, payload)
	}

	// Explicit finalize is still the terminal transition in live mode.
	srv, tsLive := startLive(t, f.proto, privmdr.LiveOptions{})
	if code, body := postBody(t, tsLive.URL+"/reports", "application/octet-stream", f.shards[0]); code != http.StatusOK {
		t.Fatalf("POST /reports: %d %s", code, body)
	}
	if code, payload := postBody(t, tsLive.URL+"/finalize", "application/json", nil); code != http.StatusOK {
		t.Fatalf("POST /finalize on live server: %d %s", code, payload)
	}
	if code, _ := postBody(t, tsLive.URL+"/reports", "application/octet-stream", f.shards[1]); code != http.StatusConflict {
		t.Fatalf("POST /reports after explicit live finalize: %d, want 409", code)
	}
	if code, _ := postBody(t, tsLive.URL+"/refresh", "application/json", nil); code != http.StatusConflict {
		t.Fatalf("POST /refresh after finalize: %d, want 409", code)
	}
	if _, err := srv.Estimate(); err == nil {
		t.Fatal("Estimate after finalize should fail")
	}
}

// TestLiveHDGLargeDomain serves a live HDG deployment over a 16-bit
// attribute domain. A c×c response matrix would hold 2³² floats (32 GiB) per
// pair; on the atom grid a refresh and a 2-D query cutting through cells
// keep the server's live heap to a few MiB.
func TestLiveHDGLargeDomain(t *testing.T) {
	const c = 1 << 16
	params := privmdr.Params{N: 20_000, D: 2, C: c, Eps: 1.0, Seed: 17}
	ds, err := privmdr.GenerateDataset("normal", privmdr.GenOptions{N: params.N, D: params.D, C: c, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	proto, err := privmdr.ProtocolByName("HDG", params)
	if err != nil {
		t.Fatal(err)
	}
	reports := make([]privmdr.Report, params.N)
	record := make([]int, params.D)
	for u := range reports {
		a, err := proto.Assignment(u)
		if err != nil {
			t.Fatal(err)
		}
		for i := range record {
			record[i] = ds.Value(i, u)
		}
		if reports[u], err = proto.ClientReport(a, record, privmdr.ClientRand(params, u)); err != nil {
			t.Fatal(err)
		}
	}
	frame, err := privmdr.EncodeReports(reports)
	if err != nil {
		t.Fatal(err)
	}
	q := privmdr.Query{{Attr: 0, Lo: 1001, Hi: 40_003}, {Attr: 1, Lo: 12_345, Hi: 60_001}}
	body, err := json.Marshal(privmdr.QueryRequest{Queries: []privmdr.Query{q}})
	if err != nil {
		t.Fatal(err)
	}
	truth := privmdr.TrueAnswers(ds, []privmdr.Query{q})[0]

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, ts := startLive(t, proto, privmdr.LiveOptions{})
	if code, msg := postBody(t, ts.URL+"/reports", "application/octet-stream", frame); code != http.StatusOK {
		t.Fatalf("POST /reports: %d %s", code, msg)
	}
	if code, msg := postBody(t, ts.URL+"/refresh", "application/json", nil); code != http.StatusOK {
		t.Fatalf("POST /refresh: %d %s", code, msg)
	}
	code, msg := postBody(t, ts.URL+"/query", "application/json", body)
	if code != http.StatusOK {
		t.Fatalf("POST /query: %d %s", code, msg)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(frame)

	var resp privmdr.QueryResponse
	if err := json.Unmarshal(msg, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || math.Abs(resp.Answers[0]-truth) > 0.1 {
		t.Fatalf("answers %v, true answer %v", resp.Answers, truth)
	}
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if grown > 4<<20 {
		t.Fatalf("live heap grew by %.1f MiB serving c = %d, want under 4 MiB", float64(grown)/(1<<20), c)
	}
	t.Logf("c = %d: live heap grew %.2f MiB; answer %.4f, true %.4f", c, float64(grown)/(1<<20), resp.Answers[0], truth)
}
