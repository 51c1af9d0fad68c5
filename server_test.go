package privmdr_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"privmdr"
	"privmdr/internal/httpapi"
)

// serverFixture builds a small HDG deployment: the public params, every
// user's report (split into shards), and the reference estimator a direct
// Simulate of the same protocol produces.
type serverFixture struct {
	params privmdr.Params
	proto  privmdr.Protocol
	shards [][]byte
	ref    privmdr.Estimator
	qs     []privmdr.Query
}

func newServerFixture(t *testing.T) *serverFixture {
	t.Helper()
	params := privmdr.Params{N: 4000, D: 3, C: 16, Eps: 1.0, Seed: 31}
	ds, err := privmdr.GenerateDataset("normal", privmdr.GenOptions{N: params.N, D: params.D, C: params.C, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	proto, err := privmdr.ProtocolByName("HDG", params)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	frames := make([][]byte, 0, shards)
	record := make([]int, params.D)
	for s := 0; s < shards; s++ {
		lo, hi := s*params.N/shards, (s+1)*params.N/shards
		reports := make([]privmdr.Report, 0, hi-lo)
		for u := lo; u < hi; u++ {
			a, err := proto.Assignment(u)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < params.D; i++ {
				record[i] = ds.Value(i, u)
			}
			rep, err := proto.ClientReport(a, record, privmdr.ClientRand(params, u))
			if err != nil {
				t.Fatal(err)
			}
			reports = append(reports, rep)
		}
		frame, err := privmdr.EncodeReports(reports)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
	}
	ref, err := privmdr.Simulate(proto, ds)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := privmdr.RandomWorkload(30, 2, params.D, params.C, 0.5, 51)
	if err != nil {
		t.Fatal(err)
	}
	oneD, err := privmdr.RandomWorkload(10, 1, params.D, params.C, 0.5, 52)
	if err != nil {
		t.Fatal(err)
	}
	return &serverFixture{params: params, proto: proto, shards: frames, ref: ref, qs: append(qs, oneD...)}
}

func (f *serverFixture) start(t *testing.T) *httptest.Server {
	t.Helper()
	qsrv, err := privmdr.NewQueryServer(f.proto)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(qsrv)
	t.Cleanup(ts.Close)
	return ts
}

// postBody POSTs and returns (status, body).
func postBody(t *testing.T, url, contentType string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, payload
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestQueryServerLifecycle walks the whole serving lifecycle over HTTP:
// shard ingestion, finalize-once, query batches identical to the direct
// protocol path, and 409 for late reports.
func TestQueryServerLifecycle(t *testing.T) {
	f := newServerFixture(t)
	ts := f.start(t)

	var status privmdr.ServerStatus
	getJSON(t, ts.URL+"/healthz", &status)
	if status.Mechanism != "HDG" || status.Mode != "finalize-once" || status.Serving || status.Epoch != 0 || status.Received != 0 {
		t.Fatalf("fresh server status = %+v", status)
	}
	var sp privmdr.ServerParams
	getJSON(t, ts.URL+"/params", &sp)
	if sp.Mechanism != "HDG" || sp.Params != f.params {
		t.Fatalf("params = %+v, want %+v", sp, f.params)
	}

	// Concurrent shard ingestion.
	var wg sync.WaitGroup
	for _, frame := range f.shards {
		wg.Add(1)
		go func(frame []byte) {
			defer wg.Done()
			code, body := postBody(t, ts.URL+"/reports", "application/octet-stream", frame)
			if code != http.StatusOK {
				t.Errorf("POST /reports: %d %s", code, body)
			}
		}(frame)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	getJSON(t, ts.URL+"/healthz", &status)
	if status.Received != f.params.N || status.Serving {
		t.Fatalf("post-ingest status = %+v, want %d reports, not serving", status, f.params.N)
	}

	// First query finalizes implicitly and must match the direct path
	// exactly — same protocol, same multiset of reports.
	want, err := privmdr.AnswerBatch(f.ref, f.qs)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(privmdr.QueryRequest{Queries: f.qs})
	if err != nil {
		t.Fatal(err)
	}
	code, payload := postBody(t, ts.URL+"/query", "application/json", body)
	if code != http.StatusOK {
		t.Fatalf("POST /query: %d %s", code, payload)
	}
	var qr privmdr.QueryResponse
	if err := json.Unmarshal(payload, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Answers) != len(f.qs) {
		t.Fatalf("got %d answers for %d queries", len(qr.Answers), len(f.qs))
	}
	for i := range want {
		if qr.Answers[i] != want[i] {
			t.Fatalf("query %d: server %g, direct path %g", i, qr.Answers[i], want[i])
		}
	}

	// Serving phase: late reports rejected, finalize idempotent, health
	// reflects the frozen state.
	code, _ = postBody(t, ts.URL+"/reports", "application/octet-stream", f.shards[0])
	if code != http.StatusConflict {
		t.Fatalf("POST /reports after finalize: %d, want 409", code)
	}
	code, _ = postBody(t, ts.URL+"/finalize", "application/json", nil)
	if code != http.StatusOK {
		t.Fatalf("POST /finalize after finalize: %d, want 200 (idempotent)", code)
	}
	getJSON(t, ts.URL+"/healthz", &status)
	if !status.Serving || status.Epoch != 1 || status.Received != f.params.N ||
		status.EstimatorReports != f.params.N || status.Staleness != 0 {
		t.Fatalf("serving status = %+v", status)
	}
}

// TestQueryServerConcurrentQueries checks a flood of parallel /query
// batches — including the racing implicit finalize — all see identical
// answers.
func TestQueryServerConcurrentQueries(t *testing.T) {
	f := newServerFixture(t)
	ts := f.start(t)
	for _, frame := range f.shards {
		if code, body := postBody(t, ts.URL+"/reports", "application/octet-stream", frame); code != http.StatusOK {
			t.Fatalf("POST /reports: %d %s", code, body)
		}
	}
	body, err := json.Marshal(privmdr.QueryRequest{Queries: f.qs})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 8
	answers := make([][]float64, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			code, payload := postBody(t, ts.URL+"/query", "application/json", body)
			if code != http.StatusOK {
				t.Errorf("client %d: %d %s", w, code, payload)
				return
			}
			var qr privmdr.QueryResponse
			if err := json.Unmarshal(payload, &qr); err != nil {
				t.Error(err)
				return
			}
			answers[w] = qr.Answers
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for w := 1; w < clients; w++ {
		for i := range f.qs {
			if answers[w][i] != answers[0][i] {
				t.Fatalf("client %d query %d: %g, client 0 saw %g", w, i, answers[w][i], answers[0][i])
			}
		}
	}
}

// TestQueryServerRejectsBadInput covers the 400 paths.
func TestQueryServerRejectsBadInput(t *testing.T) {
	f := newServerFixture(t)
	ts := f.start(t)
	cases := []struct {
		name, path, body string
	}{
		{"malformed JSON", "/query", `{"queries": [`},
		{"empty batch", "/query", `{"queries": []}`},
		{"invalid attribute", "/query", `{"queries": [[{"attr": 99, "lo": 0, "hi": 1}]]}`},
		{"empty interval", "/query", `{"queries": [[{"attr": 0, "lo": 5, "hi": 2}]]}`},
		{"garbage report frame", "/reports", "not a report frame"},
	}
	for _, tc := range cases {
		code, payload := postBody(t, ts.URL+tc.path, "application/json", []byte(tc.body))
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, code, payload)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(payload, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error reply %q not a JSON error", tc.name, payload)
		}
	}
	// None of the malformed batches may have ended the ingestion phase.
	var status privmdr.ServerStatus
	getJSON(t, ts.URL+"/healthz", &status)
	if status.Serving {
		t.Error("malformed input finalized the server")
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query: %d, want 405", resp.StatusCode)
	}
}

// getState pulls a shard's exported collector state over HTTP.
func getState(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/state")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /state: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("GET /state Content-Type = %q", ct)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestQueryServerShardedAggregation runs the two-shard topology end to end
// over HTTP: each QueryServer ingests a disjoint half of the reports, shard
// A pulls shard B's exported state from GET /state, merges it with POST
// /state, finalizes, and must answer bit-identically to the monolithic
// reference. The tail covers the snapshot/warm-restart cycle: shard A's
// pre-finalize state restores into a fresh server that answers identically.
func TestQueryServerShardedAggregation(t *testing.T) {
	f := newServerFixture(t)
	shardA, err := privmdr.NewQueryServer(f.proto)
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(shardA)
	t.Cleanup(tsA.Close)
	tsB := f.start(t)

	// Disjoint ingestion: shard A gets the first frame, B the rest.
	if code, body := postBody(t, tsA.URL+"/reports", "application/octet-stream", f.shards[0]); code != http.StatusOK {
		t.Fatalf("shard A POST /reports: %d %s", code, body)
	}
	for _, frame := range f.shards[1:] {
		if code, body := postBody(t, tsB.URL+"/reports", "application/octet-stream", frame); code != http.StatusOK {
			t.Fatalf("shard B POST /reports: %d %s", code, body)
		}
	}

	// A pulls B's state and merges it. The JSON view must agree.
	blob := getState(t, tsB.URL)
	st, err := privmdr.DecodeState(blob)
	if err != nil {
		t.Fatal(err)
	}
	var viaJSON privmdr.CollectorState
	getJSON(t, tsB.URL+"/state?format=json", &viaJSON)
	if viaJSON.Received() != st.Received() || viaJSON.Mech != st.Mech {
		t.Fatalf("JSON state (%s, %d) disagrees with binary (%s, %d)",
			viaJSON.Mech, viaJSON.Received(), st.Mech, st.Received())
	}
	if code, body := postBody(t, tsA.URL+"/state", "application/octet-stream", blob); code != http.StatusOK {
		t.Fatalf("shard A POST /state: %d %s", code, body)
	}
	var status privmdr.ServerStatus
	getJSON(t, tsA.URL+"/healthz", &status)
	if status.Received != f.params.N {
		t.Fatalf("merged shard A holds %d reports, want %d", status.Received, f.params.N)
	}

	// Snapshot A's merged state before finalizing, for the restart below.
	snap := filepath.Join(t.TempDir(), "state.bin")
	if err := shardA.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}

	// The merged shard answers bit-identically to the monolithic reference.
	want, err := privmdr.AnswerBatch(f.ref, f.qs)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(privmdr.QueryRequest{Queries: f.qs})
	if err != nil {
		t.Fatal(err)
	}
	queryAnswers := func(url string) []float64 {
		code, payload := postBody(t, url+"/query", "application/json", body)
		if code != http.StatusOK {
			t.Fatalf("POST /query: %d %s", code, payload)
		}
		var qr privmdr.QueryResponse
		if err := json.Unmarshal(payload, &qr); err != nil {
			t.Fatal(err)
		}
		return qr.Answers
	}
	got := queryAnswers(tsA.URL)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d: sharded server %g, monolithic %g", i, got[i], want[i])
		}
	}

	// Finalized shards no longer export or accept state.
	resp, err := http.Get(tsA.URL + "/state")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("GET /state after finalize: %d, want 409", resp.StatusCode)
	}
	if code, _ := postBody(t, tsA.URL+"/state", "application/octet-stream", blob); code != http.StatusConflict {
		t.Fatalf("POST /state after finalize: %d, want 409", code)
	}

	// Warm restart: a fresh server restored from the snapshot answers
	// exactly like the server that wrote it.
	restarted, err := privmdr.NewQueryServer(f.proto)
	if err != nil {
		t.Fatal(err)
	}
	if err := restarted.LoadSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if restarted.Received() != f.params.N {
		t.Fatalf("restored server holds %d reports, want %d", restarted.Received(), f.params.N)
	}
	tsR := httptest.NewServer(restarted)
	t.Cleanup(tsR.Close)
	restored := queryAnswers(tsR.URL)
	for i := range want {
		if restored[i] != want[i] {
			t.Fatalf("query %d after warm restart: %g, want %g", i, restored[i], want[i])
		}
	}
}

// TestQueryServerStateMergeStatuses pins the POST /state status contract:
// 400 for payloads that cannot be decoded, 409 for well-formed states that
// conflict with this deployment.
func TestQueryServerStateMergeStatuses(t *testing.T) {
	f := newServerFixture(t)
	ts := f.start(t)

	// A state from a different deployment (same mechanism, different seed).
	otherParams := f.params
	otherParams.Seed++
	otherProto, err := privmdr.ProtocolByName("HDG", otherParams)
	if err != nil {
		t.Fatal(err)
	}
	otherColl, err := otherProto.NewCollector()
	if err != nil {
		t.Fatal(err)
	}
	otherState, err := otherColl.(privmdr.StatefulCollector).State()
	if err != nil {
		t.Fatal(err)
	}
	otherBlob, err := privmdr.EncodeState(otherState)
	if err != nil {
		t.Fatal(err)
	}
	otherJSON, err := json.Marshal(otherState)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, contentType string
		body              []byte
		want              int
	}{
		{"garbage binary", "application/octet-stream", []byte("not a state"), http.StatusBadRequest},
		{"truncated binary", "application/octet-stream", []byte("PMCS\x01"), http.StatusBadRequest},
		{"garbage JSON", "application/json", []byte(`{"version":`), http.StatusBadRequest},
		{"wrong JSON version", "application/json", []byte(`{"version":99,"mech":"HDG"}`), http.StatusBadRequest},
		{"foreign deployment binary", "application/octet-stream", otherBlob, http.StatusConflict},
		{"foreign deployment JSON", "application/json", otherJSON, http.StatusConflict},
	}
	for _, tc := range cases {
		if code, payload := postBody(t, ts.URL+"/state", tc.contentType, tc.body); code != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, code, payload, tc.want)
		}
	}
	var status privmdr.ServerStatus
	getJSON(t, ts.URL+"/healthz", &status)
	if status.Serving || status.Received != 0 {
		t.Fatalf("rejected merges left status %+v", status)
	}
}

// TestBodyErrStatus pins the error→status mapping the query server answers
// with, through httpapi.Status: oversized bodies 413, lifecycle/deployment
// conflicts 409, a marked estimate failure its mark, everything malformed
// 400.
func TestBodyErrStatus(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"max bytes", &http.MaxBytesError{Limit: 1}, http.StatusRequestEntityTooLarge},
		{"wrapped max bytes", fmt.Errorf("reading frame: %w", &http.MaxBytesError{Limit: 1}), http.StatusRequestEntityTooLarge},
		{"state mismatch", privmdr.ErrStateMismatch, http.StatusConflict},
		{"wrapped state mismatch", fmt.Errorf("mech: state of TDG: %w", privmdr.ErrStateMismatch), http.StatusConflict},
		{"finalized", privmdr.ErrCollectorFinalized, http.StatusConflict},
		{"wrapped finalized", fmt.Errorf("privmdr: %w", privmdr.ErrCollectorFinalized), http.StatusConflict},
		{"marked finalize failure", httpapi.Mark(privmdr.ErrCollectorFinalized, http.StatusInternalServerError), http.StatusInternalServerError},
		{"plain decode error", errors.New("mech: truncated report group"), http.StatusBadRequest},
		{"json syntax error", fmt.Errorf("decoding query batch: %w", errors.New("unexpected EOF")), http.StatusBadRequest},
	}
	for _, tc := range cases {
		if got := httpapi.Status(tc.err); got != tc.want {
			t.Errorf("%s: Status = %d, want %d", tc.name, got, tc.want)
		}
	}
}
