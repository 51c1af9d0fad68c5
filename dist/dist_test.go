package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privmdr"
)

// distDataset is the small every-mechanism deployment the root package's
// live tests use (HIO's 3³ and LHIO's 3·3² group layouts both fit).
func distDataset(t *testing.T, n int) *privmdr.Dataset {
	t.Helper()
	ds, err := privmdr.GenerateDataset("ipums", privmdr.GenOptions{N: n, D: 3, C: 16, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func distWorkload(t *testing.T, d, c int) []privmdr.Query {
	t.Helper()
	qs, err := privmdr.RandomWorkload(6, 2, d, c, 0.5, 41)
	if err != nil {
		t.Fatal(err)
	}
	oneD, err := privmdr.RandomWorkload(3, 1, d, c, 0.5, 42)
	if err != nil {
		t.Fatal(err)
	}
	return append(qs, oneD...)
}

// clientReports runs the client side for every user, in user order.
func clientReports(t *testing.T, proto privmdr.Protocol, ds *privmdr.Dataset) []privmdr.Report {
	t.Helper()
	p := proto.Params()
	reports := make([]privmdr.Report, p.N)
	record := make([]int, p.D)
	for u := 0; u < p.N; u++ {
		a, err := proto.Assignment(u)
		if err != nil {
			t.Fatal(err)
		}
		for i := range record {
			record[i] = ds.Value(i, u)
		}
		reports[u], err = proto.ClientReport(a, record, privmdr.ClientRand(p, u))
		if err != nil {
			t.Fatal(err)
		}
	}
	return reports
}

func postBytes(t *testing.T, url, contentType string, body []byte) (int, []byte) {
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

// ingestHTTP streams reports to a shard tenant in small binary frames.
func ingestHTTP(t *testing.T, baseURL, tenant string, reports []privmdr.Report) {
	t.Helper()
	for at := 0; at < len(reports); at += 100 {
		end := min(at+100, len(reports))
		frame, err := privmdr.EncodeReports(reports[at:end])
		if err != nil {
			t.Fatal(err)
		}
		code, body := postBytes(t, baseURL+"/v1/"+tenant+"/reports", "application/octet-stream", frame)
		if code != http.StatusOK {
			t.Fatalf("POST reports: %d %s", code, body)
		}
	}
}

// TestDistributedTopologyInvariant is the golden-invariant test, per
// mechanism under -race: 3 ingest shards + 1 aggregator + 2 query replicas
// wired over real HTTP, reports partitioned across the shards and shipped
// in several deltas per shard (so the aggregator merges interleaved
// sequences), with an injected aggregator outage that forces the push
// transport to retry, and a replayed duplicate push that must ACK without
// re-applying. After the seal fans out, both replicas must answer the
// workload bit-identically to one monolithic collector that ingested the
// same report multiset.
func TestDistributedTopologyInvariant(t *testing.T) {
	const n = 2100
	ds := distDataset(t, n)
	workload := distWorkload(t, ds.D(), ds.C)
	queryBody, err := json.Marshal(privmdr.QueryRequest{Queries: workload})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range privmdr.Mechanisms() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			t.Parallel()
			p := privmdr.Params{N: n, D: ds.D(), C: ds.C, Eps: 1.0, Seed: 210}
			proto, err := m.Protocol(p)
			if err != nil {
				t.Fatal(err)
			}
			reports := clientReports(t, proto, ds)
			topo := &Topology{Tenants: []TenantConfig{{Name: "census", Mechanism: m.Name(), Params: p}}}

			// Two stateless query replicas.
			var replicaURLs []string
			for i := 0; i < 2; i++ {
				rep, err := NewReplica(topo, ReplicaOptions{})
				if err != nil {
					t.Fatal(err)
				}
				ts := httptest.NewServer(rep)
				t.Cleanup(ts.Close)
				replicaURLs = append(replicaURLs, ts.URL)
			}
			topo.Replicas = replicaURLs

			// The aggregator, behind a middleware that (a) injects one 503
			// outage so a shard's push transport must retry, and (b) records
			// every successful push body so the test can replay them.
			agg, err := NewAggregator(topo, SealOptions{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = agg.Close() })
			var outages atomic.Int32
			outages.Store(1)
			var pushMu sync.Mutex
			var pushed [][]byte
			tsAgg := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPost && r.URL.Path == "/v1/census/push" {
					if outages.Add(-1) >= 0 {
						http.Error(w, "injected outage", http.StatusServiceUnavailable)
						return
					}
					body, err := io.ReadAll(r.Body)
					if err != nil {
						t.Error(err)
						return
					}
					pushMu.Lock()
					pushed = append(pushed, body)
					pushMu.Unlock()
					r.Body = io.NopCloser(bytes.NewReader(body))
				}
				agg.ServeHTTP(w, r)
			}))
			t.Cleanup(tsAgg.Close)
			topo.Aggregator = tsAgg.URL

			// Three ingest shards, manual flushes so the test controls the
			// delta boundaries. Each shard ships two deltas (ingest half,
			// flush, ingest the rest, flush) and the shards flush
			// concurrently, so pushes interleave at the aggregator.
			const nShards = 3
			var wg sync.WaitGroup
			for i := 0; i < nShards; i++ {
				shard, err := NewShard(topo, ShardOptions{ID: fmt.Sprintf("shard-%d", i)})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = shard.Close() })
				ts := httptest.NewServer(shard)
				t.Cleanup(ts.Close)
				part := reports[i*n/nShards : (i+1)*n/nShards]
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					ingestHTTP(t, ts.URL, "census", part[:len(part)/2])
					if _, err := shard.FlushTenant(context.Background(), "census"); err != nil {
						t.Errorf("shard %d first flush: %v", i, err)
						return
					}
					ingestHTTP(t, ts.URL, "census", part[len(part)/2:])
					code, body := postBytes(t, ts.URL+"/v1/census/push", "application/json", nil)
					if code != http.StatusOK {
						t.Errorf("shard %d forced push: %d %s", i, code, body)
						return
					}
					// Empty flush: nothing new, must skip without a push.
					res, err := shard.FlushTenant(context.Background(), "census")
					if err != nil || !res.Skipped {
						t.Errorf("shard %d empty flush: res=%+v err=%v, want skip", i, res, err)
						return
					}
					var hs ShardStatus
					getJSON(t, ts.URL+"/v1/census/healthz", &hs)
					if hs.Pending != 0 || hs.PushedSeq != 2 || hs.LastPushError != "" {
						t.Errorf("shard %d healthz after drain: %+v", i, hs)
					}
				}(i)
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}

			// Every report must have survived the outage, the retries, and
			// the interleaving.
			st, err := agg.State("census")
			if err != nil {
				t.Fatal(err)
			}
			if st.Received() != n {
				t.Fatalf("aggregator merged %d reports, want %d", st.Received(), n)
			}

			// Idempotency: replaying an already-applied envelope (the retry
			// of a push whose ACK was lost) must ACK applied=false and leave
			// the state untouched; a rolled-back sequence must 409.
			pushMu.Lock()
			recorded := append([][]byte(nil), pushed...)
			pushMu.Unlock()
			if len(recorded) != 2*nShards {
				t.Fatalf("recorded %d pushes, want %d", len(recorded), 2*nShards)
			}
			for _, raw := range recorded {
				var env PushEnvelope
				if err := env.UnmarshalBinary(raw); err != nil {
					t.Fatal(err)
				}
				code, body := postBytes(t, tsAgg.URL+"/v1/census/push", "application/octet-stream", raw)
				var ack pushAck
				switch env.Seq {
				case 2: // duplicate of the last applied push
					if code != http.StatusOK {
						t.Fatalf("duplicate push (shard %s seq 2): %d %s", env.Shard, code, body)
					}
					if err := json.Unmarshal(body, &ack); err != nil || ack.Applied {
						t.Fatalf("duplicate push ACK %s: applied must be false (err %v)", body, err)
					}
				case 1: // stale: older than the last applied
					if code != http.StatusConflict {
						t.Fatalf("stale push (shard %s seq 1): %d %s, want 409", env.Shard, code, body)
					}
					if err := json.Unmarshal(body, &ack); err != nil || ack.Last != 2 {
						t.Fatalf("stale push ACK %s: want last=2 (err %v)", body, err)
					}
				default:
					t.Fatalf("unexpected recorded seq %d", env.Seq)
				}
				// A gapped sequence must also 409 and report the resync point.
				env.Seq = 99
				gapped, err := env.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if code, body := postBytes(t, tsAgg.URL+"/v1/census/push", "application/octet-stream", gapped); code != http.StatusConflict {
					t.Fatalf("gapped push: %d %s, want 409", code, body)
				}
			}
			if st2, err := agg.State("census"); err != nil || st2.Received() != n {
				t.Fatalf("replays changed the merged state: %d reports (err %v), want %d", st2.Received(), err, n)
			}

			// Seal the epoch and fan it out to both replicas.
			code, body := postBytes(t, tsAgg.URL+"/v1/census/seal", "application/json", nil)
			if code != http.StatusOK {
				t.Fatalf("POST /seal: %d %s", code, body)
			}
			var sr SealResult
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatal(err)
			}
			if !sr.Sealed || sr.Epoch != 1 || sr.Reports != n || sr.Fanout != 2 || len(sr.Errors) > 0 {
				t.Fatalf("seal result %+v, want sealed epoch 1 over %d reports on 2 replicas", sr, n)
			}
			// A re-seal with nothing new must not mint an epoch.
			if code, body = postBytes(t, tsAgg.URL+"/v1/census/seal", "application/json", nil); code != http.StatusOK {
				t.Fatalf("second POST /seal: %d %s", code, body)
			}
			if err := json.Unmarshal(body, &sr); err != nil || sr.Sealed || sr.Epoch != 1 {
				t.Fatalf("idle re-seal %+v (err %v), want unsealed at epoch 1", sr, err)
			}

			// The invariant: both replicas answer bit-identically to one
			// monolithic collector over the same report multiset.
			mono, err := proto.NewCollector()
			if err != nil {
				t.Fatal(err)
			}
			if err := mono.SubmitBatch(reports); err != nil {
				t.Fatal(err)
			}
			est, err := mono.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			want, err := privmdr.AnswerBatch(est, workload)
			if err != nil {
				t.Fatal(err)
			}
			for r, base := range replicaURLs {
				var hs ReplicaStatus
				getJSON(t, base+"/v1/census/healthz", &hs)
				if !hs.Serving || hs.Epoch != 1 || hs.EstimatorReports != n {
					t.Fatalf("replica %d healthz %+v, want serving epoch 1 over %d reports", r, hs, n)
				}
				code, payload := postBytes(t, base+"/v1/census/query", "application/json", queryBody)
				if code != http.StatusOK {
					t.Fatalf("replica %d query: %d %s", r, code, payload)
				}
				var qr privmdr.QueryResponse
				if err := json.Unmarshal(payload, &qr); err != nil {
					t.Fatal(err)
				}
				if len(qr.Answers) != len(want) {
					t.Fatalf("replica %d answered %d queries, want %d", r, len(qr.Answers), len(want))
				}
				for q := range want {
					if qr.Answers[q] != want[q] {
						t.Fatalf("replica %d query %d: %v != monolithic %v", r, q, qr.Answers[q], want[q])
					}
				}
			}
		})
	}
}

// TestShardRebaseline restarts the aggregator underneath a shard: the
// replacement has no history for the shard (last == 0), so the shard's next
// push 409s with a gap — and the shard must transparently re-baseline,
// shipping its full cumulative state as sequence 1. The rebuilt aggregator
// must end up with the exact report count.
func TestShardRebaseline(t *testing.T) {
	p := privmdr.Params{N: 600, D: 3, C: 16, Eps: 1.0, Seed: 210}
	topo := &Topology{Tenants: []TenantConfig{{Name: "census", Mechanism: "Uni", Params: p}}}
	proto, err := privmdr.ProtocolByName("Uni", p)
	if err != nil {
		t.Fatal(err)
	}
	ds := distDataset(t, p.N)
	reports := clientReports(t, proto, ds)

	var cur atomic.Pointer[Aggregator]
	tsAgg := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Load().ServeHTTP(w, r)
	}))
	t.Cleanup(tsAgg.Close)
	topo.Aggregator = tsAgg.URL
	agg1, err := NewAggregator(topo, SealOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = agg1.Close() })
	cur.Store(agg1)

	shard, err := NewShard(topo, ShardOptions{ID: "edge-1"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = shard.Close() })
	qs, _ := shard.Tenant("census")
	if err := qs.SubmitBatch(reports[:400]); err != nil {
		t.Fatal(err)
	}
	if res, err := shard.FlushTenant(context.Background(), "census"); err != nil || res.Seq != 1 {
		t.Fatalf("first flush: %+v, %v", res, err)
	}

	// The aggregator dies and restarts empty.
	agg2, err := NewAggregator(topo, SealOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = agg2.Close() })
	cur.Store(agg2)

	if err := qs.SubmitBatch(reports[400:]); err != nil {
		t.Fatal(err)
	}
	res, err := shard.FlushTenant(context.Background(), "census")
	if err != nil {
		t.Fatalf("re-baseline flush: %v", err)
	}
	if res.Seq != 1 || res.Reports != len(reports) {
		t.Fatalf("re-baseline flush %+v, want cumulative %d reports at seq 1", res, len(reports))
	}
	st, err := agg2.State("census")
	if err != nil {
		t.Fatal(err)
	}
	if st.Received() != len(reports) {
		t.Fatalf("rebuilt aggregator has %d reports, want %d", st.Received(), len(reports))
	}
}

// TestShardPushFrozenAcrossLostACK pins the applied-but-ACK-lost contract:
// the aggregator applies a push but every transport attempt's response is
// lost, so the shard's push() fails — and reports keep arriving before the
// retry. The retry must resend the original envelope byte-identically (the
// aggregator duplicate-ACKs it without re-merging) and advance lastPushed
// only to the frozen snapshot, so the interim reports still ship in the
// next delta. A recomputed delta under the same sequence number would lose
// them silently.
func TestShardPushFrozenAcrossLostACK(t *testing.T) {
	p := privmdr.Params{N: 900, D: 3, C: 16, Eps: 1.0, Seed: 210}
	topo := &Topology{Tenants: []TenantConfig{{Name: "census", Mechanism: "Uni", Params: p}}}
	proto, err := privmdr.ProtocolByName("Uni", p)
	if err != nil {
		t.Fatal(err)
	}
	reports := clientReports(t, proto, distDataset(t, p.N))

	agg, err := NewAggregator(topo, SealOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = agg.Close() })
	// loseACKs makes the middleware let the aggregator process each push
	// normally and then discard its response, answering 503 — the
	// applied-but-ACK-lost failure.
	var loseACKs atomic.Bool
	tsAgg := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if loseACKs.Load() && r.Method == http.MethodPost && r.URL.Path == "/v1/census/push" {
			rec := httptest.NewRecorder()
			agg.ServeHTTP(rec, r)
			http.Error(w, "injected ACK loss", http.StatusServiceUnavailable)
			return
		}
		agg.ServeHTTP(w, r)
	}))
	t.Cleanup(tsAgg.Close)
	topo.Aggregator = tsAgg.URL

	shard, err := NewShard(topo, ShardOptions{ID: "edge-1"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = shard.Close() })
	qs, _ := shard.Tenant("census")

	if err := qs.SubmitBatch(reports[:300]); err != nil {
		t.Fatal(err)
	}
	if res, err := shard.FlushTenant(context.Background(), "census"); err != nil || res.Seq != 1 {
		t.Fatalf("first flush: %+v, %v", res, err)
	}

	// The aggregator applies seq 2 (300 more reports) but every ACK is lost.
	if err := qs.SubmitBatch(reports[300:600]); err != nil {
		t.Fatal(err)
	}
	loseACKs.Store(true)
	if _, err := shard.FlushTenant(context.Background(), "census"); err == nil {
		t.Fatal("flush with all ACKs lost: want transport error")
	}
	if st, err := agg.State("census"); err != nil || st.Received() != 600 {
		t.Fatalf("aggregator after lost ACK: %d reports (err %v), want 600 applied", st.Received(), err)
	}

	// Interim reports arrive before the retry succeeds.
	if err := qs.SubmitBatch(reports[600:]); err != nil {
		t.Fatal(err)
	}
	loseACKs.Store(false)
	res, err := shard.FlushTenant(context.Background(), "census")
	if err != nil {
		t.Fatalf("retry flush: %v", err)
	}
	if res.Seq != 2 || res.Reports != 300 || res.Skipped {
		t.Fatalf("retry flush %+v, want the frozen 300-report delta acknowledged at seq 2", res)
	}
	if res, err = shard.FlushTenant(context.Background(), "census"); err != nil || res.Seq != 3 || res.Reports != 300 {
		t.Fatalf("follow-up flush %+v (err %v), want the interim 300 reports at seq 3", res, err)
	}

	st, err := agg.State("census")
	if err != nil {
		t.Fatal(err)
	}
	if st.Received() != p.N {
		t.Fatalf("aggregator merged %d reports, want %d — interim reports were lost", st.Received(), p.N)
	}
	tsShard := httptest.NewServer(shard)
	t.Cleanup(tsShard.Close)
	var hs ShardStatus
	getJSON(t, tsShard.URL+"/v1/census/healthz", &hs)
	if hs.Pending != 0 || hs.PushedSeq != 3 || hs.LastPushError != "" {
		t.Fatalf("healthz after drain: %+v", hs)
	}
}

// TestShardRestartSameID pins the restart contract: a shard process dies and
// a replacement with the same stable ID (but empty in-memory state and a
// fresh instance nonce) starts pushing from sequence 1 again. The aggregator
// must treat the new incarnation's deltas as fresh reports — not
// duplicate-ACK them against the dead incarnation's history (silent drop)
// and not wedge it on ErrStaleSeq.
func TestShardRestartSameID(t *testing.T) {
	p := privmdr.Params{N: 600, D: 3, C: 16, Eps: 1.0, Seed: 210}
	topo := &Topology{Tenants: []TenantConfig{{Name: "census", Mechanism: "Uni", Params: p}}}
	proto, err := privmdr.ProtocolByName("Uni", p)
	if err != nil {
		t.Fatal(err)
	}
	reports := clientReports(t, proto, distDataset(t, p.N))

	agg, err := NewAggregator(topo, SealOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = agg.Close() })
	tsAgg := httptest.NewServer(agg)
	t.Cleanup(tsAgg.Close)
	topo.Aggregator = tsAgg.URL

	shard1, err := NewShard(topo, ShardOptions{ID: "edge-1"})
	if err != nil {
		t.Fatal(err)
	}
	qs, _ := shard1.Tenant("census")
	if err := qs.SubmitBatch(reports[:400]); err != nil {
		t.Fatal(err)
	}
	if res, err := shard1.FlushTenant(context.Background(), "census"); err != nil || res.Seq != 1 {
		t.Fatalf("first incarnation flush: %+v, %v", res, err)
	}
	if err := shard1.Close(); err != nil {
		t.Fatal(err)
	}

	// The replacement only ever sees reports that arrived after the restart.
	shard2, err := NewShard(topo, ShardOptions{ID: "edge-1"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = shard2.Close() })
	qs2, _ := shard2.Tenant("census")
	if err := qs2.SubmitBatch(reports[400:]); err != nil {
		t.Fatal(err)
	}
	res, err := shard2.FlushTenant(context.Background(), "census")
	if err != nil {
		t.Fatalf("restarted incarnation flush: %v", err)
	}
	if res.Seq != 1 || res.Reports != 200 || res.Skipped {
		t.Fatalf("restarted incarnation flush %+v, want 200 fresh reports applied at seq 1", res)
	}
	st, err := agg.State("census")
	if err != nil {
		t.Fatal(err)
	}
	if st.Received() != p.N {
		t.Fatalf("aggregator merged %d reports across the restart, want %d", st.Received(), p.N)
	}
}

// TestShardIDConflict pins the duplicate-shard-ID contract: once a second
// live instance takes over a shard ID (its seq-1 push replaces the cursor),
// the first instance's mid-sequence pushes must be rejected with
// ErrShardConflict — loudly, in the returned error and healthz — and must
// not corrupt the merged state.
func TestShardIDConflict(t *testing.T) {
	p := privmdr.Params{N: 300, D: 3, C: 16, Eps: 1.0, Seed: 210}
	topo := &Topology{Tenants: []TenantConfig{{Name: "census", Mechanism: "Uni", Params: p}}}
	proto, err := privmdr.ProtocolByName("Uni", p)
	if err != nil {
		t.Fatal(err)
	}
	reports := clientReports(t, proto, distDataset(t, p.N))

	agg, err := NewAggregator(topo, SealOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = agg.Close() })
	tsAgg := httptest.NewServer(agg)
	t.Cleanup(tsAgg.Close)
	topo.Aggregator = tsAgg.URL

	newShard := func() (*Shard, *privmdr.QueryServer) {
		t.Helper()
		sh, err := NewShard(topo, ShardOptions{ID: "edge-1"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = sh.Close() })
		qs, _ := sh.Tenant("census")
		return sh, qs
	}
	shardA, qsA := newShard()
	shardB, qsB := newShard()

	if err := qsA.SubmitBatch(reports[:100]); err != nil {
		t.Fatal(err)
	}
	if _, err := shardA.FlushTenant(context.Background(), "census"); err != nil {
		t.Fatal(err)
	}
	// B usurps the cursor with its own seq 1.
	if err := qsB.SubmitBatch(reports[100:200]); err != nil {
		t.Fatal(err)
	}
	if _, err := shardB.FlushTenant(context.Background(), "census"); err != nil {
		t.Fatal(err)
	}
	// A's next delta (seq 2 under the old nonce) must conflict.
	if err := qsA.SubmitBatch(reports[200:]); err != nil {
		t.Fatal(err)
	}
	if _, err := shardA.FlushTenant(context.Background(), "census"); !errors.Is(err, ErrShardConflict) {
		t.Fatalf("usurped shard flush: %v, want ErrShardConflict", err)
	}
	st, err := agg.State("census")
	if err != nil {
		t.Fatal(err)
	}
	if st.Received() != 200 {
		t.Fatalf("aggregator merged %d reports, want 200 (the conflicting delta must not merge)", st.Received())
	}
	ts := httptest.NewServer(shardA)
	t.Cleanup(ts.Close)
	var hs ShardStatus
	getJSON(t, ts.URL+"/v1/census/healthz", &hs)
	if hs.LastPushError == "" {
		t.Fatal("shard healthz hides the ID conflict")
	}
}

// TestThresholdSealAsync pins the threshold-seal execution model: an applied
// push that reaches MinNewReports seals and fans out in the background — the
// push ACK returns first, and the fan-out survives the push connection going
// away — and Aggregator.Close drains the in-flight seal.
func TestThresholdSealAsync(t *testing.T) {
	p := privmdr.Params{N: 200, D: 3, C: 16, Eps: 1.0, Seed: 210}
	topo := &Topology{Tenants: []TenantConfig{{Name: "census", Mechanism: "Uni", Params: p}}}
	proto, err := privmdr.ProtocolByName("Uni", p)
	if err != nil {
		t.Fatal(err)
	}
	reports := clientReports(t, proto, distDataset(t, p.N))

	rep, err := NewReplica(topo, ReplicaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tsRep := httptest.NewServer(rep)
	t.Cleanup(tsRep.Close)
	topo.Replicas = []string{tsRep.URL}

	agg, err := NewAggregator(topo, SealOptions{MinNewReports: 1})
	if err != nil {
		t.Fatal(err)
	}
	tsAgg := httptest.NewServer(agg)
	t.Cleanup(tsAgg.Close)
	topo.Aggregator = tsAgg.URL

	shard, err := NewShard(topo, ShardOptions{ID: "edge-1"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = shard.Close() })
	qs, _ := shard.Tenant("census")
	if err := qs.SubmitBatch(reports); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.FlushTenant(context.Background(), "census"); err != nil {
		t.Fatal(err)
	}

	// The seal runs detached from the push request; wait for it to land.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var hs ReplicaStatus
		getJSON(t, tsRep.URL+"/v1/census/healthz", &hs)
		if hs.Serving && hs.Epoch >= 1 && hs.EstimatorReports == p.N {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never received the threshold-sealed epoch: %+v", hs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Close must drain any still-running seal goroutines (the HTTP server
	// shut first, matching the production order).
	tsAgg.Close()
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaEpochOrdering pins the replica's install protocol: epoch
// pushes must be strictly newer than the serving epoch (repeats and
// rollbacks 409 with ErrStaleEpoch), bare un-stamped states are rejected,
// and queries before the first install 503.
func TestReplicaEpochOrdering(t *testing.T) {
	p := privmdr.Params{N: 10, D: 3, C: 16, Eps: 1.0, Seed: 210}
	topo := &Topology{Tenants: []TenantConfig{{Name: "census", Mechanism: "Uni", Params: p}}}
	rep, err := NewReplica(topo, ReplicaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rep)
	t.Cleanup(ts.Close)

	queryBody, err := json.Marshal(privmdr.QueryRequest{Queries: []privmdr.Query{{{Attr: 0, Lo: 0, Hi: 3}}}})
	if err != nil {
		t.Fatal(err)
	}
	if code, body := postBytes(t, ts.URL+"/v1/census/query", "application/json", queryBody); code != http.StatusServiceUnavailable {
		t.Fatalf("query before first epoch: %d %s, want 503", code, body)
	}

	proto, err := privmdr.ProtocolByName("Uni", p)
	if err != nil {
		t.Fatal(err)
	}
	coll, err := proto.NewCollector()
	if err != nil {
		t.Fatal(err)
	}
	st, err := coll.(privmdr.StatefulCollector).State()
	if err != nil {
		t.Fatal(err)
	}

	// A bare (un-stamped) state cannot be ordered and must be rejected.
	bare, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if code, body := postBytes(t, ts.URL+"/v1/census/epoch", "application/octet-stream", bare); code != http.StatusBadRequest {
		t.Fatalf("bare state push: %d %s, want 400", code, body)
	}

	sealed, err := privmdr.EncodeSnapshot(st, 3)
	if err != nil {
		t.Fatal(err)
	}
	if code, body := postBytes(t, ts.URL+"/v1/census/epoch", "application/octet-stream", sealed); code != http.StatusOK {
		t.Fatalf("epoch 3 install: %d %s", code, body)
	}
	// The same epoch again — a repeated fan-out — must 409, not regress.
	if code, body := postBytes(t, ts.URL+"/v1/census/epoch", "application/octet-stream", sealed); code != http.StatusConflict {
		t.Fatalf("repeated epoch 3 install: %d %s, want 409", code, body)
	}
	if err := rep.Install("census", st, 2); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("epoch rollback: %v, want ErrStaleEpoch", err)
	}
	if code, body := postBytes(t, ts.URL+"/v1/census/query", "application/json", queryBody); code != http.StatusOK {
		t.Fatalf("query after install: %d %s", code, body)
	}

	// Garbage and wrong-deployment payloads.
	if code, _ := postBytes(t, ts.URL+"/v1/census/epoch", "application/octet-stream", []byte("junk")); code != http.StatusBadRequest {
		t.Fatalf("junk epoch push: %d, want 400", code)
	}
	foreign, err := privmdr.ProtocolByName("Uni", privmdr.Params{N: 10, D: 3, C: 16, Eps: 1.0, Seed: 999})
	if err != nil {
		t.Fatal(err)
	}
	fcoll, err := foreign.NewCollector()
	if err != nil {
		t.Fatal(err)
	}
	fst, err := fcoll.(privmdr.StatefulCollector).State()
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := privmdr.EncodeSnapshot(fst, 9)
	if err != nil {
		t.Fatal(err)
	}
	if code, body := postBytes(t, ts.URL+"/v1/census/epoch", "application/octet-stream", wrong); code != http.StatusConflict {
		t.Fatalf("foreign-deployment epoch push: %d %s, want 409 (ErrStateMismatch)", code, body)
	}
}

// bodyCap is the request-body cap PROTOCOL.md documents for every role.
const bodyCap = 64 << 20

// statusRow is one request of the status contract and the reply it must
// get: the status, and the body byte for byte — or only its prefix where
// the rest names a port or an operating-system error.
type statusRow struct {
	name   string
	route  string // "METHOD /path"
	body   func() io.Reader
	status int
	want   string
	prefix bool
}

// serveRows sends the rows to h in order, since a row may rely on the ones
// before it (a finalize, an applied push), and checks each reply.
func serveRows(t *testing.T, h http.Handler, rows []statusRow) {
	t.Helper()
	for _, row := range rows {
		method, path, _ := strings.Cut(row.route, " ")
		var body io.Reader = http.NoBody
		if row.body != nil {
			body = row.body()
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, body))
		got := rec.Body.String()
		match := got == row.want
		if row.prefix {
			match = strings.HasPrefix(got, row.want)
		}
		if rec.Code != row.status || !match {
			t.Errorf("%s (%s): %d %q, want %d %q", row.name, row.route, rec.Code, got, row.status, row.want)
		}
	}
}

// errJSON is the error body every role writes: {"error": msg} and a
// newline, JSON-escaped.
func errJSON(t *testing.T, msg string) string {
	t.Helper()
	b, err := json.Marshal(map[string]string{"error": msg})
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

func blob(b []byte) func() io.Reader {
	return func() io.Reader { return bytes.NewReader(b) }
}

// overCap streams one byte past the body cap without holding it in memory.
func overCap() io.Reader { return io.LimitReader(blanks{}, bodyCap+1) }

// blanks is an endless source of spaces. It copies a whole block per read,
// so streaming past the cap stays fast under the race detector.
type blanks struct{}

var blankBlock = bytes.Repeat([]byte{' '}, 32<<10)

func (blanks) Read(p []byte) (int, error) { return copy(p, blankBlock), nil }

// unknownTenantRows asks every route for a tenant outside the topology;
// every role answers the same 404.
func unknownTenantRows(routes ...string) []statusRow {
	rows := make([]statusRow, len(routes))
	for i, route := range routes {
		method, path, _ := strings.Cut(route, " ")
		rows[i] = statusRow{"unknown tenant", method + " /v1/nosuch" + path, text("{}"), http.StatusNotFound,
			`{"error":"dist: unknown tenant \"nosuch\""}` + "\n", false}
	}
	return rows
}

// TestStatusContract pins, per serving role, one request for each status
// PROTOCOL.md documents for it — 400, 404, 409, 413, 502 and 503 — with the
// exact body the role answers. Clients act on these statuses: a shard
// retries a 5xx, re-baselines on a 409 with last == 0 and stops on a shard
// conflict, so a misfiled status loses or double-counts reports.
func TestStatusContract(t *testing.T) {
	p := privmdr.Params{N: 300, D: 3, C: 16, Eps: 1.0, Seed: 210}
	topo := &Topology{Tenants: []TenantConfig{{Name: "census", Mechanism: "Uni", Params: p}}}
	proto, err := privmdr.ProtocolByName("Uni", p)
	if err != nil {
		t.Fatal(err)
	}
	reports := clientReports(t, proto, distDataset(t, p.N))
	frame, err := privmdr.EncodeReports(reports[:10])
	if err != nil {
		t.Fatal(err)
	}
	stateOf := func(proto privmdr.Protocol, rs []privmdr.Report) privmdr.CollectorState {
		t.Helper()
		coll, err := proto.NewCollector()
		if err != nil {
			t.Fatal(err)
		}
		if err := coll.SubmitBatch(rs); err != nil {
			t.Fatal(err)
		}
		st, err := coll.(privmdr.StatefulCollector).State()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	foreignProto, err := privmdr.ProtocolByName("Uni", privmdr.Params{N: 300, D: 3, C: 16, Eps: 1.0, Seed: 999})
	if err != nil {
		t.Fatal(err)
	}
	foreign := stateOf(foreignProto, nil)
	foreignBlob, err := foreign.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ownBlob, err := stateOf(proto, nil).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	const mismatch = `mech: state of Uni deployment {N:300 D:3 C:16 Eps:1 Seed:999} cannot merge into Uni deployment {N:300 D:3 C:16 Eps:1 Seed:210}: collector state mismatch`
	const finalized = "mech: collector already finalized"

	t.Run("QueryServer finalize-once", func(t *testing.T) {
		qs, err := privmdr.NewQueryServer(proto)
		if err != nil {
			t.Fatal(err)
		}
		serveRows(t, qs, []statusRow{
			{"malformed frame", "POST /reports", text("junk"), http.StatusBadRequest,
				errJSON(t, "mech: batch claims 106 reports but only 3 bytes follow"), false},
			{"frame over the cap", "POST /reports", overCap, http.StatusRequestEntityTooLarge,
				errJSON(t, "reading frame: http: request body too large"), false},
			{"malformed state", "POST /state", text("junk"), http.StatusBadRequest,
				errJSON(t, "mech: collector state truncated at header"), false},
			{"foreign deployment", "POST /state", blob(foreignBlob), http.StatusConflict, errJSON(t, mismatch), false},
			{"malformed query", "POST /query", text("junk"), http.StatusBadRequest,
				errJSON(t, "decoding query batch: invalid character 'j' looking for beginning of value"), false},
			{"refresh on a finalize-once server", "POST /refresh", nil, http.StatusConflict,
				errJSON(t, "refresh requires live mode (privmdr serve -refresh); POST /finalize is this server's only transition"), false},
			{"finalize", "POST /finalize", nil, http.StatusOK, `{"finalized":true,"received":0}` + "\n", false},
			{"reports after finalize", "POST /reports", blob(frame), http.StatusConflict,
				errJSON(t, "server already finalized; reports are no longer accepted"), false},
			{"state after finalize", "GET /state", nil, http.StatusConflict, errJSON(t, finalized), false},
			{"merge after finalize", "POST /state", blob(ownBlob), http.StatusConflict, errJSON(t, finalized), false},
		})
	})

	t.Run("QueryServer live", func(t *testing.T) {
		qs, err := privmdr.NewLiveQueryServer(proto, privmdr.LiveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = qs.Close() })
		serveRows(t, qs, []statusRow{
			{"frame", "POST /reports", blob(frame), http.StatusOK, `{"accepted":10,"received":10}` + "\n", false},
			{"malformed query", "POST /query", text("{}"), http.StatusBadRequest, errJSON(t, "query batch is empty"), false},
			{"finalize", "POST /finalize", nil, http.StatusOK, `{"finalized":true,"received":10}` + "\n", false},
			{"refresh after finalize", "POST /refresh", nil, http.StatusConflict,
				errJSON(t, "privmdr: server already finalized: collector already finalized"), false},
			{"reports after finalize", "POST /reports", blob(frame), http.StatusConflict,
				errJSON(t, "server already finalized; reports are no longer accepted"), false},
		})
	})

	t.Run("TenantServer", func(t *testing.T) {
		srv, err := NewTenantServer(topo, privmdr.LiveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		// The tenant server routes every method and path under a tenant.
		rows := unknownTenantRows("GET /healthz", "POST /query", "DELETE /any/deeper/path")
		serveRows(t, srv, append(rows, []statusRow{
			{"malformed frame", "POST /v1/census/reports", text("junk"), http.StatusBadRequest,
				errJSON(t, "mech: batch claims 106 reports but only 3 bytes follow"), false},
			{"frame over the cap", "POST /v1/census/reports", overCap, http.StatusRequestEntityTooLarge,
				errJSON(t, "reading frame: http: request body too large"), false},
			{"malformed query", "POST /v1/census/query", text("junk"), http.StatusBadRequest,
				errJSON(t, "decoding query batch: invalid character 'j' looking for beginning of value"), false},
			{"finalize", "POST /v1/census/finalize", nil, http.StatusOK, `{"finalized":true,"received":0}` + "\n", false},
			{"reports after finalize", "POST /v1/census/reports", blob(frame), http.StatusConflict,
				errJSON(t, "server already finalized; reports are no longer accepted"), false},
		}...))
	})

	t.Run("Aggregator", func(t *testing.T) {
		agg, err := NewAggregator(topo, SealOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = agg.Close() })
		delta := stateOf(proto, reports[:10])
		push := func(nonce, seq uint64, delta privmdr.CollectorState) func() io.Reader {
			b, err := PushEnvelope{Shard: "edge-1", Nonce: nonce, Seq: seq, Delta: delta}.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			return blob(b)
		}
		rows := unknownTenantRows("POST /push", "POST /seal", "GET /state", "GET /epoch/latest", "GET /params", "GET /healthz")
		serveRows(t, agg, append(rows, []statusRow{
			{"nothing sealed yet", "GET /v1/census/epoch/latest", nil, http.StatusNotFound,
				errJSON(t, `dist: tenant "census" has no sealed epoch yet`), false},
			{"malformed envelope", "POST /v1/census/push", text("junk"), http.StatusBadRequest,
				errJSON(t, "dist: push envelope truncated at header"), false},
			{"envelope over the cap", "POST /v1/census/push", overCap, http.StatusRequestEntityTooLarge,
				errJSON(t, "http: request body too large"), false},
			{"seq 1", "POST /v1/census/push", push(7, 1, delta), http.StatusOK, `{"applied":true,"last":1}` + "\n", false},
			{"duplicate seq 1", "POST /v1/census/push", push(7, 1, delta), http.StatusOK, `{"applied":false,"last":1}` + "\n", false},
			{"gap", "POST /v1/census/push", push(7, 3, delta), http.StatusConflict,
				`{"applied":false,"last":1,"code":"gap","error":"dist: shard \"edge-1\" pushed seq 3, last applied 1: dist: push sequence number skips ahead"}` + "\n", false},
			{"seq 2", "POST /v1/census/push", push(7, 2, delta), http.StatusOK, `{"applied":true,"last":2}` + "\n", false},
			{"stale seq", "POST /v1/census/push", push(7, 1, delta), http.StatusConflict,
				`{"applied":false,"last":2,"code":"stale","error":"dist: shard \"edge-1\" pushed seq 1, last applied 2: dist: push sequence number is stale"}` + "\n", false},
			{"shard conflict", "POST /v1/census/push", push(8, 3, delta), http.StatusConflict,
				`{"applied":false,"last":2,"code":"conflict","error":"dist: shard \"edge-1\" pushed seq 3 under a new instance nonce (last applied 2 from a previous instance — restarted shard or duplicate shard ID): dist: shard instance conflicts with applied push history"}` + "\n", false},
			{"foreign deployment", "POST /v1/census/push", push(7, 3, foreign), http.StatusConflict,
				`{"applied":false,"last":2,"error":"` + mismatch + `"}` + "\n", false},
			{"seal", "POST /v1/census/seal", nil, http.StatusOK,
				`{"tenant":"census","sealed":true,"epoch":1,"reports":20,"fanout":0}` + "\n", false},
		}...))
	})

	t.Run("Replica", func(t *testing.T) {
		rep, err := NewReplica(topo, ReplicaOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = rep.Close() })
		sealed, err := privmdr.EncodeSnapshot(stateOf(proto, reports[:10]), 3)
		if err != nil {
			t.Fatal(err)
		}
		foreignSealed, err := privmdr.EncodeSnapshot(foreign, 9)
		if err != nil {
			t.Fatal(err)
		}
		rows := unknownTenantRows("POST /epoch", "POST /query", "GET /params", "GET /healthz")
		serveRows(t, rep, append(rows, []statusRow{
			{"query before the first install", "POST /v1/census/query", text("junk"), http.StatusServiceUnavailable,
				errJSON(t, "dist: no epoch installed yet; waiting for the aggregator's first seal"), false},
			{"malformed epoch", "POST /v1/census/epoch", text("junk"), http.StatusBadRequest,
				errJSON(t, "mech: collector state truncated at header"), false},
			{"bare state", "POST /v1/census/epoch", blob(ownBlob), http.StatusBadRequest,
				errJSON(t, "dist: epoch push carries no epoch stamp (bare state?)"), false},
			{"epoch over the cap", "POST /v1/census/epoch", overCap, http.StatusRequestEntityTooLarge,
				errJSON(t, "http: request body too large"), false},
			{"epoch 3", "POST /v1/census/epoch", blob(sealed), http.StatusOK, `{"epoch":3,"reports":10}` + "\n", false},
			{"stale epoch", "POST /v1/census/epoch", blob(sealed), http.StatusConflict,
				errJSON(t, "dist: pushed epoch 3, serving epoch 3: dist: epoch is not newer than the serving epoch"), false},
			{"foreign deployment", "POST /v1/census/epoch", blob(foreignSealed), http.StatusConflict, errJSON(t, mismatch), false},
			{"malformed query", "POST /v1/census/query", text("junk"), http.StatusBadRequest,
				errJSON(t, "decoding query batch: invalid character 'j' looking for beginning of value"), false},
		}...))
	})

	t.Run("Shard", func(t *testing.T) {
		agg, err := NewAggregator(topo, SealOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = agg.Close() })
		tsAgg := httptest.NewServer(agg)
		t.Cleanup(tsAgg.Close)
		newShard := func(aggURL string) (*Shard, *privmdr.QueryServer) {
			t.Helper()
			sh, err := NewShard(topo, ShardOptions{ID: "edge-1", Aggregator: aggURL, Timeout: 2 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = sh.Close() })
			qs, _ := sh.Tenant("census")
			return sh, qs
		}
		// B takes over edge-1's cursor at the aggregator, so A's next push
		// conflicts.
		shardA, qsA := newShard(tsAgg.URL)
		shardB, qsB := newShard(tsAgg.URL)
		for _, step := range []struct {
			sh *Shard
			qs *privmdr.QueryServer
			rs []privmdr.Report
		}{{shardA, qsA, reports[:100]}, {shardB, qsB, reports[100:200]}} {
			if err := step.qs.SubmitBatch(step.rs); err != nil {
				t.Fatal(err)
			}
			if _, err := step.sh.FlushTenant(context.Background(), "census"); err != nil {
				t.Fatal(err)
			}
		}
		if err := qsA.SubmitBatch(reports[200:]); err != nil {
			t.Fatal(err)
		}
		rows := unknownTenantRows("POST /reports", "GET /params", "GET /state", "GET /healthz", "POST /push")
		serveRows(t, shardA, append(rows, []statusRow{
			{"malformed frame", "POST /v1/census/reports", text("junk"), http.StatusBadRequest,
				errJSON(t, "mech: batch claims 106 reports but only 3 bytes follow"), false},
			{"frame over the cap", "POST /v1/census/reports", overCap, http.StatusRequestEntityTooLarge,
				errJSON(t, "reading frame: http: request body too large"), false},
			{"shard conflict", "POST /v1/census/push", nil, http.StatusConflict,
				errJSON(t, "dist: push seq 2: dist: shard instance conflicts with applied push history — aggregator said: "+
					`dist: shard "edge-1" pushed seq 2 under a new instance nonce (last applied 1 from a previous instance — restarted shard or duplicate shard ID): dist: shard instance conflicts with applied push history`), false},
		}...))

		// With the aggregator down, the transport gives up and the push is
		// the aggregator leg's failure.
		dead := httptest.NewServer(http.NotFoundHandler())
		deadURL := dead.URL
		dead.Close()
		shardC, qsC := newShard(deadURL)
		if err := qsC.SubmitBatch(reports[:100]); err != nil {
			t.Fatal(err)
		}
		serveRows(t, shardC, []statusRow{
			{"aggregator down", "POST /v1/census/push", nil, http.StatusBadGateway,
				`{"error":"dist: ` + deadURL + `/v1/census/push unreachable after 4 attempts: `, true},
		})
	})

	// A push the aggregator cannot journal is a 503: nothing merges, no
	// cursor moves, and the shard's frozen envelope lands exactly once when
	// the journal works again.
	t.Run("Aggregator journal failure", func(t *testing.T) {
		dir := t.TempDir()
		agg, err := NewAggregator(topo, SealOptions{DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		tsAgg := httptest.NewServer(agg)
		t.Cleanup(tsAgg.Close)
		shard, err := NewShard(topo, ShardOptions{ID: "edge-1", Aggregator: tsAgg.URL, Timeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = shard.Close() })
		qs, _ := shard.Tenant("census")
		if err := qs.SubmitBatch(reports[:100]); err != nil {
			t.Fatal(err)
		}
		if _, err := shard.FlushTenant(context.Background(), "census"); err != nil {
			t.Fatal(err)
		}
		if err := qs.SubmitBatch(reports[100:200]); err != nil {
			t.Fatal(err)
		}

		j := agg.tenants["census"].store.j
		j.mu.Lock()
		if err := j.f.Close(); err != nil {
			t.Fatal(err)
		}
		j.mu.Unlock()
		journalErr := errJSON(t, "dist: journal: write "+j.path+": file already closed")
		url := tsAgg.URL + "/v1/census/push"
		healthz := func(received int, seq int) string {
			return fmt.Sprintf(`{"role":"aggregator","tenant":"census","mechanism":"Uni","received":%d,"epoch":0,"sealed_reports":0,"staleness":%d,"shards":{"edge-1":%d},"durable":true}`+"\n",
				received, received, seq)
		}
		serveRows(t, shard, []statusRow{
			{"push while the journal fails", "POST /v1/census/push", nil, http.StatusBadGateway,
				errJSON(t, "dist: "+url+" failed after 4 attempts: 503 "+journalErr), false},
		})
		frozen, err := shard.tenants["census"].inflight.env.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		serveRows(t, agg, []statusRow{
			{"journal append fails", "POST /v1/census/push", blob(frozen), http.StatusServiceUnavailable, journalErr, false},
			{"nothing merged, cursor unmoved", "GET /v1/census/healthz", nil, http.StatusOK, healthz(100, 1), false},
		})
		if st := shard.status(shard.tenants["census"]); st.PushedSeq != 1 || st.Pending != 100 {
			t.Fatalf("shard after the failed push: %+v, want seq 1 with 100 pending", st)
		}

		j.mu.Lock()
		f, err := os.OpenFile(j.path, os.O_RDWR, 0)
		if err == nil {
			_, err = f.Seek(j.size, io.SeekStart)
		}
		j.f = f
		j.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if res, err := shard.FlushTenant(context.Background(), "census"); err != nil || res.Seq != 2 || res.Reports != 100 {
			t.Fatalf("retry after the journal recovered: %+v, %v, want seq 2 with 100 reports", res, err)
		}
		serveRows(t, agg, []statusRow{
			{"retry applied", "GET /v1/census/healthz", nil, http.StatusOK, healthz(200, 2), false},
			{"retry again", "POST /v1/census/push", blob(frozen), http.StatusOK, `{"applied":false,"last":2}` + "\n", false},
			{"applied once", "GET /v1/census/healthz", nil, http.StatusOK, healthz(200, 2), false},
		})
		// The journal holds each delta once: a restart recovers 200 reports.
		if err := agg.Close(); err != nil {
			t.Fatal(err)
		}
		agg2, err := NewAggregator(topo, SealOptions{DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = agg2.Close() })
		serveRows(t, agg2, []statusRow{
			{"recovered", "GET /v1/census/healthz", nil, http.StatusOK, healthz(200, 2), false},
		})
	})
}

// TestTenantServer exercises the single-node multi-tenant role: two
// isolated deployments behind one process, full QueryServer delegation,
// the tenant listing, and snapshot persistence across a restart.
func TestTenantServer(t *testing.T) {
	pa := privmdr.Params{N: 300, D: 3, C: 16, Eps: 1.0, Seed: 210}
	pb := privmdr.Params{N: 300, D: 3, C: 16, Eps: 1.0, Seed: 211}
	dir := t.TempDir()
	topo := &Topology{Tenants: []TenantConfig{
		{Name: "alpha", Mechanism: "Uni", Params: pa, Snapshot: filepath.Join(dir, "alpha.state")},
		{Name: "beta", Mechanism: "TDG", Params: pb},
	}}
	srv, err := NewTenantServer(topo, privmdr.LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// Cold start: nothing to restore.
	if restored, err := srv.LoadSnapshots(); err != nil || restored != 0 {
		t.Fatalf("cold LoadSnapshots: %d, %v", restored, err)
	}

	proto, err := privmdr.ProtocolByName("Uni", pa)
	if err != nil {
		t.Fatal(err)
	}
	reports := clientReports(t, proto, distDataset(t, pa.N))
	ingestHTTP(t, ts.URL, "alpha", reports)

	// Params are per tenant; ingestion is isolated.
	var sp privmdr.ServerParams
	getJSON(t, ts.URL+"/v1/beta/params", &sp)
	if sp.Mechanism != "TDG" || sp.Seed != pb.Seed {
		t.Fatalf("beta params %+v", sp)
	}
	var listing []TenantStatus
	getJSON(t, ts.URL+"/v1/tenants", &listing)
	if len(listing) != 2 {
		t.Fatalf("tenant listing %+v", listing)
	}
	byName := map[string]privmdr.ServerStatus{}
	for _, e := range listing {
		byName[e.Tenant] = e.ServerStatus
	}
	if byName["alpha"].Received != pa.N || byName["beta"].Received != 0 {
		t.Fatalf("tenant isolation broken: %+v", byName)
	}

	// Queries delegate to the tenant's live QueryServer (first query forces
	// an epoch).
	queryBody, err := json.Marshal(privmdr.QueryRequest{Queries: []privmdr.Query{{{Attr: 0, Lo: 0, Hi: 7}}}})
	if err != nil {
		t.Fatal(err)
	}
	code, payload := postBytes(t, ts.URL+"/v1/alpha/query", "application/json", queryBody)
	if code != http.StatusOK {
		t.Fatalf("alpha query: %d %s", code, payload)
	}

	// Persist and restore into a fresh process.
	if err := srv.SaveSnapshots(); err != nil {
		t.Fatal(err)
	}
	srv2, err := NewTenantServer(topo, privmdr.LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv2.Close() })
	if restored, err := srv2.LoadSnapshots(); err != nil || restored != 1 {
		t.Fatalf("warm LoadSnapshots: %d, %v", restored, err)
	}
	qs, _ := srv2.Tenant("alpha")
	if qs.Received() != pa.N {
		t.Fatalf("restored alpha has %d reports, want %d", qs.Received(), pa.N)
	}
}

// TestTopologyValidate pins the topology validation errors and the file
// loader.
func TestTopologyValidate(t *testing.T) {
	p := privmdr.Params{N: 10, D: 3, C: 16, Eps: 1.0, Seed: 1}
	cases := []struct {
		name string
		topo Topology
	}{
		{"no tenants", Topology{}},
		{"empty name", Topology{Tenants: []TenantConfig{{Name: "", Mechanism: "Uni", Params: p}}}},
		{"bad name", Topology{Tenants: []TenantConfig{{Name: "a/b", Mechanism: "Uni", Params: p}}}},
		{"duplicate", Topology{Tenants: []TenantConfig{
			{Name: "a", Mechanism: "Uni", Params: p}, {Name: "a", Mechanism: "Uni", Params: p}}}},
		{"unknown mechanism", Topology{Tenants: []TenantConfig{{Name: "a", Mechanism: "Nope", Params: p}}}},
		{"infeasible params", Topology{Tenants: []TenantConfig{{Name: "a", Mechanism: "Uni", Params: privmdr.Params{}}}}},
	}
	for _, tc := range cases {
		if err := tc.topo.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.topo)
		}
	}

	good := Topology{
		Tenants:    []TenantConfig{{Name: "census-2020.v1", Mechanism: "HDG", Params: p}},
		Aggregator: "http://agg:9090",
		Replicas:   []string{"http://r1:9191", "http://r2:9191"},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid topology rejected: %v", err)
	}
	blob, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "topo.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTopology(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Tenants) != 1 || loaded.Aggregator != good.Aggregator || len(loaded.Replicas) != 2 {
		t.Fatalf("loaded topology %+v", loaded)
	}
	if _, err := LoadTopology(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing topology file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTopology(bad); err == nil {
		t.Fatal("malformed topology JSON accepted")
	}
}

// TestShardPushHTTPStatus pins the POST /push status contract: the handler
// routes push failures through httpapi.Status, so a shard-instance conflict
// surfaces as 409 Conflict (like every other sequencing verdict), and only a
// genuine aggregator-leg failure — the transport gave up — is 502 Bad
// Gateway. Before the fix every failure collapsed to 502, so an operator
// could not tell a usurped shard ID (re-deploy bug, page someone) from a
// transient aggregator outage (wait for the retry).
func TestShardPushHTTPStatus(t *testing.T) {
	p := privmdr.Params{N: 300, D: 3, C: 16, Eps: 1.0, Seed: 210}
	topo := &Topology{Tenants: []TenantConfig{{Name: "census", Mechanism: "Uni", Params: p}}}
	proto, err := privmdr.ProtocolByName("Uni", p)
	if err != nil {
		t.Fatal(err)
	}
	reports := clientReports(t, proto, distDataset(t, p.N))

	t.Run("conflict is 409", func(t *testing.T) {
		agg, err := NewAggregator(topo, SealOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = agg.Close() })
		tsAgg := httptest.NewServer(agg)
		t.Cleanup(tsAgg.Close)

		newShard := func() (*Shard, *privmdr.QueryServer) {
			t.Helper()
			sh, err := NewShard(topo, ShardOptions{ID: "edge-1", Aggregator: tsAgg.URL})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = sh.Close() })
			qs, _ := sh.Tenant("census")
			return sh, qs
		}
		shardA, qsA := newShard()
		shardB, qsB := newShard()

		if err := qsA.SubmitBatch(reports[:100]); err != nil {
			t.Fatal(err)
		}
		if _, err := shardA.FlushTenant(context.Background(), "census"); err != nil {
			t.Fatal(err)
		}
		// B usurps the cursor; A's next delta must conflict — over HTTP.
		if err := qsB.SubmitBatch(reports[100:200]); err != nil {
			t.Fatal(err)
		}
		if _, err := shardB.FlushTenant(context.Background(), "census"); err != nil {
			t.Fatal(err)
		}
		if err := qsA.SubmitBatch(reports[200:]); err != nil {
			t.Fatal(err)
		}
		tsA := httptest.NewServer(shardA)
		t.Cleanup(tsA.Close)
		code, body := postBytes(t, tsA.URL+"/v1/census/push", "application/json", nil)
		if code != http.StatusConflict {
			t.Fatalf("forced push on a usurped shard: %d %s, want 409", code, body)
		}
	})

	t.Run("unreachable aggregator is 502", func(t *testing.T) {
		dead := httptest.NewServer(http.NotFoundHandler())
		deadURL := dead.URL
		dead.Close() // the port now refuses connections
		sh, err := NewShard(topo, ShardOptions{ID: "edge-9", Aggregator: deadURL, Timeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = sh.Close() })
		qs, _ := sh.Tenant("census")
		if err := qs.SubmitBatch(reports[:100]); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(sh)
		t.Cleanup(ts.Close)
		code, body := postBytes(t, ts.URL+"/v1/census/push", "application/json", nil)
		if code != http.StatusBadGateway {
			t.Fatalf("forced push with the aggregator down: %d %s, want 502", code, body)
		}
	})
}

// TestShardPushErrorClearedWhenCaughtUp pins the healthz staleness contract:
// ShardStatus.LastPushError is empty once the shard is caught up. A push
// that observes nothing pending and no frozen in-flight envelope clears a
// retained error from an earlier transient failure; a thresholded skip with
// un-shipped reports does NOT clear it, because the stuck data the error
// describes is still stuck.
func TestShardPushErrorClearedWhenCaughtUp(t *testing.T) {
	p := privmdr.Params{N: 300, D: 3, C: 16, Eps: 1.0, Seed: 210}
	topo := &Topology{Tenants: []TenantConfig{{Name: "census", Mechanism: "Uni", Params: p}}}
	proto, err := privmdr.ProtocolByName("Uni", p)
	if err != nil {
		t.Fatal(err)
	}
	reports := clientReports(t, proto, distDataset(t, p.N))

	agg, err := NewAggregator(topo, SealOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = agg.Close() })
	tsAgg := httptest.NewServer(agg)
	t.Cleanup(tsAgg.Close)
	topo.Aggregator = tsAgg.URL

	shard, err := NewShard(topo, ShardOptions{ID: "edge-1"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = shard.Close() })
	qs, _ := shard.Tenant("census")
	if err := qs.SubmitBatch(reports[:200]); err != nil {
		t.Fatal(err)
	}
	if res, err := shard.FlushTenant(context.Background(), "census"); err != nil || res.Seq != 1 {
		t.Fatalf("first flush: %+v, %v", res, err)
	}
	tn := shard.tenants["census"]
	seedErr := func() {
		tn.mu.Lock()
		tn.lastErr = "injected: transient aggregator outage"
		tn.mu.Unlock()
	}

	// Caught up (nothing pending, nothing in flight): the next push — even a
	// thresholded scheduled one — observes a drained shard and clears the
	// stale error instead of echoing it forever.
	seedErr()
	res, err := shard.push(context.Background(), tn, 50)
	if err != nil || !res.Skipped {
		t.Fatalf("caught-up push: %+v, %v, want a clean skip", res, err)
	}
	if st := shard.status(tn); st.LastPushError != "" {
		t.Fatalf("caught-up shard still reports %q, want the stale error cleared", st.LastPushError)
	}

	// Pending reports below the threshold: the skip must retain the error —
	// un-shipped data is still stuck behind whatever failed.
	if err := qs.SubmitBatch(reports[200:]); err != nil {
		t.Fatal(err)
	}
	seedErr()
	if res, err := shard.push(context.Background(), tn, 1000); err != nil || !res.Skipped {
		t.Fatalf("thresholded push: %+v, %v, want a skip", res, err)
	}
	if st := shard.status(tn); st.LastPushError == "" {
		t.Fatal("thresholded skip with pending reports cleared the error, want it retained")
	}

	// Draining clears it through the success path, and HTTP healthz agrees.
	if res, err := shard.FlushTenant(context.Background(), "census"); err != nil || res.Seq != 2 {
		t.Fatalf("drain flush: %+v, %v", res, err)
	}
	ts := httptest.NewServer(shard)
	t.Cleanup(ts.Close)
	var hs ShardStatus
	getJSON(t, ts.URL+"/v1/census/healthz", &hs)
	if hs.Pending != 0 || hs.LastPushError != "" {
		t.Fatalf("healthz after drain: %+v, want caught up with no error", hs)
	}
}
