package dist

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"privmdr"
)

// hungPeer is a peer that accepts every request and never answers it; a
// receive on arrived means one request reached it.
func hungPeer(t *testing.T) (url string, arrived <-chan struct{}) {
	t.Helper()
	ch := make(chan struct{}, 1)
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case ch <- struct{}{}:
		default:
		}
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(release) }) // runs first: frees ts.Close
	return ts.URL, ch
}

// closeWithin waits for a request to reach the hung peer, then checks that
// closeRole returns within limit instead of waiting out the in-flight call.
func closeWithin(t *testing.T, arrived <-chan struct{}, closeRole func() error, limit time.Duration) {
	t.Helper()
	select {
	case <-arrived:
	case <-time.After(10 * time.Second):
		t.Fatal("no request reached the hung peer")
	}
	start := time.Now()
	if err := closeRole(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > limit {
		t.Fatalf("Close took %v against a hung peer, want ≤ %v", took, limit)
	}
}

// TestCloseCancelsHungPeer checks that no role's Close waits out a peer
// that never answers: with a 1 s request timeout the transport's four
// attempts would hold Close for about 4 s, so each Close must cancel its
// background call instead and return within 1 s.
func TestCloseCancelsHungPeer(t *testing.T) {
	p := privmdr.Params{N: 50, D: 3, C: 16, Eps: 1.0, Seed: 210}
	newTopo := func() *Topology {
		return &Topology{Tenants: []TenantConfig{{Name: "census", Mechanism: "Uni", Params: p}}}
	}
	proto, err := privmdr.ProtocolByName("Uni", p)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("replica catch-up pull", func(t *testing.T) {
		url, arrived := hungPeer(t)
		rep, err := NewReplica(newTopo(), ReplicaOptions{Aggregator: url, Poll: time.Hour, Timeout: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		closeWithin(t, arrived, rep.Close, time.Second)
	})

	t.Run("shard push", func(t *testing.T) {
		url, arrived := hungPeer(t)
		shard, err := NewShard(newTopo(), ShardOptions{ID: "edge-1", Aggregator: url, PushInterval: 10 * time.Millisecond, Timeout: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		qs, _ := shard.Tenant("census")
		if err := qs.SubmitBatch(clientReports(t, proto, distDataset(t, p.N))); err != nil {
			t.Fatal(err)
		}
		closeWithin(t, arrived, shard.Close, time.Second)
	})

	// The aggregator's seals fan out to a hung replica, from the ticker and
	// from the report threshold a push reaches.
	for _, tc := range []struct {
		name string
		opts SealOptions
	}{
		{"aggregator scheduled seal", SealOptions{Interval: 10 * time.Millisecond, Timeout: time.Second}},
		{"aggregator threshold seal", SealOptions{MinNewReports: 1, Timeout: time.Second}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			url, arrived := hungPeer(t)
			topo := newTopo()
			topo.Replicas = []string{url}
			agg, err := NewAggregator(topo, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(agg)
			blob, err := PushEnvelope{Shard: "edge-1", Nonce: 1, Seq: 1, Delta: sampleDeltaFor(t, proto)}.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if status, body := postBytes(t, ts.URL+"/v1/census/push", "application/octet-stream", blob); status != http.StatusOK {
				t.Fatalf("push: %d %s", status, body)
			}
			ts.Close() // production order: the listener first, then Close
			closeWithin(t, arrived, agg.Close, time.Second)
		})
	}
}
