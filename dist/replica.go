package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"privmdr"
	"privmdr/internal/httpapi"
	"privmdr/internal/loop"
)

// Replica is the stateless query-serving role: it ingests nothing itself,
// and holds only the latest installed epoch per tenant behind an atomic
// pointer. Each epoch is a finalized QueryServer over the sealed state, so
// a replica answers /query with the single-node server's own handler —
// ingestion is just moved upstream. The aggregator pushes sealed epochs
// in; queries read whatever epoch is current, so installs never block the
// query path. Endpoints per tenant:
//
//	POST /v1/{tenant}/epoch   — install a sealed epoch snapshot
//	                            (EncodeSnapshot bytes); epochs must be
//	                            strictly newer than the serving one, so
//	                            repeated or racing fan-outs are harmless
//	POST /v1/{tenant}/query   — QueryRequest JSON → QueryResponse JSON,
//	                            answered from the serving epoch (503 for
//	                            any body until the first install)
//	GET  /v1/{tenant}/params  — public deployment parameters
//	GET  /v1/{tenant}/healthz — ReplicaStatus
type Replica struct {
	tenants map[string]*replicaTenant
	names   []string
	mux     *http.ServeMux

	// aggregator is the catch-up pull base URL (empty disables pulling).
	aggregator string
	tr         *transport
	poller     *loop.Loop // nil without a poll interval or aggregator
}

// ReplicaOptions configure the replica's catch-up behaviour.
type ReplicaOptions struct {
	// Aggregator overrides the topology's aggregator base URL as the
	// catch-up source. With neither set the replica never pulls and serves
	// only what the fan-out pushes at it.
	Aggregator string
	// Poll is the slow-poll interval for GET /v1/{tenant}/epoch/latest.
	// Any positive interval starts a background poller that also pulls once
	// immediately, so a cold-started replica begins answering without
	// waiting for the aggregator's next seal. Zero disables polling;
	// CatchUp can still be called explicitly.
	Poll time.Duration
	// Timeout bounds each catch-up request (default 10s).
	Timeout time.Duration
}

// replicaTenant is one tenant's serving slot.
type replicaTenant struct {
	name  string
	proto privmdr.Protocol
	// mu serializes installs; queries never take it (they load cur).
	mu  sync.Mutex
	cur atomic.Pointer[replicaEpoch]
	// lastPullErr is the most recent catch-up failure (atomic string via
	// pointer; empty once a pull succeeds or finds nothing newer).
	lastPullErr atomic.Pointer[string]
}

// replicaEpoch is one installed epoch: a finalized QueryServer holding the
// warmed estimator, its /query route under the tenant prefix, and the
// aggregator's epoch number.
type replicaEpoch struct {
	qs    *privmdr.QueryServer
	query http.Handler
	epoch uint64
}

// ReplicaStatus is one tenant's GET /healthz reply on a replica.
type ReplicaStatus struct {
	Role      string `json:"role"`
	Tenant    string `json:"tenant"`
	Mechanism string `json:"mechanism"`
	// Serving reports whether an epoch is installed and answering.
	Serving bool `json:"serving"`
	// Epoch is the serving epoch number (0 before the first install);
	// EstimatorReports is how many reports it includes.
	Epoch            uint64 `json:"epoch"`
	EstimatorReports int    `json:"estimator_reports"`
	// LastCatchUpError is the most recent catch-up pull failure, empty once
	// a pull succeeds (or when pulling is disabled).
	LastCatchUpError string `json:"last_catchup_error,omitempty"`
}

// NewReplica builds the replica role over a topology. With a catch-up
// source configured (opts.Aggregator or the topology's Aggregator URL) and
// opts.Poll > 0 the replica pulls the latest sealed epoch immediately and
// then on every poll tick, so it serves after a cold start or a missed
// fan-out without waiting for the next seal. Call Close when the replica is
// discarded.
func NewReplica(topo *Topology, opts ReplicaOptions) (*Replica, error) {
	protos, err := topo.protocols()
	if err != nil {
		return nil, err
	}
	rep := &Replica{
		tenants:    make(map[string]*replicaTenant, len(topo.Tenants)),
		aggregator: opts.Aggregator,
		tr:         newTransport(opts.Timeout),
	}
	if rep.aggregator == "" {
		rep.aggregator = topo.Aggregator
	}
	for _, tc := range topo.Tenants {
		rep.tenants[tc.Name] = &replicaTenant{name: tc.Name, proto: protos[tc.Name]}
		rep.names = append(rep.names, tc.Name)
	}
	mux := http.NewServeMux()
	mux.Handle("POST /v1/{tenant}/epoch", byTenant(rep.tenants, rep.handleEpoch))
	mux.Handle("POST /v1/{tenant}/query", byTenant(rep.tenants, rep.handleQuery))
	mux.Handle("GET /v1/{tenant}/params", byTenant(rep.tenants, func(w http.ResponseWriter, _ *http.Request, t *replicaTenant) {
		writeParams(w, t.proto)
	}))
	mux.Handle("GET /v1/{tenant}/healthz", byTenant(rep.tenants, rep.handleHealthz))
	rep.mux = mux
	// The slow-poll catch-up pulls once right away (the cold-start path),
	// then once per tick. A failure is kept in healthz and retried next
	// tick; a replica that cannot reach the aggregator keeps serving its
	// current epoch.
	if rep.aggregator != "" {
		rep.poller = loop.Start(opts.Poll, true, func(ctx context.Context) { _ = rep.CatchUp(ctx) })
	}
	return rep, nil
}

// ServeHTTP implements http.Handler.
func (rep *Replica) ServeHTTP(w http.ResponseWriter, r *http.Request) { rep.mux.ServeHTTP(w, r) }

// Close stops the catch-up poller and cancels a pull in flight instead of
// waiting out a slow aggregator; a cancelled pull installs nothing, and the
// replica keeps serving its current epoch.
func (rep *Replica) Close() error {
	rep.poller.Stop()
	return nil
}

// CatchUp pulls GET /v1/{tenant}/epoch/latest from the aggregator for every
// tenant and installs anything strictly newer than the serving epoch. A 404
// (nothing sealed yet) and ErrStaleEpoch (the fan-out beat the pull) are
// not errors; the first real failure is returned after all tenants are
// attempted.
func (rep *Replica) CatchUp(ctx context.Context) error {
	if rep.aggregator == "" {
		return fmt.Errorf("dist: replica has no aggregator URL to catch up from")
	}
	var first error
	for _, name := range rep.names {
		t := rep.tenants[name]
		if err := rep.catchUpTenant(ctx, t); err != nil {
			msg := err.Error()
			t.lastPullErr.Store(&msg)
			if first == nil {
				first = err
			}
		} else {
			t.lastPullErr.Store(nil)
		}
	}
	return first
}

func (rep *Replica) catchUpTenant(ctx context.Context, t *replicaTenant) error {
	url := rep.aggregator + "/v1/" + t.name + "/epoch/latest"
	status, body, err := rep.tr.get(ctx, url)
	if err != nil {
		return err
	}
	if status == http.StatusNotFound {
		return nil // nothing sealed yet — serve nothing, poll again
	}
	if status < 200 || status >= 300 {
		return fmt.Errorf("dist: %s: %d %s", url, status, body)
	}
	st, epoch, err := privmdr.DecodeSnapshot(body)
	if err != nil {
		return fmt.Errorf("dist: catch-up snapshot: %w", err)
	}
	if epoch == 0 {
		return fmt.Errorf("dist: catch-up snapshot carries no epoch stamp")
	}
	if err := t.install(st, epoch); err != nil {
		if errors.Is(err, ErrStaleEpoch) {
			return nil // the push fan-out (or an earlier pull) already won
		}
		return err
	}
	return nil
}

// install builds and publishes the epoch's estimator: a fresh
// finalize-once QueryServer, one Merge of the sealed state, and Finalize,
// which warms the estimator so the first query pays nothing. The estimate
// is a pure function of the merged counts, which is what keeps replica
// answers bit-identical to the monolithic server over the same report
// multiset.
func (t *replicaTenant) install(st privmdr.CollectorState, epoch uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur := t.cur.Load(); cur != nil && epoch <= cur.epoch {
		return fmt.Errorf("dist: pushed epoch %d, serving epoch %d: %w", epoch, cur.epoch, ErrStaleEpoch)
	}
	qs, err := privmdr.NewQueryServer(t.proto)
	if err != nil {
		return err
	}
	if err := qs.Merge(st); err != nil {
		return err
	}
	if _, err := qs.Finalize(); err != nil {
		return err
	}
	t.cur.Store(&replicaEpoch{qs: qs, query: http.StripPrefix("/v1/"+t.name, qs), epoch: epoch})
	return nil
}

// Install installs a sealed epoch in-process (the HTTP-free path tests and
// embedded topologies use).
func (rep *Replica) Install(tenant string, st privmdr.CollectorState, epoch uint64) error {
	t, ok := rep.tenants[tenant]
	if !ok {
		return fmt.Errorf("dist: unknown tenant %q", tenant)
	}
	return t.install(st, epoch)
}

func (rep *Replica) handleEpoch(w http.ResponseWriter, r *http.Request, t *replicaTenant) {
	body, err := httpapi.ReadBody(w, r, httpapi.MaxBody, nil)
	if err != nil {
		httpapi.WriteError(w, httpapi.Status(err), err)
		return
	}
	st, epoch, err := privmdr.DecodeSnapshot(body)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if epoch == 0 {
		// A bare state decodes fine but carries no epoch; the replica cannot
		// order it against the serving one, so the coordinator must always
		// send the stamped wrapper.
		httpapi.WriteError(w, http.StatusBadRequest, fmt.Errorf("dist: epoch push carries no epoch stamp (bare state?)"))
		return
	}
	if err := t.install(st, epoch); err != nil {
		httpapi.WriteError(w, httpapi.Status(err), err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{"epoch": epoch, "reports": st.Received()})
}

func (rep *Replica) handleQuery(w http.ResponseWriter, r *http.Request, t *replicaTenant) {
	ep := t.cur.Load()
	if ep == nil {
		httpapi.WriteError(w, http.StatusServiceUnavailable,
			fmt.Errorf("dist: no epoch installed yet; waiting for the aggregator's first seal"))
		return
	}
	ep.query.ServeHTTP(w, r)
}

func (rep *Replica) handleHealthz(w http.ResponseWriter, _ *http.Request, t *replicaTenant) {
	status := ReplicaStatus{Role: "replica", Tenant: t.name, Mechanism: t.proto.Name()}
	if ep := t.cur.Load(); ep != nil {
		status.Serving = true
		status.Epoch = ep.epoch
		status.EstimatorReports = ep.qs.Status().EstimatorReports
	}
	if msg := t.lastPullErr.Load(); msg != nil {
		status.LastCatchUpError = *msg
	}
	httpapi.WriteJSON(w, http.StatusOK, status)
}
