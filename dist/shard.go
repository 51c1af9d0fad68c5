package dist

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"privmdr"
	"privmdr/internal/httpapi"
	"privmdr/internal/loop"
)

// ShardOptions configure one ingest shard.
type ShardOptions struct {
	// ID is the shard's stable identity in push envelopes (required, ≤ 128
	// chars). The aggregator tracks one sequence counter per ID, so two live
	// shards must never share one.
	ID string
	// Aggregator overrides the topology's aggregator base URL.
	Aggregator string
	// PushInterval is how often the background pusher ships deltas. Zero
	// disables it: deltas then move only through Flush or POST
	// /v1/{tenant}/push.
	PushInterval time.Duration
	// MinPush is how many un-shipped reports a *scheduled* push requires
	// before paying for a delta (≤ 1 means any). Forced pushes (Flush, POST
	// /push) ignore it; every push skips when nothing new arrived.
	MinPush int
	// Timeout bounds each outbound push attempt (default 10s).
	Timeout time.Duration
}

// Shard is the edge ingest role: a multi-tenant report sink whose tenants
// each aggregate into a local collector, plus a pusher that ships
// per-tenant state deltas to the aggregator with idempotent sequence
// numbers and retry/backoff. Endpoints per tenant:
//
//	POST /v1/{tenant}/reports — binary report frame, exactly like a
//	                            QueryServer (the shard reuses one per tenant)
//	GET  /v1/{tenant}/params  — public deployment parameters
//	GET  /v1/{tenant}/state   — the local (un-pushed + pushed) state export
//	GET  /v1/{tenant}/healthz — ShardStatus: received, pushed, pending lag
//	POST /v1/{tenant}/push    — force a delta push now
type Shard struct {
	id string
	// nonce is this incarnation's random instance nonce, carried in every
	// push envelope so the aggregator can tell a retry from this process
	// apart from a restarted or duplicate shard reusing the ID.
	nonce   uint64
	agg     string
	tenants map[string]*shardTenant
	names   []string
	mux     *http.ServeMux
	tr      *transport
	pusher  *loop.Loop // nil without a push interval
}

// shardTenant is one tenant's collector plus its push bookkeeping.
type shardTenant struct {
	name string
	qs   *privmdr.QueryServer
	// handler is the tenant's QueryServer behind its /v1/{tenant} prefix
	// strip, built once so the ingest hot path (POST /reports) doesn't
	// allocate a fresh delegating handler per request.
	handler http.Handler

	// pushMu serializes pushes (scheduled, forced, and shutdown flushes)
	// end to end, including the retrying network round-trip. Ingestion
	// never takes it.
	pushMu sync.Mutex
	// mu guards the bookkeeping fields below and is only ever held for
	// short copies, so healthz never blocks behind an in-flight push while
	// the aggregator is slow or unreachable. Writers additionally hold
	// pushMu.
	mu sync.Mutex
	// lastPushed is the state snapshot the aggregator has acknowledged
	// through seq; the next delta is diffed against it.
	lastPushed privmdr.CollectorState
	// seq is the sequence number of the last acknowledged push (0 before
	// the first).
	seq     uint64
	lastErr string
	// inflight is a built-but-unacknowledged push, frozen together with the
	// state snapshot it was diffed from. It is retried byte-identically
	// until the aggregator acknowledges its sequence number: if the
	// aggregator applied it but the ACK was lost, the retry duplicate-ACKs
	// against the exact delta that was merged, and lastPushed advances to
	// the frozen snapshot — never to a newer state whose extra reports were
	// not in the envelope.
	inflight *inflightPush
}

// inflightPush is a frozen, unacknowledged push envelope plus the full
// cumulative state it captured (the delta's baseline-plus-delta), which
// becomes lastPushed when the aggregator acknowledges the sequence number.
type inflightPush struct {
	env      PushEnvelope
	snapshot privmdr.CollectorState
}

// ShardStatus is one tenant's GET /healthz reply on a shard.
type ShardStatus struct {
	Role      string `json:"role"`
	Shard     string `json:"shard"`
	Tenant    string `json:"tenant"`
	Mechanism string `json:"mechanism"`
	// Received is how many reports this shard accepted for the tenant.
	Received int `json:"received"`
	// PushedSeq is the last acknowledged push sequence number.
	PushedSeq uint64 `json:"pushed_seq"`
	// PushedReports is how many of the received reports the aggregator has
	// acknowledged; Pending is the un-shipped remainder.
	PushedReports int `json:"pushed_reports"`
	Pending       int `json:"pending"`
	// LastPushError is the most recent push failure. It is empty once the
	// shard is caught up: a later successful push clears it, and so does a
	// push that finds nothing pending and nothing frozen in flight — a
	// persistent value therefore always means un-shipped data is stuck
	// behind a failing aggregator leg, never a stale echo of a drained
	// transient.
	LastPushError string `json:"last_push_error,omitempty"`
}

// PushResult reports one tenant's push outcome.
type PushResult struct {
	Tenant string `json:"tenant"`
	// Seq is the last acknowledged sequence number after the call.
	Seq uint64 `json:"seq"`
	// Reports is how many reports the shipped delta carried (0 when
	// skipped).
	Reports int `json:"reports"`
	// Skipped reports that nothing (new) needed shipping.
	Skipped bool `json:"skipped"`
}

// NewShard builds the shard role over a topology. Call Close when the shard
// is discarded; pair it with Flush first to ship the final deltas.
func NewShard(topo *Topology, opts ShardOptions) (*Shard, error) {
	if opts.ID == "" || len(opts.ID) > maxShardID {
		return nil, fmt.Errorf("dist: shard ID length %d outside [1,%d]", len(opts.ID), maxShardID)
	}
	agg := opts.Aggregator
	if agg == "" {
		agg = topo.Aggregator
	}
	if agg == "" {
		return nil, fmt.Errorf("dist: shard %s needs an aggregator URL (topology or ShardOptions)", opts.ID)
	}
	protos, err := topo.protocols()
	if err != nil {
		return nil, err
	}
	s := &Shard{
		id:      opts.ID,
		nonce:   newInstanceNonce(),
		agg:     agg,
		tenants: make(map[string]*shardTenant, len(topo.Tenants)),
		tr:      newTransport(opts.Timeout),
	}
	for _, tc := range topo.Tenants {
		// Live mode with no refresher: reports are accepted forever and the
		// shard never finalizes — it only exports states.
		qs, err := privmdr.NewLiveQueryServer(protos[tc.Name], privmdr.LiveOptions{})
		if err != nil {
			s.closeTenants()
			return nil, fmt.Errorf("dist: tenant %q: %w", tc.Name, err)
		}
		s.tenants[tc.Name] = &shardTenant{
			name:    tc.Name,
			qs:      qs,
			handler: http.StripPrefix("/v1/"+tc.Name, qs),
		}
		s.names = append(s.names, tc.Name)
	}
	// reports, params and state are the tenant's own QueryServer routes,
	// prefix-stripped, so the pooled report decode serves unchanged.
	viaQueryServer := byTenant(s.tenants, func(w http.ResponseWriter, r *http.Request, t *shardTenant) {
		t.handler.ServeHTTP(w, r)
	})
	mux := http.NewServeMux()
	mux.Handle("POST /v1/{tenant}/reports", viaQueryServer)
	mux.Handle("GET /v1/{tenant}/params", viaQueryServer)
	mux.Handle("GET /v1/{tenant}/state", viaQueryServer)
	mux.Handle("GET /v1/{tenant}/healthz", byTenant(s.tenants, s.handleHealthz))
	mux.Handle("POST /v1/{tenant}/push", byTenant(s.tenants, s.handlePush))
	s.mux = mux
	// The background pusher ships each tenant's delta iff at least MinPush
	// reports arrived since its last acknowledged push. A failure is kept
	// in the tenant's healthz, and an unacknowledged envelope stays frozen
	// and is retried verbatim while later reports queue behind it.
	s.pusher = loop.Start(opts.PushInterval, false, func(ctx context.Context) {
		for _, name := range s.names {
			if ctx.Err() != nil {
				return
			}
			_, _ = s.push(ctx, s.tenants[name], opts.MinPush)
		}
	})
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Shard) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Tenant exposes a tenant's underlying QueryServer, e.g. to preload reports
// in-process before the listener starts.
func (s *Shard) Tenant(name string) (*privmdr.QueryServer, bool) {
	t, ok := s.tenants[name]
	if !ok {
		return nil, false
	}
	return t.qs, true
}

func (s *Shard) closeTenants() {
	for _, t := range s.tenants {
		_ = t.qs.Close()
	}
}

// Close stops the background pusher and cancels a scheduled push in
// flight instead of waiting out a slow aggregator; a cancelled envelope
// stays frozen, as after any failed push. Un-shipped deltas are not
// flushed — call Flush first for a clean drain.
func (s *Shard) Close() error {
	s.pusher.Stop()
	s.closeTenants()
	return nil
}

// Flush forces a push for every tenant — the drain used at shutdown and by
// tests to reach a known synchronization point. The first error is
// returned, but every tenant is attempted.
func (s *Shard) Flush(ctx context.Context) error {
	var first error
	for _, name := range s.names {
		if _, err := s.push(ctx, s.tenants[name], 0); err != nil && first == nil {
			first = fmt.Errorf("dist: tenant %q: %w", name, err)
		}
	}
	return first
}

// FlushTenant forces one tenant's push now.
func (s *Shard) FlushTenant(ctx context.Context, tenant string) (PushResult, error) {
	t, ok := s.tenants[tenant]
	if !ok {
		return PushResult{}, fmt.Errorf("dist: unknown tenant %q", tenant)
	}
	return s.push(ctx, t, 0)
}

// newInstanceNonce draws a shard incarnation's random non-zero instance
// nonce.
func newInstanceNonce() uint64 {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			panic(fmt.Sprintf("dist: reading random instance nonce: %v", err))
		}
		if n := binary.LittleEndian.Uint64(b[:]); n != 0 {
			return n
		}
	}
}

// pushAck is the aggregator's push reply: on 2xx whether this envelope was
// applied (false for an idempotent duplicate), on 409 the last acknowledged
// sequence number the shard can resync from plus the code of the push
// verdict, if the rejection is one.
type pushAck struct {
	Applied bool   `json:"applied"`
	Last    uint64 `json:"last"`
	Code    string `json:"code,omitempty"`
	Error   string `json:"error,omitempty"`
}

// pushVerdict is the sentinel a 409 push reply names by its code, or nil.
func pushVerdict(status int, code string) error {
	if status != http.StatusConflict {
		return nil
	}
	for _, v := range []error{ErrStaleSeq, ErrSeqGap, ErrShardConflict} {
		if httpapi.Code(v) == code {
			return v
		}
	}
	return nil
}

// upstream marks a push failure caused by the aggregator leg — the
// transport gave up, or the aggregator answered something the push protocol
// has no meaning for — as 502 Bad Gateway. Protocol conflicts (stale or
// gapped sequences, shard-instance conflicts) and malformed local state are
// not upstream failures and keep their own statuses.
func upstream(err error) error { return httpapi.Mark(err, http.StatusBadGateway) }

// push ships one tenant's delta since the last acknowledged push. min > 0
// makes it a thresholded scheduled push; 0 forces (but an empty delta is
// always skipped).
//
// If a previous push went unacknowledged (the transport gave up — the
// aggregator may or may not have applied it), its frozen envelope is resent
// byte-identically first, ignoring min: until its sequence number is
// acknowledged, no newer delta may ship, and committing it must move
// lastPushed exactly to its frozen snapshot. Reports that arrived in the
// meantime ride the following delta.
//
// On a 409 whose ACK shows the aggregator has nothing from this shard
// (last == 0, e.g. it restarted empty), the shard re-baselines: it resets
// its sequence and ships the full cumulative state as sequence 1, which is
// exact because an aggregator with no history from this shard holds none of
// its reports. A 409 with code "conflict" means the aggregator holds
// history for this shard ID from a different instance — it is surfaced as
// ErrShardConflict (duplicate shard ID or divergent restart) rather than
// retried quietly.
func (s *Shard) push(ctx context.Context, t *shardTenant, min int) (PushResult, error) {
	t.pushMu.Lock()
	defer t.pushMu.Unlock()

	t.mu.Lock()
	inflight := t.inflight
	seq := t.seq
	lastPushed := t.lastPushed
	t.mu.Unlock()

	if inflight == nil {
		cur, err := t.qs.State()
		if err != nil {
			return PushResult{}, s.recordErr(t, err)
		}
		delta, err := privmdr.DiffStates(cur, lastPushed)
		if err != nil {
			return PushResult{}, s.recordErr(t, err)
		}
		fresh := delta.Received()
		if fresh == 0 {
			// Caught up: nothing pending and no frozen in-flight envelope,
			// so a retained error from an earlier transient failure no
			// longer describes this tenant's push health — clear it instead
			// of alarming healthz forever (ShardStatus.LastPushError is
			// documented to be empty once the shard is caught up).
			t.mu.Lock()
			t.lastErr = ""
			t.mu.Unlock()
			return PushResult{Tenant: t.name, Seq: seq, Skipped: true}, nil
		}
		if fresh < min {
			return PushResult{Tenant: t.name, Seq: seq, Skipped: true}, nil
		}
		inflight = &inflightPush{
			env:      PushEnvelope{Shard: s.id, Nonce: s.nonce, Seq: seq + 1, Delta: delta},
			snapshot: cur,
		}
		t.mu.Lock()
		t.inflight = inflight
		t.mu.Unlock()
	}
	for rebaselined := false; ; {
		blob, err := inflight.env.MarshalBinary()
		if err != nil {
			return PushResult{}, s.recordErr(t, err)
		}
		status, body, err := s.tr.post(ctx, s.agg+"/v1/"+t.name+"/push", "application/octet-stream", blob)
		if err != nil {
			// The envelope stays frozen in flight: the next push retries
			// these exact bytes, so an applied-but-unacknowledged delta can
			// only ever be duplicate-ACKed, never recomputed.
			return PushResult{}, s.recordErr(t, upstream(err))
		}
		if status >= 200 && status < 300 {
			t.mu.Lock()
			t.lastPushed = inflight.snapshot
			t.seq = inflight.env.Seq
			t.inflight = nil
			t.lastErr = ""
			t.mu.Unlock()
			return PushResult{Tenant: t.name, Seq: inflight.env.Seq, Reports: inflight.env.Delta.Received()}, nil
		}
		var ack pushAck
		if uerr := json.Unmarshal(body, &ack); uerr != nil {
			// An undecodable rejection body (truncated response, proxy error
			// page) must not be read as a zero-valued ack: a 409 with a
			// phantom last == 0 would trigger a spurious re-baseline that
			// double-counts every already-merged report. Treat it as a broken
			// upstream leg and keep the envelope frozen for retry.
			return PushResult{}, s.recordErr(t, upstream(fmt.Errorf("dist: push rejected: %d with undecodable ack body %q: %w", status, body, uerr)))
		}
		verdict := pushVerdict(status, ack.Code)
		if status == http.StatusConflict && verdict != ErrShardConflict && !rebaselined && ack.Last == 0 && inflight.env.Seq > 1 {
			// The aggregator restarted empty underneath us: ship the full
			// cumulative state (which supersedes the frozen delta) as a new
			// sequence 1.
			rebaselined = true
			cur, err := t.qs.State()
			if err != nil {
				return PushResult{}, s.recordErr(t, err)
			}
			inflight = &inflightPush{
				env:      PushEnvelope{Shard: s.id, Nonce: s.nonce, Seq: 1, Delta: cur},
				snapshot: cur,
			}
			t.mu.Lock()
			t.lastPushed = privmdr.CollectorState{}
			t.seq = 0
			t.inflight = inflight
			t.mu.Unlock()
			continue
		}
		if verdict != nil {
			// Surface the aggregator's verdict as its sentinel, so callers
			// (and POST /push) see the same 409 the aggregator raised instead
			// of an opaque gateway failure.
			return PushResult{}, s.recordErr(t, fmt.Errorf("dist: push seq %d: %w — aggregator said: %s",
				inflight.env.Seq, verdict, ack.Error))
		}
		return PushResult{}, s.recordErr(t, upstream(fmt.Errorf("dist: push rejected: %d %s", status, body)))
	}
}

// recordErr retains a push failure for healthz and returns it.
func (s *Shard) recordErr(t *shardTenant, err error) error {
	t.mu.Lock()
	t.lastErr = err.Error()
	t.mu.Unlock()
	return err
}

func (s *Shard) handleHealthz(w http.ResponseWriter, _ *http.Request, t *shardTenant) {
	httpapi.WriteJSON(w, http.StatusOK, s.status(t))
}

func (s *Shard) status(t *shardTenant) ShardStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	received := t.qs.Received()
	pushed := t.lastPushed.Received()
	return ShardStatus{
		Role:          "shard",
		Shard:         s.id,
		Tenant:        t.name,
		Mechanism:     t.qs.Status().Mechanism,
		Received:      received,
		PushedSeq:     t.seq,
		PushedReports: pushed,
		Pending:       max(received-pushed, 0),
		LastPushError: t.lastErr,
	}
}

func (s *Shard) handlePush(w http.ResponseWriter, r *http.Request, t *shardTenant) {
	res, err := s.push(r.Context(), t, 0)
	if err != nil {
		httpapi.WriteError(w, httpapi.Status(err), err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, res)
}
