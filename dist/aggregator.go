package dist

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"privmdr"
	"privmdr/internal/httpapi"
	"privmdr/internal/loop"
)

// SealOptions configure the aggregator's epoch coordinator.
type SealOptions struct {
	// Interval is how often the background sealer checks for seal-worthy
	// tenants. Zero disables it: epochs then seal only on the report
	// threshold or on demand (Seal, POST /v1/{tenant}/seal).
	Interval time.Duration
	// MinNewReports is the report threshold: a scheduled seal requires this
	// many reports since the last sealed epoch (≤ 1 means any), and when
	// > 0 an applied push that reaches it seals immediately instead of
	// waiting for the ticker.
	MinNewReports int
	// Timeout bounds each outbound fan-out request (default 10s).
	Timeout time.Duration
	// DataDir, when set, makes the aggregator crash-durable: every applied
	// push delta is journaled (per-tenant WAL under <DataDir>/<tenant>/)
	// before it is acknowledged, and sealing compacts the journal into a
	// snapshot. NewAggregator over a non-empty DataDir replays
	// snapshot + journal, recovering the merged state, the epoch counter,
	// the last sealed blob (GET /epoch/latest keeps serving), and every
	// shard's sequence cursor — shards resume at their next seq with no
	// re-baseline. Empty means in-memory only (a crash drops unsealed
	// deltas and shards re-baseline).
	DataDir string
	// SyncInterval relaxes journal durability: zero (the default) fsyncs
	// every journaled delta before its push is acknowledged; a positive
	// interval batches fsyncs in the background at that cadence, so a
	// crash loses at most the deltas acknowledged inside the un-fsynced
	// window (see PROTOCOL.md "Durability & recovery" for how shards
	// resync past such a loss). Ignored without DataDir.
	SyncInterval time.Duration
}

// fanDeadAfter is the consecutive-failure count at which the fan-out stops
// paying a full retry storm for a replica: from then on each seal sends a
// single-attempt probe (the replica catches up via GET /epoch/latest
// anyway), and the first probe that lands restores full service.
const fanDeadAfter = 3

// replicaFan is the aggregator's per-replica fan-out health record.
type replicaFan struct {
	url string

	mu      sync.Mutex
	epoch   uint64 // last epoch this replica acknowledged
	fails   int    // consecutive fan-out failures
	skipped uint64 // seals downgraded to a single-attempt probe
	lastErr string
}

// ReplicaFanoutStatus is one replica's entry in the aggregator's healthz.
type ReplicaFanoutStatus struct {
	URL string `json:"url"`
	// Epoch is the last epoch this replica acknowledged over the push
	// fan-out (it may be newer via its own catch-up pulls).
	Epoch uint64 `json:"epoch"`
	// ConsecutiveFailures counts fan-out failures since the last success;
	// at 3 or more the replica is probed once per seal instead of retried.
	ConsecutiveFailures int `json:"consecutive_failures"`
	// Skipped counts the seals downgraded to a single-attempt probe.
	Skipped   uint64 `json:"skipped,omitempty"`
	LastError string `json:"last_error,omitempty"`
}

// Aggregator is the epoch coordinator: per tenant it merges shard push
// deltas into one collector (tracking each shard's last applied sequence
// number so retries are idempotent), and seals epochs — a non-destructive
// state export stamped with the next epoch number and fanned out to every
// configured query replica. Endpoints per tenant:
//
//	POST /v1/{tenant}/push    — binary PushEnvelope; 200 with {"applied"}
//	                            (false for an idempotent duplicate), 409
//	                            with {"last"} on stale/gapped sequences
//	POST /v1/{tenant}/seal    — force-seal an epoch now, fan it out
//	GET  /v1/{tenant}/state   — the merged CollectorState (binary)
//	GET  /v1/{tenant}/params  — public deployment parameters
//	GET  /v1/{tenant}/healthz — AggregatorStatus
type Aggregator struct {
	tenants  map[string]*aggTenant
	names    []string
	replicas []*replicaFan
	mux      *http.ServeMux
	tr       *transport
	minNew   int
	sealer   *loop.Loop // nil without a seal interval

	// Threshold seals run off the push handlers under sealCtx, which Close
	// cancels; sealWG lets Close wait for them.
	sealCtx     context.Context
	cancelSeals context.CancelFunc
	sealWG      sync.WaitGroup
}

// shardCursor is the aggregator's per-shard sequencing state: the instance
// nonce of the shard incarnation whose pushes built the history, and the
// last sequence number applied from it.
type shardCursor struct {
	nonce uint64
	seq   uint64
}

// aggTenant is one tenant's merged collector plus its epoch bookkeeping.
type aggTenant struct {
	name  string
	proto privmdr.Protocol
	// store is the tenant's durability layer (nil without a DataDir).
	store *tenantStore

	// sealMu serializes seals end to end — state export, snapshot write,
	// journal compaction, fan-out. The journal offset a seal captures for
	// compaction is in the current journal file's coordinates, and only
	// another compaction ever shifts them, so two concurrent seals (ticker,
	// threshold goroutine, manual POST /seal) could otherwise compact with
	// a stale offset and drop acknowledged records no snapshot covers; full
	// serialization also keeps snapshot.pmas and sealedBlob monotone in
	// epoch and keeps the snapshot temp file single-writer. Pushes never
	// take it — they only need mu — so a slow seal never blocks ingest.
	// Lock order: sealMu before mu, never the reverse.
	sealMu sync.Mutex

	// mu guards everything below. Pushes, seals, and state exports all
	// serialize on it; the collector itself is only touched under mu.
	mu   sync.Mutex
	coll privmdr.StatefulCollector
	// shards is each shard's sequencing cursor.
	shards map[string]shardCursor
	// recovered marks shards whose cursor came from a restart recovery and
	// has not been confirmed by a live push yet. For such a shard — and
	// only such a shard — a gapped sequence is accepted with a cursor jump
	// instead of rejected: in relaxed-sync mode the crash may have lost
	// the acknowledged un-fsynced tail, and the shard cannot re-ship those
	// deltas (its baseline has moved past them), so rejecting the gap
	// would wedge it forever. The jump bounds the loss to that tail and
	// counts it in gapsAccepted; any applied push clears the mark. Only a
	// relaxed-sync recovery populates the map — a strict journal cannot
	// lose an acknowledged delta, so its gaps stay hard rejections.
	recovered map[string]bool
	// gapsAccepted counts post-recovery gap jumps — each one is a bounded,
	// crash-caused delta loss an operator should know about.
	gapsAccepted uint64
	// epoch is the last sealed epoch number (0 before the first seal);
	// sealedReports is how many reports that epoch included.
	epoch         uint64
	sealedReports int
	lastSealErr   string
	// sealedBlob is the last sealed epoch's encoded PMSS snapshot — what
	// GET /epoch/latest serves to catching-up replicas (nil before the
	// first seal; restored from the snapshot file on recovery).
	sealedBlob []byte
}

// AggregatorStatus is one tenant's GET /healthz reply on the aggregator.
type AggregatorStatus struct {
	Role      string `json:"role"`
	Tenant    string `json:"tenant"`
	Mechanism string `json:"mechanism"`
	// Received is how many reports the merged collector holds.
	Received int `json:"received"`
	// Epoch is the last sealed epoch (0 before the first);
	// SealedReports is how many reports it included, and Staleness is the
	// merged-but-unsealed remainder.
	Epoch         uint64 `json:"epoch"`
	SealedReports int    `json:"sealed_reports"`
	Staleness     int    `json:"staleness"`
	// Shards maps each shard ID to its last applied push sequence number.
	Shards map[string]uint64 `json:"shards,omitempty"`
	// LastSealError is the most recent seal or fan-out failure, empty once
	// a later seal fully succeeds.
	LastSealError string `json:"last_seal_error,omitempty"`
	// Durable reports whether applied deltas are journaled to disk.
	Durable bool `json:"durable"`
	// RecoveredGaps counts post-restart sequence gaps accepted from shards
	// whose acknowledged deltas were lost in a crash (relaxed-sync mode);
	// each one is a bounded delta loss.
	RecoveredGaps uint64 `json:"recovered_gaps,omitempty"`
	// Replicas is the per-replica fan-out health: last delivered epoch,
	// consecutive failures, and whether the replica is being probed
	// instead of retried.
	Replicas []ReplicaFanoutStatus `json:"replicas,omitempty"`
}

// SealResult reports one seal attempt.
type SealResult struct {
	Tenant string `json:"tenant"`
	// Sealed reports whether a new epoch was sealed; when false, Epoch and
	// Reports describe the still-current previous epoch.
	Sealed bool   `json:"sealed"`
	Epoch  uint64 `json:"epoch"`
	// Reports is how many reports the epoch includes.
	Reports int `json:"reports"`
	// Fanout is how many replicas now serve an epoch ≥ this one; Errors
	// lists the replicas that could not be updated (they stay on their
	// previous epoch until the next seal reaches them).
	Fanout int      `json:"fanout"`
	Errors []string `json:"errors,omitempty"`
}

// NewAggregator builds the aggregator role over a topology. Replicas for
// the epoch fan-out come from the topology. With SealOptions.DataDir set,
// the aggregator recovers its merged state, epoch counter, sealed blob, and
// per-shard sequence cursors from the last snapshot plus the journal before
// serving — a restart is invisible to shards except for the downtime. Call
// Close when the aggregator is discarded.
func NewAggregator(topo *Topology, opts SealOptions) (*Aggregator, error) {
	protos, err := topo.protocols()
	if err != nil {
		return nil, err
	}
	a := &Aggregator{
		tenants: make(map[string]*aggTenant, len(topo.Tenants)),
		tr:      newTransport(opts.Timeout),
		minNew:  opts.MinNewReports,
	}
	for _, rep := range topo.Replicas {
		a.replicas = append(a.replicas, &replicaFan{url: rep})
	}
	for _, tc := range topo.Tenants {
		proto := protos[tc.Name]
		coll, err := proto.NewCollector()
		if err != nil {
			return nil, fmt.Errorf("dist: tenant %q: %w", tc.Name, err)
		}
		t := &aggTenant{
			name:      tc.Name,
			proto:     proto,
			coll:      coll.(privmdr.StatefulCollector),
			shards:    make(map[string]shardCursor),
			recovered: make(map[string]bool),
		}
		// Register before recovering: recover assigns t.store as soon as the
		// files are open, so on any later recovery failure closeStores finds
		// the tenant and releases its journal fd and sync goroutine.
		a.tenants[tc.Name] = t
		a.names = append(a.names, tc.Name)
		if opts.DataDir != "" {
			if err := t.recover(filepath.Join(opts.DataDir, tc.Name), opts.SyncInterval); err != nil {
				a.closeStores()
				return nil, fmt.Errorf("dist: tenant %q: %w", tc.Name, err)
			}
		}
	}
	mux := http.NewServeMux()
	mux.Handle("POST /v1/{tenant}/push", byTenant(a.tenants, a.handlePush))
	mux.Handle("POST /v1/{tenant}/seal", byTenant(a.tenants, a.handleSeal))
	mux.Handle("GET /v1/{tenant}/state", byTenant(a.tenants, a.handleState))
	mux.Handle("GET /v1/{tenant}/epoch/latest", byTenant(a.tenants, a.handleEpochLatest))
	mux.Handle("GET /v1/{tenant}/params", byTenant(a.tenants, func(w http.ResponseWriter, _ *http.Request, t *aggTenant) {
		writeParams(w, t.proto)
	}))
	mux.Handle("GET /v1/{tenant}/healthz", byTenant(a.tenants, a.handleHealthz))
	a.mux = mux
	a.sealCtx, a.cancelSeals = context.WithCancel(context.Background())
	// The background sealer seals each tenant that accumulated at least
	// MinNewReports since its last epoch.
	a.sealer = loop.Start(opts.Interval, false, func(ctx context.Context) {
		for _, name := range a.names {
			if ctx.Err() != nil {
				return
			}
			_, _ = a.Seal(ctx, name, false)
		}
	})
	return a, nil
}

// recover opens the tenant's durability dir and replays snapshot + journal
// into the fresh collector: the snapshot restores the sealed baseline
// (state, epoch, cursors, sealed blob), then every journaled envelope is
// re-applied through the same sequencing rules as a live push — records the
// snapshot already covers are sequencing no-ops, so any crash point between
// snapshot write and journal compaction replays correctly.
func (t *aggTenant) recover(dir string, syncInterval time.Duration) error {
	store, snap, records, _, err := openTenantStore(dir, syncInterval)
	if err != nil {
		return err
	}
	t.store = store
	if snap != nil {
		st, epoch, err := privmdr.DecodeSnapshot(snap.sealed)
		if err != nil {
			return fmt.Errorf("dist: recovering snapshot: %w", err)
		}
		if epoch != snap.epoch {
			return fmt.Errorf("dist: snapshot epoch %d disagrees with its sealed blob (%d)", snap.epoch, epoch)
		}
		if st.Received() > 0 || snap.epoch > 0 {
			if err := t.coll.Merge(st); err != nil {
				return fmt.Errorf("dist: recovering snapshot state: %w", err)
			}
		}
		for id, cur := range snap.cursors {
			t.shards[id] = cur
		}
		t.epoch = snap.epoch
		t.sealedReports = int(snap.sealedReports)
		t.sealedBlob = snap.sealed
	}
	for _, raw := range records {
		var env PushEnvelope
		if err := env.UnmarshalBinary(raw); err != nil {
			// CRC-valid but undecodable: the journal only ever holds
			// envelopes that decoded once, so this is real corruption.
			return fmt.Errorf("dist: journal record: %w", err)
		}
		t.replay(env)
	}
	// A recovered cursor is unconfirmed until its shard pushes again, but
	// the gap-acceptance exception that enables (see aggTenant.recovered)
	// exists only because a relaxed-sync crash can lose acknowledged
	// deltas. In strict mode every acknowledged delta was fsynced before
	// its ACK, so a post-restart gap is a real protocol anomaly and keeps
	// the live rejection.
	if syncInterval > 0 {
		for id := range t.shards {
			t.recovered[id] = true
		}
	}
	return nil
}

// replay re-applies one journaled envelope during recovery. Sequencing is
// tolerant where live apply is strict: everything in the journal was
// validated and applied (or was about to be) when it was written, so a
// record at or below the cursor is simply covered by the snapshot (or a
// crash-retry duplicate) and skipped, a stale-incarnation record is
// skipped, and an in-order record is merged.
func (t *aggTenant) replay(env PushEnvelope) {
	cur, known := t.shards[env.Shard]
	if known && cur.nonce != env.Nonce {
		if env.Seq != 1 {
			return // a dead incarnation's record, already superseded
		}
		// A restarted shard's fresh seq-1: replaces the cursor, like live.
	} else if known && env.Seq <= cur.seq {
		return // covered by the snapshot, or a journal-retry duplicate
	}
	if err := t.coll.Merge(env.Delta); err != nil {
		// The record was journaled ahead of a merge that then failed (or
		// would have); the live path returned the error to the shard
		// without advancing the cursor, so skipping mirrors it exactly.
		return
	}
	t.shards[env.Shard] = shardCursor{nonce: env.Nonce, seq: env.Seq}
}

func (a *Aggregator) closeStores() {
	for _, t := range a.tenants {
		if t.store != nil {
			_ = t.store.Close()
		}
	}
}

// ServeHTTP implements http.Handler.
func (a *Aggregator) ServeHTTP(w http.ResponseWriter, r *http.Request) { a.mux.ServeHTTP(w, r) }

// Close stops the background sealer, cancels the fan-out of any scheduled
// or threshold seal in flight instead of waiting out a slow replica, waits
// for those seals to return, and flushes and closes the per-tenant
// journals. A cancelled seal has already snapshotted and compacted, and
// replicas it missed catch up by polling. Shut the HTTP listener down
// first so no new pushes can spawn seals while Close drains.
func (a *Aggregator) Close() error {
	a.cancelSeals()
	a.sealer.Stop()
	a.sealWG.Wait()
	a.closeStores()
	return nil
}

// apply merges one push envelope under the tenant's sequencing protocol.
// It returns whether the delta was applied (false for the idempotent
// duplicate seq == last) and the shard's last applied sequence number —
// which a conflicting shard uses to resync.
//
// The duplicate/stale/gap rules only hold within one shard incarnation, so
// they apply only when the envelope's instance nonce matches the cursor's.
// A different nonce starting over at seq 1 is a restarted shard: its old
// in-memory state died with it, so its new deltas are genuinely fresh
// reports and the cursor is replaced. A different nonce mid-sequence can
// only be a duplicate shard ID (or a replay from a dead incarnation) and is
// rejected with ErrShardConflict — never duplicate-ACKed, which would make
// the pusher silently drop the delta as "already merged".
//
// One exception to the gap rule: a shard whose cursor was recovered from
// disk and not yet confirmed by a live push may gap forward once (see
// aggTenant.recovered) — a relaxed-sync crash can have lost the
// acknowledged tail, and the shard cannot re-ship deltas its baseline
// already moved past.
//
// A durable tenant journals the envelope's canonical bytes — append +
// fsync per the sync policy — BEFORE merging, so an acknowledged delta is
// never memory-only: if the journal write fails the delta is not merged
// and the push fails with a 503, which the shard's transport retries — a
// disk problem must look like a transient outage, not a protocol verdict.
func (t *aggTenant) apply(env PushEnvelope, raw []byte) (applied bool, last uint64, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur, known := t.shards[env.Shard]
	last = cur.seq
	restart := known && cur.nonce != env.Nonce
	if restart && env.Seq != 1 {
		return false, last, fmt.Errorf("dist: shard %q pushed seq %d under a new instance nonce (last applied %d from a previous instance — restarted shard or duplicate shard ID): %w",
			env.Shard, env.Seq, last, ErrShardConflict)
	}
	gapJump := false
	if !restart {
		switch {
		case known && env.Seq == last:
			// The retry of a push whose ACK was lost: already merged, ACK
			// again.
			return false, last, nil
		case env.Seq < last:
			return false, last, fmt.Errorf("dist: shard %q pushed seq %d, last applied %d: %w",
				env.Shard, env.Seq, last, ErrStaleSeq)
		case env.Seq > last+1:
			if !t.recovered[env.Shard] {
				return false, last, fmt.Errorf("dist: shard %q pushed seq %d, last applied %d: %w",
					env.Shard, env.Seq, last, ErrSeqGap)
			}
			gapJump = true
		}
	}
	if t.store != nil {
		if jerr := t.store.Append(raw); jerr != nil {
			return false, last, httpapi.Mark(fmt.Errorf("dist: journal: %w", jerr), http.StatusServiceUnavailable)
		}
	}
	if err := t.coll.Merge(env.Delta); err != nil {
		return false, last, err
	}
	t.shards[env.Shard] = shardCursor{nonce: env.Nonce, seq: env.Seq}
	delete(t.recovered, env.Shard)
	if gapJump {
		t.gapsAccepted++
	}
	return true, env.Seq, nil
}

func (a *Aggregator) handlePush(w http.ResponseWriter, r *http.Request, t *aggTenant) {
	body, err := httpapi.ReadBody(w, r, httpapi.MaxBody, nil)
	if err != nil {
		httpapi.WriteError(w, httpapi.Status(err), err)
		return
	}
	var env PushEnvelope
	if err := env.UnmarshalBinary(body); err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, err)
		return
	}
	applied, last, err := t.apply(env, body)
	if err != nil {
		status := httpapi.Status(err)
		if status == http.StatusServiceUnavailable {
			// The journal failed: nothing was applied, so there is no ack to
			// give, and the 503 keeps the shard's envelope frozen and retrying.
			httpapi.WriteError(w, status, err)
			return
		}
		httpapi.WriteJSON(w, status, pushAck{Last: last, Code: httpapi.Code(err), Error: err.Error()})
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, pushAck{Applied: applied, Last: last})
	if applied && a.minNew > 0 {
		// Threshold sealing: don't wait for the ticker once enough reports
		// accumulated. Runs in its own goroutine under sealCtx, not the
		// request's context, so push latency never pays for estimator
		// fan-out and a client disconnect can't abort the replica updates
		// mid-flight; Close cancels the fan-out and waits.
		a.sealWG.Add(1)
		go func() {
			defer a.sealWG.Done()
			_, _ = a.Seal(a.sealCtx, t.name, false)
		}()
	}
}

// Seal exports the tenant's merged state, stamps it with the next epoch
// number, and fans it out to every replica. force seals whenever any new
// report arrived since the last epoch (and, for an empty tenant, even a
// zero-report first epoch so replicas can start serving priors); a
// scheduled seal (force=false) additionally requires MinNewReports.
//
// Sealing is also the durability compaction point: the sealed blob plus the
// shard cursors as of the export are persisted as the tenant's snapshot and
// the journal prefix they cover is dropped — so the journal only ever holds
// the deltas merged since the last sealed epoch.
func (a *Aggregator) Seal(ctx context.Context, tenant string, force bool) (SealResult, error) {
	t, ok := a.tenants[tenant]
	if !ok {
		return SealResult{}, fmt.Errorf("dist: unknown tenant %q", tenant)
	}
	// One seal at a time per tenant (see aggTenant.sealMu). A seal that
	// queued behind another re-checks freshness below and usually no-ops.
	t.sealMu.Lock()
	defer t.sealMu.Unlock()
	t.mu.Lock()
	fresh := t.coll.Received() - t.sealedReports
	threshold := 1
	if !force && a.minNew > 1 {
		threshold = a.minNew
	}
	if fresh < threshold && !(force && t.epoch == 0) {
		res := SealResult{Tenant: tenant, Epoch: t.epoch, Reports: t.sealedReports}
		t.mu.Unlock()
		return res, nil
	}
	st, err := t.coll.State()
	if err != nil {
		t.lastSealErr = err.Error()
		t.mu.Unlock()
		return SealResult{}, err
	}
	t.epoch++
	epoch := t.epoch
	t.sealedReports = st.Received()
	// Cursors and journal offset are captured under the same lock as the
	// state export, so the snapshot is exactly consistent with it: every
	// journal byte below off describes a delta already inside st.
	var cursors map[string]shardCursor
	var off int64
	if t.store != nil {
		cursors = make(map[string]shardCursor, len(t.shards))
		for id, cur := range t.shards {
			cursors[id] = cur
		}
		off = t.store.Offset()
	}
	t.mu.Unlock()

	blob, err := privmdr.EncodeSnapshot(st, epoch)
	if err != nil {
		t.setSealErr(err.Error())
		return SealResult{}, err
	}
	t.mu.Lock()
	t.sealedBlob = blob
	t.mu.Unlock()
	if t.store != nil {
		snap := aggSnapshot{epoch: epoch, sealedReports: uint64(st.Received()), cursors: cursors, sealed: blob}
		if err := t.store.Compact(snap, off); err != nil {
			// The epoch is sealed and served either way; a failed compaction
			// only means a longer journal replay next restart.
			t.setSealErr(fmt.Sprintf("epoch %d: compaction: %s", epoch, err))
		}
	}
	res := SealResult{Tenant: tenant, Sealed: true, Epoch: epoch, Reports: st.Received()}
	res.Fanout, res.Errors = a.fanout(ctx, tenant, blob, epoch)
	if len(res.Errors) > 0 {
		t.setSealErr(fmt.Sprintf("epoch %d: %s", epoch, res.Errors[0]))
	} else {
		t.setSealErr("")
	}
	return res, nil
}

func (t *aggTenant) setSealErr(msg string) {
	t.mu.Lock()
	t.lastSealErr = msg
	t.mu.Unlock()
}

// fanout pushes a sealed snapshot to every replica concurrently. A 409 from
// a replica counts as success: it already serves this epoch or a newer one
// (a racing seal won), either way it is not behind.
//
// A replica at fanDeadAfter consecutive failures is probed with a single
// attempt instead of the transport's full retry schedule, so one dead
// replica cannot slow every seal by four timeouts — it catches up through
// GET /epoch/latest, and the first probe that lands restores full retries.
func (a *Aggregator) fanout(ctx context.Context, tenant string, blob []byte, epoch uint64) (ok int, errs []string) {
	if len(a.replicas) == 0 {
		return 0, nil
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, rep := range a.replicas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep.mu.Lock()
			attempts := 0 // transport default
			if rep.fails >= fanDeadAfter {
				attempts = 1
				rep.skipped++
			}
			rep.mu.Unlock()
			url := rep.url + "/v1/" + tenant + "/epoch"
			status, body, err := a.tr.postN(ctx, url, "application/octet-stream", blob, attempts)
			var failure string
			switch {
			case err != nil:
				failure = err.Error()
			case status >= 200 && status < 300, status == http.StatusConflict:
			default:
				failure = fmt.Sprintf("dist: %s: %d %s", url, status, body)
			}
			rep.mu.Lock()
			if failure == "" {
				rep.fails = 0
				rep.lastErr = ""
				if epoch > rep.epoch {
					rep.epoch = epoch
				}
			} else {
				rep.fails++
				rep.lastErr = failure
			}
			rep.mu.Unlock()
			mu.Lock()
			defer mu.Unlock()
			if failure == "" {
				ok++
			} else {
				errs = append(errs, failure)
			}
		}()
	}
	wg.Wait()
	return ok, errs
}

// handleEpochLatest serves the last sealed epoch's PMSS blob — the replica
// catch-up path: a cold-started or fan-out-missed replica pulls it and
// installs through its strictly-newer epoch gate. 404 before the first seal.
func (a *Aggregator) handleEpochLatest(w http.ResponseWriter, _ *http.Request, t *aggTenant) {
	t.mu.Lock()
	blob := t.sealedBlob
	t.mu.Unlock()
	if blob == nil {
		httpapi.WriteError(w, http.StatusNotFound, fmt.Errorf("dist: tenant %q has no sealed epoch yet", t.name))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(blob)
}

// State exports a tenant's merged collector state.
func (a *Aggregator) State(tenant string) (privmdr.CollectorState, error) {
	t, ok := a.tenants[tenant]
	if !ok {
		return privmdr.CollectorState{}, fmt.Errorf("dist: unknown tenant %q", tenant)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.coll.State()
}

func (a *Aggregator) handleSeal(w http.ResponseWriter, r *http.Request, t *aggTenant) {
	res, err := a.Seal(r.Context(), t.name, true)
	if err != nil {
		httpapi.WriteError(w, httpapi.Status(err), err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, res)
}

func (a *Aggregator) handleState(w http.ResponseWriter, _ *http.Request, t *aggTenant) {
	t.mu.Lock()
	st, err := t.coll.State()
	t.mu.Unlock()
	if err != nil {
		httpapi.WriteError(w, httpapi.Status(err), err)
		return
	}
	blob, err := st.MarshalBinary()
	if err != nil {
		httpapi.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(blob)
}

func (a *Aggregator) handleHealthz(w http.ResponseWriter, _ *http.Request, t *aggTenant) {
	t.mu.Lock()
	shards := make(map[string]uint64, len(t.shards))
	for id, cur := range t.shards {
		shards[id] = cur.seq
	}
	status := AggregatorStatus{
		Role:          "aggregator",
		Tenant:        t.name,
		Mechanism:     t.proto.Name(),
		Received:      t.coll.Received(),
		Epoch:         t.epoch,
		SealedReports: t.sealedReports,
		Staleness:     t.coll.Received() - t.sealedReports,
		Shards:        shards,
		LastSealError: t.lastSealErr,
		Durable:       t.store != nil,
		RecoveredGaps: t.gapsAccepted,
	}
	t.mu.Unlock()
	for _, rep := range a.replicas {
		rep.mu.Lock()
		status.Replicas = append(status.Replicas, ReplicaFanoutStatus{
			URL:                 rep.url,
			Epoch:               rep.epoch,
			ConsecutiveFailures: rep.fails,
			Skipped:             rep.skipped,
			LastError:           rep.lastErr,
		})
		rep.mu.Unlock()
	}
	httpapi.WriteJSON(w, http.StatusOK, status)
}
