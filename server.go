package privmdr

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"privmdr/internal/atomicfile"
	"privmdr/internal/httpapi"
	"privmdr/internal/loop"
	"privmdr/internal/mech"
)

// QueryServer is the persistent HTTP face of one deployment: it ingests
// ε-LDP report shards and answers query batches until shutdown — the
// serving topology the paper's model implies, since an estimator built from
// sanitized reports answers arbitrary queries at no further privacy cost.
//
// The server runs in one of two serving models:
//
//   - Finalize-once (NewQueryServer): the seed lifecycle. The first
//     well-formed POST /query (or an explicit POST /finalize) finalizes the
//     collector — once, atomically — and report submissions after that
//     point are rejected with 409 Conflict.
//   - Live / epoch-based (NewLiveQueryServer): POST /reports is accepted
//     forever. Queries are answered against the latest sealed estimator,
//     held in an atomic pointer and swapped by refreshes: a background
//     refresher re-estimates every LiveOptions.Refresh interval (skipping
//     the swap when nothing new arrived, and requiring MinNewReports fresh
//     reports before paying for a rebuild), and POST /refresh forces an
//     epoch advance. Each refresh is a non-destructive Collector.Estimate
//     over a point-in-time snapshot, so the epoch-k estimator answers
//     bit-identically to a one-shot finalize over the same report prefix.
//     Estimator warm-up (HDG's response matrices) happens inside the
//     refresh, off the query path.
//
// Handlers are safe for arbitrary concurrency in both modes: ingestion
// rides the collector's own locking — for the streaming collector that
// means concurrent POST /reports handlers fold into per-P sharded count
// stripes without contending on a shared write lock, so submitter
// throughput scales with cores — refreshes serialize on their own mutex
// without ever blocking ingestion or queries, and query batches run on
// AnswerBatch's bounded worker pool against the immutable epoch estimator.
//
// Endpoints:
//
//	GET  /healthz   — ServerStatus: mode, serving epoch, reports in the
//	                  current estimator, staleness (reports received since
//	                  the last refresh)
//	GET  /params    — the public deployment parameters (ServerParams)
//	POST /reports   — binary report frame (EncodeReports); 409 only after a
//	                  finalize (never during live serving)
//	GET  /state     — exported collector state, binary (?format=json for
//	                  JSON); works mid-serving in live mode, 409 after
//	                  finalize
//	POST /state     — merge another shard's exported state (binary, or JSON
//	                  with Content-Type: application/json); 400 for malformed
//	                  payloads, 409 for deployment mismatch or after finalize
//	POST /refresh   — live mode: build and publish a new epoch now;
//	                  idempotent when nothing new arrived. 409 in
//	                  finalize-once mode
//	POST /finalize  — finalize now (terminal, ends ingestion in either
//	                  mode); idempotent
//	POST /query     — QueryRequest JSON → QueryResponse JSON
//
// GET /state + POST /state are the sharded-aggregation fabric: run one
// QueryServer per ingestion shard, then have a coordinator (or one of the
// shards) pull every other shard's state and merge — the merged server
// answers bit-identically to one server that ingested every report.
// SaveSnapshot/LoadSnapshot persist the same state to disk for warm
// restarts (privmdr serve -http -snapshot state.bin); live servers
// additionally round-trip their epoch counter through the snapshot, so
// epoch numbers stay monotonic across restarts.
type QueryServer struct {
	proto Protocol
	mux   *http.ServeMux

	coll Collector

	live bool

	// refreshMu serializes estimator builds — background refreshes, forced
	// refreshes, and finalize. Ingestion and queries never take it: reports
	// ride the collector's own locking, queries read the epoch pointer.
	refreshMu sync.Mutex
	finalErr  error // sticky finalize failure, guarded by refreshMu

	// cur is the serving epoch: the latest sealed estimator plus its
	// metadata. Queries load it wait-free; refreshes and finalize swap it.
	cur atomic.Pointer[servingEpoch]

	// lastEpoch is the number of the most recent sealed epoch (or the base
	// restored by LoadSnapshot). Written under refreshMu, read atomically so
	// health checks never wait behind an estimator build.
	lastEpoch atomic.Uint64

	// lastRefreshErr is the most recent failed refresh's message, cleared by
	// the next successful seal — the health signal that a live server is
	// serving an ever-staler epoch because its rebuilds keep failing.
	// Atomic for the same reason as lastEpoch.
	lastRefreshErr atomic.Pointer[string]

	// finalized flips once Finalize closes ingestion. It is the fast-path
	// gate handlers read; the collector itself is the authority (a submit
	// racing the finalize is settled by the collector's own lock).
	finalized atomic.Bool

	refresher *loop.Loop // nil without a background refresh interval
}

// servingEpoch is one sealed estimator plus the metadata /healthz reports.
type servingEpoch struct {
	est Estimator
	// epoch counts sealed estimators (and finalizes) since the deployment
	// began, across restarts when snapshots carry the counter.
	epoch uint64
	// reports is how many reports the estimator includes — a lower bound:
	// reports that land while the estimator is being built are inside the
	// snapshot or after it, but the count is read just before snapshotting.
	reports int
}

// LiveOptions configure epoch-based live serving (NewLiveQueryServer).
type LiveOptions struct {
	// Refresh is the background refresh interval. Zero disables the
	// background refresher: epochs then advance only through POST /refresh,
	// Refresh(), or the on-demand build serving the first query.
	Refresh time.Duration
	// MinNewReports is how many new reports a *scheduled* background
	// refresh requires before it pays for an estimator rebuild (≤ 1 means
	// any new report triggers). Forced refreshes (POST /refresh, the first
	// query) ignore the threshold — but every refresh path skips the swap
	// when no new reports arrived at all, so an idle server never burns CPU
	// re-sealing identical epochs.
	MinNewReports int
}

// QueryRequest is the POST /query body: a batch of range queries, each a
// conjunction of {"attr","lo","hi"} predicates.
type QueryRequest struct {
	Queries []Query `json:"queries"`
}

// QueryResponse is the POST /query reply: one answer per query, in request
// order.
type QueryResponse struct {
	Answers []float64 `json:"answers"`
}

// ServerStatus is the GET /healthz reply.
type ServerStatus struct {
	Mechanism string `json:"mechanism"`
	// Mode is "live" (epoch serving) or "finalize-once".
	Mode string `json:"mode"`
	// Serving reports whether an estimator is currently answering queries.
	Serving bool `json:"serving"`
	// Epoch is the serving epoch: how many estimators have been sealed
	// (finalize counts as one). 0 until the first seal.
	Epoch uint64 `json:"epoch"`
	// Received is the total number of reports accepted so far.
	Received int `json:"received"`
	// EstimatorReports is how many reports the serving estimator includes
	// (0 when not serving).
	EstimatorReports int `json:"estimator_reports"`
	// Staleness is Received − EstimatorReports: reports accepted since the
	// serving estimator was sealed, i.e. how far the answers lag ingestion.
	Staleness int `json:"staleness"`
	// LastRefreshError is the most recent failed refresh's message, empty
	// once a later rebuild succeeds. A live server with a persistent value
	// here is serving an ever-staler epoch and needs attention.
	LastRefreshError string `json:"last_refresh_error,omitempty"`
}

// ServerParams is the GET /params reply: everything a client needs to join
// the deployment (all public).
type ServerParams struct {
	Mechanism string `json:"mechanism"`
	Params
}

// maxJSONStateBody caps POST /state bodies sent as JSON (the debugging
// transport); binary states may use the full httpapi.MaxBody.
const maxJSONStateBody = 8 << 20

// NewQueryServer wraps a protocol in a fresh finalize-once HTTP query
// server. The returned server is an http.Handler — mount it on any mux or
// listener — and also a Collector, so shards can be preloaded in-process
// before the listener starts.
func NewQueryServer(proto Protocol) (*QueryServer, error) {
	return newQueryServer(proto, false, LiveOptions{})
}

// NewLiveQueryServer wraps a protocol in a live (epoch-serving) query
// server: reports are accepted forever and queries are answered from the
// latest sealed estimator. With a non-zero opts.Refresh a background
// refresher re-estimates on that interval; stop it with Close when the
// server is discarded.
func NewLiveQueryServer(proto Protocol, opts LiveOptions) (*QueryServer, error) {
	return newQueryServer(proto, true, opts)
}

func newQueryServer(proto Protocol, live bool, opts LiveOptions) (*QueryServer, error) {
	coll, err := proto.NewCollector()
	if err != nil {
		return nil, err
	}
	s := &QueryServer{
		proto: proto,
		coll:  coll,
		live:  live,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /params", s.handleParams)
	mux.HandleFunc("POST /reports", s.handleReports)
	mux.HandleFunc("GET /state", s.handleStateGet)
	mux.HandleFunc("POST /state", s.handleStateMerge)
	mux.HandleFunc("POST /refresh", s.handleRefresh)
	mux.HandleFunc("POST /finalize", s.handleFinalize)
	mux.HandleFunc("POST /query", s.handleQuery)
	s.mux = mux
	// The background refresher re-estimates iff at least MinNewReports
	// reports arrived since the last epoch. A failed build keeps the
	// previous epoch serving and is reported as last_refresh_error until a
	// rebuild succeeds. After a finalize every tick's refresh returns the
	// finalized error at once, and nothing is recorded.
	s.refresher = loop.Start(opts.Refresh, false, func(context.Context) {
		_, _, _ = s.refresh(opts.MinNewReports, false)
	})
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *QueryServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the background refresher, if one is running, and waits for
// a scheduled refresh in flight to publish or fail (an estimator build:
// bounded CPU work, no I/O). It does not finalize the collector or release
// the estimator — a closed server still answers queries from its last
// epoch. Safe to call multiple times.
func (s *QueryServer) Close() error {
	s.refresher.Stop()
	return nil
}

// Refresh builds a fresh estimator from a point-in-time snapshot of the
// live collector and publishes it as the next serving epoch, returning the
// epoch number and whether a new estimator was actually sealed. When no
// reports arrived since the current epoch the swap is skipped and the
// current epoch is returned — so calling Refresh in a loop is cheap on an
// idle server. Refresh requires live mode; finalize-once servers return an
// error (their single transition is Finalize).
func (s *QueryServer) Refresh() (epoch uint64, swapped bool, err error) {
	if !s.live {
		return 0, false, fmt.Errorf("privmdr: refresh requires a live server (NewLiveQueryServer); finalize-once servers transition with Finalize")
	}
	ep, swapped, err := s.refresh(0, true)
	if err != nil {
		return 0, false, err
	}
	return ep.epoch, swapped, nil
}

// refresh seals a new epoch unless fewer than minNew reports arrived since
// the last one (no-new-reports always skips, including before the first
// epoch — an idle server never pays for an estimator build). A forced
// refresh (POST /refresh, Refresh, the first query) ignores the threshold
// and additionally builds the first epoch even over an empty collector, so
// queries are always answerable. Returns the serving epoch after the call
// (nil when a scheduled refresh skipped before any epoch exists).
func (s *QueryServer) refresh(minNew int, forced bool) (*servingEpoch, bool, error) {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	cur := s.cur.Load()
	if s.finalized.Load() {
		if s.finalErr != nil {
			return nil, false, httpapi.Mark(s.finalErr, http.StatusInternalServerError)
		}
		// Finalize is terminal: there is nothing left to refresh from.
		return nil, false, fmt.Errorf("privmdr: server already finalized: %w", ErrCollectorFinalized)
	}
	// Count before snapshotting: everything counted here is in the
	// estimator (later arrivals may be too — the count is a lower bound,
	// which keeps reported staleness from ever understating the lag).
	n := s.coll.Received()
	if cur != nil {
		if fresh := n - cur.reports; fresh == 0 || (!forced && fresh < minNew) {
			return cur, false, nil
		}
	} else if !forced && (n == 0 || n < minNew) {
		return nil, false, nil
	}
	est, err := s.coll.Estimate()
	if err == nil {
		// Warm up estimators with deferred one-time work (HDG's response
		// matrices) before publishing, so queries never pay the build cost —
		// the warm-up runs here, off the query path, while the previous
		// epoch keeps serving.
		err = WarmEstimator(est)
	}
	if err != nil {
		msg := err.Error()
		s.lastRefreshErr.Store(&msg)
		return cur, false, httpapi.Mark(err, http.StatusInternalServerError)
	}
	s.lastRefreshErr.Store(nil)
	next := &servingEpoch{est: est, epoch: s.lastEpoch.Load() + 1, reports: n}
	s.lastEpoch.Store(next.epoch)
	s.cur.Store(next)
	return next, true, nil
}

// WarmEstimator runs an estimator's deferred one-time work up front (HDG's
// response matrices), so the first query is as fast as the millionth. Every
// serving path in this module — epoch refreshes, finalize, and the dist
// package's replica installs — warms before publishing, keeping the build
// cost off the query path.
func WarmEstimator(est Estimator) error {
	if warm, ok := est.(interface{ PrecomputeMatrices() error }); ok {
		return warm.PrecomputeMatrices()
	}
	return nil
}

// Submit ingests one report directly — the in-process side of the Collector
// interface QueryServer implements, used to preload reports before the
// listener starts.
func (s *QueryServer) Submit(r Report) error {
	if s.finalized.Load() {
		return fmt.Errorf("privmdr: server already finalized: %w", ErrCollectorFinalized)
	}
	return s.coll.Submit(r)
}

// SubmitBatch ingests a report batch directly — the programmatic equivalent
// of POST /reports.
func (s *QueryServer) SubmitBatch(rs []Report) error {
	if s.finalized.Load() {
		return fmt.Errorf("privmdr: server already finalized: %w", ErrCollectorFinalized)
	}
	return s.coll.SubmitBatch(rs)
}

// Estimate builds an estimator from a point-in-time snapshot of the
// collector without advancing the serving epoch — the programmatic,
// unpublished sibling of Refresh.
func (s *QueryServer) Estimate() (Estimator, error) {
	return s.coll.Estimate()
}

// State exports the collector's aggregation state — the programmatic side
// of GET /state. It works mid-serving on a live server and fails with
// ErrCollectorFinalized once a finalize closed ingestion.
func (s *QueryServer) State() (CollectorState, error) {
	sc, ok := s.coll.(StatefulCollector)
	if !ok {
		return CollectorState{}, fmt.Errorf("privmdr: %s collector does not export state", s.proto.Name())
	}
	return sc.State()
}

// Merge folds another shard's exported state into this server's collector —
// the programmatic side of POST /state. Deployment mismatches fail with
// ErrStateMismatch, late merges with ErrCollectorFinalized.
func (s *QueryServer) Merge(st CollectorState) error {
	sc, ok := s.coll.(StatefulCollector)
	if !ok {
		return fmt.Errorf("privmdr: %s collector does not merge state", s.proto.Name())
	}
	return sc.Merge(st)
}

// snapshotMagic leads a live server's snapshot file: a thin wrapper that
// carries the serving epoch counter ahead of the embedded collector state,
// so epoch numbers stay monotonic across restarts. Finalize-once servers
// write the bare collector state ("PMCS"), unchanged from earlier releases;
// LoadSnapshot and DecodeSnapshot accept either form.
var snapshotMagic = [4]byte{'P', 'M', 'S', 'S'}

// snapshotVersion is the wrapper's format version byte.
const snapshotVersion = 1

// SaveSnapshot persists the current collector state to path. The write is
// crash-safe: a temp file is written and fsynced, renamed into place, and
// the directory fsynced, so even a power loss leaves either the previous
// snapshot or the complete new one. A live server's snapshot additionally
// records the serving epoch counter and can be taken at any time —
// including while queries are being served, since estimation never closes
// the collector. The snapshot is an aggregate of sanitized ε-LDP reports
// (count vectors, plus the raw reports of a capped HIO's retained groups)
// — storing it adds no privacy cost.
func (s *QueryServer) SaveSnapshot(path string) error {
	st, err := s.State()
	if err != nil {
		return err
	}
	var data []byte
	if s.live {
		data, err = encodeSnapshot(st, s.lastEpoch.Load())
	} else {
		data, err = st.MarshalBinary()
	}
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(path, data, 0o644)
}

// encodeSnapshot wraps a collector state in the epoch-stamped snapshot
// envelope ("PMSS" + version + uvarint epoch + state) — the bytes a live
// server persists and a distributed aggregator fans out to its replicas.
func encodeSnapshot(st CollectorState, epoch uint64) ([]byte, error) {
	inner, err := st.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(inner)+16)
	out = append(out, snapshotMagic[:]...)
	out = append(out, snapshotVersion)
	out = binary.AppendUvarint(out, epoch)
	return append(out, inner...), nil
}

// decodeSnapshot parses a snapshot file: either a bare collector state or a
// live server's epoch-stamped wrapper. The epoch varint must be minimal, as
// in every other framing, so each snapshot has exactly one wire form.
func decodeSnapshot(data []byte) (CollectorState, uint64, error) {
	var epoch uint64
	if len(data) >= len(snapshotMagic) && [4]byte(data[:4]) == snapshotMagic {
		rest := data[4:]
		if len(rest) < 1 || rest[0] != snapshotVersion {
			return CollectorState{}, 0, fmt.Errorf("privmdr: unsupported snapshot version")
		}
		rest = rest[1:]
		e, n, err := mech.UvarintStrict(rest, "snapshot epoch counter")
		if err != nil {
			return CollectorState{}, 0, err
		}
		epoch = e
		data = rest[n:]
	}
	var st CollectorState
	if err := st.UnmarshalBinary(data); err != nil {
		return CollectorState{}, 0, err
	}
	return st, epoch, nil
}

// LoadSnapshot reads a snapshot written by SaveSnapshot (or GET /state) and
// merges it into the collector — the warm-restart path: a restarted server
// that loads its last snapshot resumes with every report the snapshot saw.
// An epoch-stamped live snapshot also restores the epoch counter, so the
// next sealed epoch continues the pre-restart numbering.
func (s *QueryServer) LoadSnapshot(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	st, epoch, err := decodeSnapshot(data)
	if err != nil {
		return fmt.Errorf("privmdr: snapshot %s: %w", path, err)
	}
	if err := s.Merge(st); err != nil {
		return err
	}
	if epoch > 0 {
		s.refreshMu.Lock()
		if epoch > s.lastEpoch.Load() {
			s.lastEpoch.Store(epoch)
		}
		s.refreshMu.Unlock()
	}
	return nil
}

// Finalize transitions the server to the terminal serving phase, exactly
// once; later calls return the same estimator (or the same sticky error).
// In finalize-once mode the first POST /query triggers it implicitly; a
// live server finalizes only on an explicit request, after which ingestion
// and refreshes end and the final estimator serves forever.
func (s *QueryServer) Finalize() (Estimator, error) {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	if s.finalized.Load() {
		if s.finalErr != nil {
			return nil, s.finalErr
		}
		return s.cur.Load().est, nil
	}
	est, err := s.coll.Finalize()
	// Count after draining, not before: a submission racing the finalize
	// may still slip in between, and whatever the drain saw is what the
	// estimator was built from.
	n := s.coll.Received()
	s.finalized.Store(true)
	if err != nil {
		s.finalErr = err
		return nil, err
	}
	// A warm-up failure would surface on every query anyway, so it is
	// sticky like any other finalize failure.
	if err := WarmEstimator(est); err != nil {
		s.finalErr = err
		return nil, err
	}
	final := &servingEpoch{est: est, epoch: s.lastEpoch.Load() + 1, reports: n}
	s.lastEpoch.Store(final.epoch)
	s.cur.Store(final)
	return est, nil
}

// Received reports how many reports have been accepted so far.
func (s *QueryServer) Received() int {
	return s.coll.Received()
}

// serving returns the epoch to answer queries against, creating the first
// one on demand: a live server seals epoch 1 from the current snapshot, a
// finalize-once server runs its single Finalize.
func (s *QueryServer) serving() (*servingEpoch, error) {
	if ep := s.cur.Load(); ep != nil {
		return ep, nil
	}
	if s.live {
		ep, _, err := s.refresh(0, true)
		if err != nil {
			return nil, err
		}
		return ep, nil
	}
	if _, err := s.Finalize(); err != nil {
		return nil, err
	}
	return s.cur.Load(), nil
}

// Status reports the serving state /healthz exposes.
func (s *QueryServer) Status() ServerStatus {
	st := ServerStatus{
		Mechanism: s.proto.Name(),
		Mode:      "finalize-once",
		Epoch:     s.lastEpoch.Load(),
	}
	if s.live {
		st.Mode = "live"
	}
	// Load the epoch before the received count: Received is monotonic and
	// ep.reports was counted before ep was sealed, so this order keeps
	// Staleness from going negative when a refresh races the health check.
	ep := s.cur.Load()
	st.Received = s.Received()
	if ep != nil {
		st.Serving = true
		st.Epoch = ep.epoch
		st.EstimatorReports = ep.reports
		st.Staleness = max(st.Received-ep.reports, 0)
	}
	if msg := s.lastRefreshErr.Load(); msg != nil {
		st.LastRefreshError = *msg
	}
	return st
}

func (s *QueryServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	httpapi.WriteJSON(w, http.StatusOK, s.Status())
}

func (s *QueryServer) handleParams(w http.ResponseWriter, r *http.Request) {
	httpapi.WriteJSON(w, http.StatusOK, ServerParams{Mechanism: s.proto.Name(), Params: s.proto.Params()})
}

// reportFrame holds one POST /reports handler's reusable buffers: the raw
// body bytes and the decoded batch. Frames cycle through framePool so the
// ingestion hot path performs no per-request decode allocations once the
// pool is warm — SubmitBatch folds every report into the collector's counts
// (or, for HIO's retained groups, copies it) before returning, so recycling
// the batch slice behind it is safe.
type reportFrame struct {
	body  []byte
	batch []Report
}

var framePool = sync.Pool{New: func() any { return &reportFrame{body: make([]byte, 0, 32<<10)} }}

// Frame buffers past these caps are dropped instead of pooled: bodies up to
// httpapi.MaxBody are legal, and one giant frame must not pin its body and
// decoded batch (24 B per report) in the pool for the life of the process.
// Typical frames (a few thousand reports) stay far under both caps and keep
// the warm path allocation-free.
const (
	maxPooledFrameBody    = 1 << 20  // bytes
	maxPooledFrameReports = 64 << 10 // reports
)

// putFrame returns fr to framePool, releasing oversized buffers first.
func putFrame(fr *reportFrame) {
	if cap(fr.body) > maxPooledFrameBody {
		fr.body = nil
	}
	if cap(fr.batch) > maxPooledFrameReports {
		fr.batch = nil
	}
	framePool.Put(fr)
}

func (s *QueryServer) handleReports(w http.ResponseWriter, r *http.Request) {
	// Reject late shards before paying for the body read and decode. A live
	// server never finalizes implicitly, so this gate only closes after an
	// explicit POST /finalize.
	if s.finalized.Load() {
		httpapi.WriteError(w, http.StatusConflict, fmt.Errorf("server already finalized; reports are no longer accepted"))
		return
	}
	fr := framePool.Get().(*reportFrame)
	defer putFrame(fr)
	var err error
	fr.body, err = httpapi.ReadBody(w, r, httpapi.MaxBody, fr.body[:0])
	if err != nil {
		httpapi.WriteError(w, httpapi.Status(err), fmt.Errorf("reading frame: %w", err))
		return
	}
	fr.batch, err = mech.AppendDecodedReports(fr.batch[:0], fr.body)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.coll.SubmitBatch(fr.batch); err != nil {
		// A finalize can win the race between the gate above and SubmitBatch
		// (409 via ErrCollectorFinalized); anything else is a report that
		// decoded but fails the protocol's validation — a bad payload (400).
		httpapi.WriteError(w, httpapi.Status(err), err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]int{"accepted": len(fr.batch), "received": s.Received()})
}

func (s *QueryServer) handleStateGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.State()
	if err != nil {
		httpapi.WriteError(w, httpapi.Status(err), err)
		return
	}
	if strings.EqualFold(r.URL.Query().Get("format"), "json") {
		httpapi.WriteJSON(w, http.StatusOK, st)
		return
	}
	data, err := st.MarshalBinary()
	if err != nil {
		httpapi.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

func (s *QueryServer) handleStateMerge(w http.ResponseWriter, r *http.Request) {
	// JSON is the debugging transport: a JSON body costs as little as ~3
	// bytes per empty group versus ~24 bytes of slice header once parsed,
	// and json.Unmarshal allocates before the state's group cap can run —
	// so JSON states get a much smaller body budget to bound that
	// amplification. Large states travel as binary, whose decoder enforces
	// its caps before allocating.
	limit := int64(httpapi.MaxBody)
	isJSON := strings.Contains(r.Header.Get("Content-Type"), "application/json")
	if isJSON {
		limit = maxJSONStateBody
	}
	body, err := httpapi.ReadBody(w, r, limit, nil)
	if err != nil {
		httpapi.WriteError(w, httpapi.Status(err), fmt.Errorf("reading state: %w", err))
		return
	}
	var st CollectorState
	if isJSON {
		if err := json.Unmarshal(body, &st); err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding state JSON: %w", err))
			return
		}
	} else if err := st.UnmarshalBinary(body); err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.Merge(st); err != nil {
		httpapi.WriteError(w, httpapi.Status(err), err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]int{"merged": st.Received(), "received": s.Received()})
}

func (s *QueryServer) handleRefresh(w http.ResponseWriter, r *http.Request) {
	if !s.live {
		httpapi.WriteError(w, http.StatusConflict, fmt.Errorf("refresh requires live mode (privmdr serve -refresh); POST /finalize is this server's only transition"))
		return
	}
	ep, swapped, err := s.refresh(0, true)
	if err != nil {
		httpapi.WriteError(w, httpapi.Status(err), err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{
		"epoch":             ep.epoch,
		"swapped":           swapped,
		"estimator_reports": ep.reports,
		"received":          s.Received(),
	})
}

func (s *QueryServer) handleFinalize(w http.ResponseWriter, r *http.Request) {
	if _, err := s.Finalize(); err != nil {
		httpapi.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{"finalized": true, "received": s.Received()})
}

func (s *QueryServer) handleQuery(w http.ResponseWriter, r *http.Request) {
	body, err := httpapi.ReadBody(w, r, httpapi.MaxBody, nil)
	if err != nil {
		httpapi.WriteError(w, httpapi.Status(err), fmt.Errorf("reading query batch: %w", err))
		return
	}
	var req QueryRequest
	if err := req.UnmarshalJSON(body); err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding query batch: %w", err))
		return
	}
	if len(req.Queries) == 0 {
		httpapi.WriteError(w, http.StatusBadRequest, fmt.Errorf("query batch is empty"))
		return
	}
	// Validate against the public schema before touching the lifecycle: a
	// malformed batch must not end a finalize-once server's ingestion phase
	// (nor force a pointless epoch build on a live one).
	p := s.proto.Params()
	for i, q := range req.Queries {
		if err := q.Validate(p.D, p.C); err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, fmt.Errorf("query %d: %w", i, err))
			return
		}
	}
	ep, err := s.serving()
	if err != nil {
		httpapi.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	answers, err := AnswerBatch(ep.est, req.Queries)
	if err != nil {
		// The batch already passed validation, so whatever failed is the
		// server's problem, not the client's.
		httpapi.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, QueryResponse{Answers: answers})
}
