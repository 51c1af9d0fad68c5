// Package privmdr answers multi-dimensional range queries under local
// differential privacy (LDP). It is a from-scratch Go implementation of
//
//	Yang, Wang, Li, Cheng, Su. "Answering Multi-Dimensional Range Queries
//	under Local Differential Privacy." PVLDB 13(12), 2020.
//
// The headline mechanisms are HDG (Hybrid-Dimensional Grids) and TDG
// (Two-Dimensional Grids); the package also ships the paper's baselines
// (Uni, MSW, CALM, HIO, LHIO) so deployments can compare on their own data,
// plus dataset generators and workload helpers matching the paper's
// evaluation.
//
// # Model
//
// There are n users, each holding one record of d ordinal attributes over
// the domain {0, …, c−1} (c a power of two). An untrusted aggregator wants
// to answer every range query — a conjunction of per-attribute intervals —
// over the user population. Each user sends a single ε-LDP report; the
// aggregator post-processes the reports into an Estimator that answers
// arbitrary queries with no further privacy cost.
//
// # Protocol quick start
//
// The primary API mirrors that deployment: every mechanism splits into a
// client side and an aggregator side that share only the public Params.
//
//	p := privmdr.Params{N: 100_000, D: 6, C: 64, Eps: 1.0, Seed: 7}
//	proto, _ := privmdr.NewHDG().Protocol(p)
//
//	// Aggregator: collect reports (Submit/SubmitBatch are concurrency-safe).
//	coll, _ := proto.NewCollector()
//
//	// Client i (on the user's device — only the Report crosses the wire):
//	a, _ := proto.Assignment(i)
//	rep, _ := proto.ClientReport(a, record, privmdr.ClientRand(p, i))
//	wire, _ := rep.MarshalBinary()
//
//	// Aggregator again:
//	var r privmdr.Report
//	_ = r.UnmarshalBinary(wire)
//	_ = coll.Submit(r)
//	est, _ := coll.Finalize()
//	ans, _ := est.Answer(privmdr.Query{{Attr: 0, Lo: 16, Hi: 47}})
//
// # Batch quick start
//
// Fit wraps the whole exchange for simulations and experiments — it runs
// the identical protocol path in one call, so Fit and a hand-rolled
// deployment with the same Params produce the same estimator:
//
//	ds, _ := privmdr.GenerateDataset("normal", privmdr.GenOptions{N: 100_000, D: 6, C: 64, Seed: 1})
//	est, _ := privmdr.Fit(privmdr.NewHDG(), ds, 1.0, 7)        // ε = 1
//	ans, _ := est.Answer(privmdr.Query{
//	    {Attr: 0, Lo: 16, Hi: 47},
//	    {Attr: 3, Lo: 0, Hi: 31},
//	})
//
// # Query serving
//
// A finalized estimator is immutable and safe for concurrent use: Answer
// may be called from any number of goroutines, and AnswerBatch evaluates a
// whole workload on a bounded worker pool with answers identical to (and in
// the same order as) sequential Answer calls:
//
//	ans, _ := privmdr.AnswerBatch(est, workload)
//
// Estimation is repeatable: Collector.Estimate builds an estimator from a
// point-in-time snapshot of the reports received so far without closing
// ingestion, so a long-lived aggregator can re-estimate continuously as
// reports keep arriving. Finalize is Estimate plus a permanent close — the
// terminal transition. An Estimate over a report prefix answers
// bit-identically to a one-shot Finalize over the same prefix.
//
// QueryServer wraps a deployment in a persistent HTTP service. In
// finalize-once mode it ingests report shards (POST /reports), finalizes
// once, then serves POST /query batches until shutdown; in live mode
// (NewLiveQueryServer, privmdr serve -refresh) reports are accepted forever
// and queries are answered from the latest sealed epoch estimator, which a
// background refresher keeps rebuilding from the live collector. See the
// "Serving" section of PROTOCOL.md, examples/queryserver for a load-driving
// client, and examples/live for concurrent ingest + query against a live
// server.
//
// # Sharded aggregation
//
// Every collector is a StatefulCollector: its aggregation state can be
// exported (State, GET /state), persisted (EncodeState, QueryServer
// snapshots), and merged (Merge, POST /state) — and N sharded collectors
// merged in any order finalize to answers bit-identical to one collector
// that ingested every report. See PROTOCOL.md "Sharding & persistence"
// and examples/sharded for the multi-shard topology.
//
// See PROTOCOL.md for the deployment topology (who knows Params, what
// crosses the wire), examples/ for full programs, and `privmdr-bench -list`
// (experiments in internal/bench) for every figure and table in the paper.
package privmdr

import (
	"fmt"
	"io"
	"math/rand/v2"

	"privmdr/internal/baselines"
	"privmdr/internal/core"
	"privmdr/internal/dataset"
	"privmdr/internal/ldprand"
	"privmdr/internal/mech"
	"privmdr/internal/mwem"
	"privmdr/internal/query"
)

// Re-exported fundamental types. They alias internal packages so the whole
// module shares one set of definitions; external callers use them through
// this package.
type (
	// Dataset is a columnar collection of user records; see GenerateDataset
	// and LoadCSV.
	Dataset = dataset.Dataset
	// GenOptions parameterize the synthetic dataset generators.
	GenOptions = dataset.GenOptions
	// Pred restricts one attribute to an inclusive value interval.
	Pred = query.Pred
	// Query is a conjunction of predicates over distinct attributes.
	Query = query.Query
	// Estimator answers range queries from aggregated LDP reports. Every
	// estimator this package finalizes is immutable and safe for concurrent
	// Answer calls.
	Estimator = mech.Estimator
	// BatchEstimator is an Estimator that also answers whole workloads in
	// parallel; every mechanism in this package implements it.
	BatchEstimator = mech.BatchEstimator
	// Mechanism is a full LDP pipeline; its Protocol method exposes the
	// client/aggregator split and Fit simulates a whole deployment.
	Mechanism = mech.Mechanism
	// Options tune TDG/HDG; the zero value reproduces the paper's defaults
	// (guideline granularities, 3 post-processing rounds, weighted-update
	// tolerance 1/n).
	Options = core.Options
	// WUOptions bound the weighted-update loops (Algorithms 1 and 2).
	WUOptions = mwem.Options
)

// Protocol API: a real rollout separates the client side (one ClientReport
// per user) from the aggregator side (a Collector). These aliases are the
// deployment-shaped face every mechanism implements.
type (
	// Params are the public parameters shared by aggregator and clients.
	Params = mech.Params
	// Assignment tells one user which group to report.
	Assignment = mech.Assignment
	// Report is a user's single sanitized message — the only user-derived
	// bytes that cross the wire. It serializes to JSON and to a compact
	// binary format (MarshalBinary / EncodeReports).
	Report = mech.Report
	// Protocol is a mechanism's client/aggregator split, a pure function
	// of Params; see Mechanism.Protocol.
	Protocol = mech.Protocol
	// Collector is the aggregator side: concurrency-safe Submit and
	// SubmitBatch ingestion, repeatable non-destructive Estimate snapshots,
	// and a single terminal Finalize.
	Collector = mech.Collector
	// StatefulCollector is a Collector whose aggregation state can be
	// exported and merged — the mergeable-sketch property behind sharded
	// ingestion and warm restarts. Every collector in this package
	// implements it.
	StatefulCollector = mech.StatefulCollector
	// CollectorState is a versioned, self-describing snapshot of a
	// collector's aggregation state: deployment identity plus the sufficient
	// statistic — per-group report multisets (v1, an input-only legacy shape
	// that every collector still accepts in Merge but none exports), folded
	// count vectors (v2, what all seven mechanisms export), or a mix of the
	// two (v3, capped HIO deployments whose deepest groups retain reports).
	// See PROTOCOL.md "Sharding & persistence".
	CollectorState = mech.CollectorState
	// GroupCounts is one group's entry in a CollectorState: the report tally
	// plus either the folded count vector (streamed groups) or the raw
	// report multiset (v3 hybrid states retain it for groups past their
	// streaming cap).
	GroupCounts = mech.GroupCounts
)

// Sentinel errors for the sharded-aggregation API, matched with errors.Is.
var (
	// ErrCollectorFinalized reports an ingest, state export, or merge
	// against a collector whose ingestion Finalize has already closed.
	ErrCollectorFinalized = mech.ErrFinalized
	// ErrStateMismatch reports a merge of state from a different
	// deployment (wrong mechanism, different Params, incompatible groups).
	ErrStateMismatch = mech.ErrStateMismatch
)

// NewHDG returns the paper's best mechanism: Hybrid-Dimensional Grids.
func NewHDG() Mechanism { return core.NewHDG(Options{}) }

// NewHDGWithOptions returns HDG with explicit options (granularity
// overrides, ablation switches, trace collection).
func NewHDGWithOptions(opts Options) Mechanism { return core.NewHDG(opts) }

// NewTDG returns Two-Dimensional Grids, HDG's simpler sibling.
func NewTDG() Mechanism { return core.NewTDG(Options{}) }

// NewTDGWithOptions returns TDG with explicit options.
func NewTDGWithOptions(opts Options) Mechanism { return core.NewTDG(opts) }

// NewUni returns the uniform-guess benchmark.
func NewUni() Mechanism { return baselines.NewUni() }

// NewMSW returns the Multiplied Square Wave baseline.
func NewMSW() Mechanism { return baselines.NewMSW() }

// NewCALM returns the CALM marginal-release baseline.
func NewCALM() Mechanism { return baselines.NewCALM() }

// NewHIO returns the hierarchy-based HIO baseline.
func NewHIO() Mechanism { return baselines.NewHIO() }

// NewLHIO returns the low-dimensional HIO baseline.
func NewLHIO() Mechanism { return baselines.NewLHIO() }

// Mechanisms returns one instance of every mechanism, in the paper's
// plotting order.
func Mechanisms() []Mechanism {
	return []Mechanism{NewUni(), NewMSW(), NewCALM(), NewHIO(), NewLHIO(), NewTDG(), NewHDG()}
}

// MechanismByName resolves a mechanism from its paper name
// (case-insensitive). Recognized: Uni, MSW, CALM, HIO, LHIO, TDG, HDG,
// ITDG, IHDG.
func MechanismByName(name string) (Mechanism, error) {
	return mechByName(name)
}

// ProtocolByName resolves a mechanism by name and instantiates its
// protocol from the public parameters — the entry point network services
// use, since both sides of the wire agree on (name, Params).
func ProtocolByName(name string, p Params) (Protocol, error) {
	m, err := mechByName(name)
	if err != nil {
		return nil, err
	}
	return m.Protocol(p)
}

// Fit runs mechanism m over ds with privacy budget eps. It is a thin
// wrapper over the protocol path: the public parameters are read off the
// dataset with the given assignment seed, every client is simulated with
// ClientRand, and the collector is finalized. Identical inputs give
// identical estimators — and the same estimator as an explicit
// Protocol/Submit/Finalize deployment with the same Params.
func Fit(m Mechanism, ds *Dataset, eps float64, seed uint64) (Estimator, error) {
	if ds == nil || ds.N() == 0 {
		return nil, fmt.Errorf("privmdr: empty dataset")
	}
	p, err := m.Protocol(Params{N: ds.N(), D: ds.D(), C: ds.C, Eps: eps, Seed: seed})
	if err != nil {
		return nil, err
	}
	return mech.Run(p, ds)
}

// FitWithRand is Fit with a caller-supplied random source (the protocol
// seed is drawn from rng), for integration into existing pipelines.
func FitWithRand(m Mechanism, ds *Dataset, eps float64, rng *rand.Rand) (Estimator, error) {
	return m.Fit(ds, eps, rng)
}

// Simulate plays a full deployment of proto over ds in-process: every
// user's client side runs with ClientRand and all reports are submitted
// and finalized. Fit is Simulate over a freshly constructed protocol.
func Simulate(proto Protocol, ds *Dataset) (Estimator, error) {
	return mech.Run(proto, ds)
}

// ClientRand returns the canonical per-user randomness stream simulations
// use for client-side perturbation: a pure function of (Params.Seed, user),
// independent across users. Production clients should perturb with OS
// entropy instead — the aggregator cannot tell the difference.
func ClientRand(p Params, user int) *rand.Rand { return mech.ClientRand(p, user) }

// NewClientRand returns a seeded random source for client-side
// perturbation when the caller manages its own seeding scheme.
func NewClientRand(seed uint64) *rand.Rand { return ldprand.New(seed) }

// EncodeReports packs a report batch into the compact self-delimiting
// binary frame clients ship to the aggregator.
func EncodeReports(rs []Report) ([]byte, error) { return mech.EncodeReports(rs) }

// DecodeReports unpacks a frame written by EncodeReports, rejecting
// malformed payloads.
func DecodeReports(data []byte) ([]Report, error) { return mech.DecodeReports(data) }

// EncodeState serializes an exported collector state to the compact binary
// snapshot format (the bytes GET /state serves and privmdr serve -snapshot
// writes). States also marshal to JSON via encoding/json.
func EncodeState(st CollectorState) ([]byte, error) { return st.MarshalBinary() }

// DecodeState parses a binary collector state written by EncodeState,
// rejecting malformed payloads without panicking on arbitrary input.
func DecodeState(data []byte) (CollectorState, error) {
	var st CollectorState
	if err := st.UnmarshalBinary(data); err != nil {
		return CollectorState{}, err
	}
	return st, nil
}

// EncodeSnapshot wraps a collector state in the epoch-stamped snapshot
// envelope live servers persist ("PMSS" + epoch counter + state) — the
// payload an epoch coordinator fans out to its query replicas, since the
// receiver learns both the aggregation state and which epoch it seals.
func EncodeSnapshot(st CollectorState, epoch uint64) ([]byte, error) {
	return encodeSnapshot(st, epoch)
}

// DecodeSnapshot parses a server snapshot file: either a bare collector
// state (EncodeState, GET /state, finalize-once servers) or a live server's
// epoch-stamped wrapper, returning the embedded state and the serving epoch
// counter (0 for bare states). It is what lets `privmdr merge` combine
// snapshots from live and finalize-once shards alike, and what a query
// replica uses to install a sealed epoch pushed by its coordinator.
func DecodeSnapshot(data []byte) (CollectorState, uint64, error) {
	return decodeSnapshot(data)
}

// DiffStates computes the incremental state cur − prev between two State()
// exports of the same collector, prev taken earlier than cur. The delta is
// itself a CollectorState — count-vector differences for streaming (v2)
// states, plus the retained groups' report suffixes for hybrid (v3) states
// — so a downstream collector that already merged prev reconstructs cur
// exactly by merging the delta. It is the shard-side primitive behind the
// dist package's delta pushes. A zero-value prev yields cur itself. Legacy
// report-multiset (v1) states are rejected: no collector exports them.
func DiffStates(cur, prev CollectorState) (CollectorState, error) {
	return mech.DiffStates(cur, prev)
}

// GenerateDataset draws a synthetic dataset by generator name: "ipums",
// "bfive", "normal", "laplace", "loan", "acs", or "uniform" (see DESIGN.md
// for what each simulates).
func GenerateDataset(name string, opt GenOptions) (*Dataset, error) {
	return dataset.ByName(name, opt)
}

// LoadCSV reads integer CSV records (one header row, values in [0, c)) into
// a Dataset.
func LoadCSV(r io.Reader, c int) (*Dataset, error) {
	return dataset.LoadCSV(r, c)
}

// RandomWorkload draws num λ-dimensional range queries with per-attribute
// volume omega, matching the paper's evaluation workloads.
func RandomWorkload(num, lambda, d, c int, omega float64, seed uint64) ([]Query, error) {
	return query.RandomWorkload(ldprand.Split(seed, 0x71757279), num, lambda, d, c, omega)
}

// TrueAnswers computes the exact workload answers over a dataset.
func TrueAnswers(ds *Dataset, qs []Query) []float64 {
	return query.TrueAnswers(ds, qs)
}

// AnswerBatch evaluates a workload on a bounded worker pool (at most
// GOMAXPROCS goroutines) and returns the answers in workload order —
// identical to sequential Answer calls, including which error is reported
// on failure. Estimators from this package parallelize; an unknown
// third-party Estimator that does not implement BatchEstimator is answered
// sequentially, since nothing is known about its concurrency safety.
func AnswerBatch(est Estimator, qs []Query) ([]float64, error) {
	if be, ok := est.(BatchEstimator); ok {
		return be.AnswerBatch(qs)
	}
	out := make([]float64, len(qs))
	for i, q := range qs {
		a, err := est.Answer(q)
		if err != nil {
			return nil, err
		}
		out[i] = a
	}
	return out, nil
}

// Answers evaluates a fitted estimator on a workload. It is AnswerBatch —
// kept as the familiar name the experiment harness and examples use.
func Answers(est Estimator, qs []Query) ([]float64, error) {
	return AnswerBatch(est, qs)
}

// MAE is the paper's utility metric: the mean absolute error between
// estimated and true answers.
func MAE(est, truth []float64) float64 { return query.MAE(est, truth) }

// GuidelineGranularities returns the (g₁, g₂) the Section 4.6 guideline
// selects for HDG at the given parameters — the values Table 2 tabulates.
func GuidelineGranularities(eps float64, n, d, c int) (g1, g2 int, err error) {
	return core.HDGGranularities(eps, n, d, c, core.DefaultAlpha1, core.DefaultAlpha2)
}

// SaveEstimator persists a fitted HDG estimator as JSON. The snapshot is
// post-processed output of ε-LDP reports, so storing or shipping it adds no
// privacy cost. Only HDG estimators (Fit(NewHDG...) or the HDG collector's
// Finalize) are serializable.
func SaveEstimator(w io.Writer, est Estimator) error {
	return core.SaveEstimator(w, est)
}

// LoadEstimator reads an estimator written by SaveEstimator; the result
// answers queries identically to the original.
func LoadEstimator(r io.Reader) (Estimator, error) {
	return core.LoadEstimator(r)
}
