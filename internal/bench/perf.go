// Collector performance runner: the tracking harness behind
// `privmdr-bench -perf`. It measures the streaming aggregation path —
// ingest throughput, epoch-refresh (Estimate) latency, finalize latency
// versus n, resident collector heap, snapshot size — emitting one JSON
// report (BENCH_PR10.json in CI) so the perf trajectory is tracked across
// PRs.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"privmdr"
	"privmdr/internal/dataset"
	"privmdr/internal/mech"
)

// PerfPoint is one (mechanism, n) measurement of the streaming collector.
type PerfPoint struct {
	Mech string `json:"mech"`
	N    int    `json:"n"`

	IngestReportsPerSec float64 `json:"ingest_reports_per_sec"`
	FinalizeMillis      float64 `json:"finalize_ms"`
	CollectorHeapBytes  uint64  `json:"collector_heap_bytes"`
	SnapshotBytes       int     `json:"snapshot_bytes"`

	// Live serving (the PR-5 epoch path): one non-destructive Estimate over
	// the loaded collector, including estimator warm-up — the latency of
	// sealing a fresh serving epoch while ingestion stays open.
	EstimateMillis float64 `json:"estimate_ms"`
}

// PerfReport is the perf-harness JSON payload (BENCH_PR10.json in CI).
// Version 2 added estimate_ms, the epoch-refresh latency; version 3 added
// the sustained-load saturation points (see saturation.go), measured over
// the full HTTP ingest path with a live refresher sealing epochs under
// load; version 4 added the writer-scaling sweep — the same saturation
// window repeated at 1x/2x/4x GOMAXPROCS submitters, the curve that proves
// the per-P sharded counters scale with writers instead of flattening on a
// stripe lock; version 5 added HIO and LHIO to the default trajectory (all
// seven mechanisms stream now, so the formerly report-retaining pair has a
// flat-in-n refresh to track) and moved the smoke grid to n = 20k/80k so
// the flatness bar — refresh at 80k within ~1.3x of 20k — reads straight
// off adjacent points; version 6 dropped the report-store baseline columns
// (report_store_heap_bytes, report_snapshot_bytes,
// heap_ratio_store_vs_count), since no collector keeps a report store;
// version 7 times finalize_ms with the estimator warm-up estimate_ms
// already included, since HDG builds its Algorithm 1 response matrices
// only when warmed and a finalize without them left out most of its cost.
type PerfReport struct {
	Version       int               `json:"version"`
	Scale         string            `json:"scale"`
	Points        []PerfPoint       `json:"points"`
	Saturation    []SaturationPoint `json:"saturation,omitempty"`
	WriterScaling []SaturationPoint `json:"writer_scaling,omitempty"`
}

// perfNs picks the user counts per scale. The paper scale reaches n = 10⁶,
// where the acceptance bar — finalize and collector heap flat in n — is
// asserted; smoke keeps CI fast.
func perfNs(scale Scale) []int {
	switch scale {
	case Smoke:
		return []int{20_000, 80_000}
	case Paper:
		return []int{100_000, 300_000, 1_000_000}
	default:
		return []int{50_000, 150_000, 400_000}
	}
}

// heapDelta measures the live-heap growth of building state via build,
// keeping the built value alive until after measurement. GC runs twice on
// each side: sync.Pool contents survive one collection in the victim
// cache, and the ingest path's pooled scratch (decode frames, run
// permutations) is reclaimable cache, not retained collector state — two
// collections settle it so the delta tracks what the collector actually
// pins.
func heapDelta(build func() any) (any, uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc < before.HeapAlloc {
		return v, 0
	}
	return v, after.HeapAlloc - before.HeapAlloc
}

// RunPerf measures the collector paths for the given mechanisms (paper
// names; nil → HDG, TDG, HIO, LHIO) and writes the JSON report to w.
func RunPerf(w io.Writer, cfg RunConfig) (*PerfReport, error) {
	mechs := cfg.Mechs
	if len(mechs) == 0 {
		mechs = []string{"HDG", "TDG", "HIO", "LHIO"}
	}
	report := &PerfReport{Version: 7, Scale: string(cfg.scale())}
	for _, name := range mechs {
		for _, n := range perfNs(cfg.scale()) {
			pt, err := perfPoint(name, n, cfg.Seed)
			if err != nil {
				return nil, err
			}
			report.Points = append(report.Points, *pt)
			fmt.Fprintf(w, "%-5s n=%-9d ingest %8.0f reports/s  refresh %7.1f ms  finalize %7.1f ms  heap %8d B  snapshot %6d B\n",
				pt.Mech, pt.N, pt.IngestReportsPerSec, pt.EstimateMillis, pt.FinalizeMillis,
				pt.CollectorHeapBytes, pt.SnapshotBytes)
		}
	}
	for _, name := range mechs {
		sp, err := RunSaturation(name, cfg)
		if err != nil {
			return nil, err
		}
		report.Saturation = append(report.Saturation, *sp)
		fmt.Fprintf(w, "%-5s saturation: %8.0f reports/s (%.0f /s/core, %d cores, %d clients x %d/frame)  submit p50 %6.0f us  p99 %6.0f us  epochs sealed %d\n",
			sp.Mech, sp.ReportsPerSec, sp.ReportsPerSecPerCore, sp.Cores, sp.Clients, sp.BatchSize,
			sp.P50SubmitMicros, sp.P99SubmitMicros, sp.EpochsSealed)
	}
	for _, name := range mechs {
		sweep, err := RunWriterScaling(name, cfg)
		if err != nil {
			return nil, err
		}
		report.WriterScaling = append(report.WriterScaling, sweep...)
		for _, sp := range sweep {
			fmt.Fprintf(w, "%-5s writers %dx (%d clients / %d cores): %8.0f reports/s  submit p50 %6.0f us  p99 %6.0f us  epochs sealed %d\n",
				sp.Mech, sp.ClientsPerCore, sp.Clients, sp.Cores, sp.ReportsPerSec,
				sp.P50SubmitMicros, sp.P99SubmitMicros, sp.EpochsSealed)
		}
	}
	return report, nil
}

// WritePerfJSON renders the report as indented JSON.
func (r *PerfReport) WritePerfJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

func perfPoint(name string, n int, seed uint64) (*PerfPoint, error) {
	m, err := newMech(name)
	if err != nil {
		return nil, err
	}
	d, c := 3, 64
	if name == "HIO" {
		// At d = 3 the default streaming cap retains HIO's deepest levels
		// (their report-store cost is the seed's, by construction), so the
		// trajectory would mix regimes; d = 2 keeps every level under the
		// cap and tracks the fully streamed refresh the flatness bar is
		// about. The capped regime is pinned by the identity tests instead.
		d = 2
	}
	ds, err := dataset.Normal(dataset.GenOptions{N: n, D: d, C: c, Seed: seed + uint64(n), Rho: 0.7})
	if err != nil {
		return nil, err
	}
	p := mech.Params{N: n, D: d, C: c, Eps: paperEps, Seed: seed + 1}
	proto, err := m.Protocol(p)
	if err != nil {
		return nil, err
	}
	reports := make([]mech.Report, n)
	record := make([]int, d)
	for u := 0; u < n; u++ {
		a, err := proto.Assignment(u)
		if err != nil {
			return nil, err
		}
		for i := range record {
			record[i] = ds.Value(i, u)
		}
		reports[u], err = proto.ClientReport(a, record, mech.ClientRand(p, u))
		if err != nil {
			return nil, err
		}
	}

	pt := &PerfPoint{Mech: m.Name(), N: n}

	// Streaming collector: heap, ingest throughput, snapshot, finalize.
	var coll mech.Collector
	built, heap := heapDelta(func() any {
		coll, err = proto.NewCollector()
		if err != nil {
			return nil
		}
		start := time.Now()
		if err = coll.SubmitBatch(reports); err != nil {
			return nil
		}
		pt.IngestReportsPerSec = float64(n) / time.Since(start).Seconds()
		return coll
	})
	if err != nil {
		return nil, err
	}
	// The input reports must outlive the measurement: collected inside it,
	// they would be subtracted from the collector's heap.
	runtime.KeepAlive(reports)
	pt.CollectorHeapBytes = heap
	sc := built.(mech.StatefulCollector)
	st, err := sc.State()
	if err != nil {
		return nil, err
	}
	blob, err := st.MarshalBinary()
	if err != nil {
		return nil, err
	}
	pt.SnapshotBytes = len(blob)
	// Epoch refresh: a non-destructive Estimate plus the warm-up a live
	// server runs before swapping the epoch pointer (the swap itself is one
	// atomic store). Ingestion stays open, so this is repeatable — exactly
	// the per-epoch cost of `privmdr serve -refresh`. The reported number
	// is the best of a few runs: the sub-millisecond mechanisms (a
	// streamed HIO refresh is a few dozen µs) would otherwise be dominated
	// by scheduler noise in a one-shot measurement.
	const refreshReps = 5
	var best time.Duration
	for rep := 0; rep < refreshReps; rep++ {
		start := time.Now()
		if err := warmed(coll.Estimate()); err != nil {
			return nil, err
		}
		if elapsed := time.Since(start); rep == 0 || elapsed < best {
			best = elapsed
		}
	}
	pt.EstimateMillis = float64(best.Microseconds()) / 1e3
	start := time.Now()
	if err := warmed(coll.Finalize()); err != nil {
		return nil, err
	}
	pt.FinalizeMillis = float64(time.Since(start).Microseconds()) / 1e3
	return pt, nil
}

// warmed runs the deferred warm-up (HDG's response matrices) of the
// estimator a refresh or finalize just built, as a server does before it
// answers, so both timings cover the same work.
func warmed(est mech.Estimator, err error) error {
	if err != nil {
		return err
	}
	return privmdr.WarmEstimator(est)
}
