// Command perfbench is the repository's benchmark. One run measures one of
// three closed-loop workloads in this process over loopback HTTP, in five
// rounds: each sets the workload up on its own inputs, drives it for a fifth
// of the window through the public privmdr and privmdr/dist APIs only, and
// checks the served outputs. The run prints medians over the rounds:
//
//	bash perfbench/run.sh --workload live-hdg --seed 1 --seconds 20 --trace 0
//
// Workloads (each uses at most 2 client goroutines):
//
//   - live-hdg: one live QueryServer (HDG, d=3, c=64, ε=1) refreshing in the
//     background every 250 ms; a submitter posts report frames back to back
//     and a querier posts a fixed query batch. Ingest does almost all the
//     work.
//   - refresh-hdg: one live QueryServer (HDG, d=3, c=256) without a
//     background refresher; a refresh client loops "POST 8 frames → POST
//     /refresh" beside the querier. Refresh (Algorithm 1) does almost all
//     the work.
//   - dist-mix: 2 shards, an aggregator journaling with per-ACK fsync and 1
//     replica, with one tenant per mechanism; a submitter posts frames
//     round-robin over (tenant, shard) and an epoch client loops per tenant
//     "push both shards → seal → query the replica".
//
// Every round's inputs are generated from --seed. Lines before the last describe
// the run; the last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 they are per-layer ones, computed
// from spans recorded around every call the benchmark makes into a layer's
// public function. A run whose output checks fail prints correct:false and
// exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one set-up workload instance.
type workload interface {
	// verifySetup checks the epoch set-up sealed and returns the mae of
	// its served answers.
	verifySetup() (float64, error)
	// window runs the closed loops until the deadline.
	window(deadline time.Time) error
	// check verifies the outputs after the window.
	check() error
	// stats returns what the window measured and drops the raw samples;
	// check needs only the ledgers' counts.
	stats() windowStats
	close()
}

var workloads = map[string]func(config, *tracer, *ops) (workload, error){
	"live-hdg":    setupLiveHDG,
	"refresh-hdg": setupRefreshHDG,
	"dist-mix":    setupDistMix,
}

// runRounds is how many rounds a run makes. The costs of HDG's Algorithm 1
// and of MSW's EM, and the mae, depend on the data and its perturbation, so
// one set-up's inputs make a run read fast or slow for its seed; each round
// sets up on its own inputs and the run reports medians over the rounds.
const runRounds = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// lines describe the run; they are printed before the JSON.
	lines []string
}

func main() {
	workload := flag.String("workload", "", "live-hdg, refresh-hdg or dist-mix")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		dir:      filepath.Dir(exe),
		rounds:   runRounds,
		scale:    1,
	}
	res, err := run(cfg)
	if res == nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, l := range res.lines {
		fmt.Println(l)
	}
	out, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run makes cfg.rounds rounds, each on inputs drawn from its own sub-seed
// of cfg.seed, and reduces them to the run's metrics. It returns a nil
// result when the run could not be measured, and a result with Correct
// false (and the check's error) when an output check failed.
func run(cfg config) (*result, error) {
	setup, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want live-hdg, refresh-hdg or dist-mix)", cfg.workload)
	}
	if cfg.window <= 0 || cfg.rounds <= 0 {
		return nil, fmt.Errorf("window %v in %d rounds is not positive", cfg.window, cfg.rounds)
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	o := &ops{}
	res := &result{Correct: true, Metrics: make(map[string]metric)}
	finish := func(err error) (*result, error) {
		var ce *checkError
		if err != nil && !errors.As(err, &ce) {
			return nil, err
		}
		res.Correct = err == nil
		res.Attempted, res.Failed = o.attempted.Load(), o.failed.Load()
		return res, err
	}
	rcfg := cfg
	rcfg.window = cfg.window / time.Duration(cfg.rounds)
	res.lines = append(res.lines, fmt.Sprintf("workload %s seed %d window %v in %d rounds, trace %v",
		cfg.workload, cfg.seed, cfg.window, cfg.rounds, cfg.trace))
	var rounds []round
	var total windowStats
	var freshP90s []float64
	for i := range cfg.rounds {
		rcfg.seed = mix(cfg.seed, uint64(i))
		r, err := runRound(setup, rcfg, tr, o)
		if err != nil {
			return finish(err)
		}
		rounds = append(rounds, r)
		res.lines = append(res.lines, fmt.Sprintf("round %d: set-up %.3f s, mae %.4f, %.0f reports/s, fresh p50 %.4g ms",
			i, r.setupSecs, r.st.mae, r.st.rate, r.st.freshP50))
		total.reports += r.st.reports
		total.nSubmit += r.st.nSubmit
		total.nQuery += r.st.nQuery
		total.nFresh += r.st.nFresh
		freshP90s = append(freshP90s, r.st.freshP90)
	}
	attempted, failed := o.attempted.Load(), o.failed.Load()
	// Printed, not gated: failed_frac is 0 on a healthy tree, and the
	// fresh p90 swings with the shared host's disk and CPU (see README).
	res.lines = append(res.lines,
		fmt.Sprintf("samples: submit %d, query %d, fresh %d; reports ACKed in the windows %d",
			total.nSubmit, total.nQuery, total.nFresh, total.reports),
		fmt.Sprintf("failed_frac %g (%d of %d operations)", float64(failed)/float64(max(attempted, 1)), failed, attempted),
		fmt.Sprintf("fresh_p90_ms %g ms", quantile(freshP90s, 0.5)))
	for _, m := range overRounds(rounds) {
		res.lines = append(res.lines, fmt.Sprintf("%-16s %14.6g %s", m.name, m.value, m.unit))
		if !cfg.trace {
			res.Metrics[m.name] = metric{m.value, m.unit}
		}
	}
	if cfg.trace {
		spans := tr.finish()
		for _, m := range perLayer(spans) {
			res.Metrics[m.name] = metric{m.value, m.unit}
		}
		res.lines = append(res.lines, breakdown(spans)...)
		for _, l := range layers {
			res.lines = append(res.lines, fmt.Sprintf("target %s: %s", spanNames[l.span], l.target))
		}
		path := filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-%d.jsonl.gz", cfg.workload, cfg.seed))
		if err := writeSpans(path, spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		res.lines = append(res.lines, fmt.Sprintf("%d spans written to %s", len(spans), path))
	}
	return finish(nil)
}

// round is what one round measured.
type round struct {
	setupSecs float64
	st        windowStats
	heapMiB   float64
}

// runRound sets up on cfg's inputs, checks the set-up epoch, runs the
// closed loops for cfg.window and checks the outputs. Its error is a
// checkError when an output check failed; any other error means the round
// could not be measured.
func runRound(setup func(config, *tracer, *ops) (workload, error), cfg config, tr *tracer, o *ops) (round, error) {
	var r round
	tr.setPhase(phaseSetup)
	start := time.Now()
	w, err := setup(cfg, tr, o)
	if err != nil {
		return r, fmt.Errorf("set-up: %w", err)
	}
	defer w.close()
	r.setupSecs = time.Since(start).Seconds()
	mae, err := w.verifySetup()
	if err != nil {
		return r, err
	}
	tr.setPhase(phaseWindow)
	if err := w.window(time.Now().Add(cfg.window)); err != nil {
		return r, fmt.Errorf("window: %w", err)
	}
	// The workload drops its raw samples in stats, so the heap read after
	// the forced GC holds the roles, the inputs and the trace, not the
	// benchmark's sample buffers, whose size varies with the window.
	r.st = w.stats()
	r.st.mae = mae
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.heapMiB = float64(mem.HeapAlloc) / (1 << 20)
	tr.setPhase(phaseTeardown)
	return r, w.check()
}

// overRounds reduces the rounds to the end-to-end metrics. mae is the mean
// over the rounds: each round's comes from one draw of the perturbation,
// and the mean of the draws is steadier than their median. Every other
// metric is the median over the rounds, which one slow round does not move.
func overRounds(rounds []round) []namedMetric {
	out := endToEnd(0, windowStats{}, 0)
	for k := range out {
		v := make([]float64, len(rounds))
		for i, r := range rounds {
			v[i] = endToEnd(r.setupSecs, r.st, r.heapMiB)[k].value
		}
		if out[k].name == "mae" {
			out[k].value = mean(v)
		} else {
			out[k].value = quantile(v, 0.5)
		}
	}
	return out
}

// windowStats is what a workload's window measured, reduced to the values
// the metrics need so the raw samples can be dropped before the heap is
// read. Operations count when they complete inside the window.
type windowStats struct {
	reports                 int     // ACKed in the window
	rate                    float64 // reports ACKed per second
	submitP50, submitP95    float64 // ms, like the quantiles below
	queryP50, queryP90      float64
	freshP50, freshP90      float64
	nSubmit, nQuery, nFresh int
	mae                     float64 // of the set-up epoch
}

// summarize reduces a window's samples to windowStats; acks are the ACK
// times of the window's frames, counted from its start.
func summarize(window time.Duration, acks []time.Duration, submit, query, fresh series) windowStats {
	st := windowStats{
		submitP50: submit.q(window, 0.50), submitP95: submit.q(window, 0.95),
		queryP50: query.q(window, 0.50), queryP90: query.q(window, 0.90),
		freshP50: fresh.q(window, 0.50), freshP90: fresh.q(window, 0.90),
		nSubmit: len(submit), nQuery: len(query), nFresh: len(fresh),
	}
	for _, a := range acks {
		if a < window {
			st.reports += frameSize
		}
	}
	st.rate = float64(st.reports) / window.Seconds()
	return st
}

// endToEnd lists the end-to-end metrics in output order.
func endToEnd(setupSecs float64, st windowStats, heapMiB float64) []namedMetric {
	return []namedMetric{
		{"setup_s", "s", "lower", setupSecs},
		{"reports_per_s", "reports/s", "higher", st.rate},
		{"submit_p50_ms", "ms", "lower", st.submitP50},
		{"submit_p95_ms", "ms", "lower", st.submitP95},
		{"query_p50_ms", "ms", "lower", st.queryP50},
		{"query_p90_ms", "ms", "lower", st.queryP90},
		{"fresh_p50_ms", "ms", "lower", st.freshP50},
		{"mae", "1", "lower", st.mae},
		{"heap_mb", "MiB", "lower", heapMiB},
	}
}
