package main

import (
	"fmt"
	"sort"
	"strings"
)

// mechOrder is the paper's plotting order of the seven mechanisms; a span's
// Mech field indexes it.
var mechOrder = []string{"Uni", "MSW", "CALM", "HIO", "LHIO", "TDG", "HDG"}

// layer is one group of per-layer metrics, computed from the spans of one
// name in one phase. Every layer reports .count, .busy_ms, .p50_ms and
// .p90_ms; the fields below switch on its extras.
type layer struct {
	span  spanName
	phase phase
	// wait adds .wait.p50_ms and .wait.p90_ms: the sender's round trip
	// minus the handler's time.
	wait bool
	// self adds .self_ms: the median of each span's duration minus the
	// durations of its child spans.
	self bool
	// useful adds .useful_ratio: the share of the sending client spans
	// whose call had a useful outcome.
	useful spanName
	// bytes adds .<bytes>: the median byte count of the spans.
	bytes string
	// perMech adds .<Mech>.p50_ms for each of the seven mechanisms.
	perMech bool
	// target is the end-to-end metric, and the workload, the layer should
	// move.
	target string
}

var layers = []layer{
	{span: clientGen, phase: phaseSetup, target: "setup_s on all workloads"},
	{span: serverReports, wait: true, target: "reports_per_s, submit_p50_ms on live-hdg"},
	{span: mechDecode, target: "reports_per_s on live-hdg"},
	{span: mechSubmitBatch, target: "reports_per_s on live-hdg"},
	{span: serverRefresh, self: true, useful: clientRefresh, target: "fresh_p50_ms on refresh-hdg"},
	{span: coreEstimate, target: "fresh_p50_ms (small share) on refresh-hdg"},
	{span: mwemWarm, target: "fresh_p50_ms, fresh_p90_ms on refresh-hdg; nothing on live-hdg"},
	{span: serverQuery, wait: true, target: "query_p50_ms, query_p90_ms on live-hdg and refresh-hdg"},
	{span: mechAnswerBatch, target: "query_p50_ms on all workloads"},
	{span: shardReports, perMech: true, target: "reports_per_s, submit_p95_ms on dist-mix"},
	{span: shardPush, self: true, useful: clientPush, target: "fresh_p50_ms on dist-mix"},
	{span: aggPush, bytes: "bytes", target: "fresh_p50_ms on dist-mix"},
	{span: aggSeal, self: true, useful: clientSeal, target: "fresh_p50_ms, fresh_p90_ms on dist-mix"},
	{span: replicaEpoch, bytes: "bytes", perMech: true, target: "fresh_p90_ms on dist-mix"},
	{span: replicaQuery, target: "query_p50_ms on dist-mix"},
	{span: aggRecover, phase: phaseTeardown, bytes: "journal_bytes",
		target: "nothing in the window; restart downtime on dist-mix"},
}

// namedMetric is one output metric with its BENCHMARK.json description.
type namedMetric struct {
	name   string
	unit   string
	better string
	value  float64
}

// perLayer computes every per-layer metric from a finished trace. A layer a
// workload does not exercise reports zeros; perLayer(nil) lists them all.
func perLayer(spans []span) []namedMetric {
	childSum := make(map[int64]int64)
	byID := make(map[int64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
		if spans[i].Parent != 0 {
			childSum[spans[i].Parent] += spans[i].End - spans[i].Start
		}
	}
	var out []namedMetric
	for _, l := range layers {
		base := spanNames[l.span]
		add := func(suffix, unit, better string, v float64) {
			out = append(out, namedMetric{base + suffix, unit, better, v})
		}
		var durs, waits, selfs, bytes []float64
		perMech := make([][]float64, len(mechOrder))
		busy := 0.0
		for i := range spans {
			s := &spans[i]
			if s.name != l.span || s.Phase != l.phase {
				continue
			}
			d := s.End - s.Start
			durs = append(durs, ms(d))
			busy += ms(d)
			if p, ok := byID[s.Parent]; ok && l.wait {
				waits = append(waits, ms(p.End-p.Start-d))
			}
			selfs = append(selfs, ms(max(d-childSum[s.ID], 0)))
			bytes = append(bytes, float64(s.Bytes))
			if s.Mech >= 0 && int(s.Mech) < len(perMech) {
				perMech[s.Mech] = append(perMech[s.Mech], ms(d))
			}
		}
		add(".count", "count", "higher", float64(len(durs)))
		add(".busy_ms", "ms", "lower", busy)
		add(".p50_ms", "ms", "lower", quantile(durs, 0.50))
		add(".p90_ms", "ms", "lower", quantile(durs, 0.90))
		if l.wait {
			add(".wait.p50_ms", "ms", "lower", quantile(waits, 0.50))
			add(".wait.p90_ms", "ms", "lower", quantile(waits, 0.90))
		}
		if l.self {
			add(".self_ms", "ms", "lower", quantile(selfs, 0.50))
		}
		if l.useful != noSpan {
			calls, useful := 0, 0
			for i := range spans {
				if s := &spans[i]; s.name == l.useful && s.Phase == l.phase {
					calls++
					if s.Useful {
						useful++
					}
				}
			}
			ratio := 0.0
			if calls > 0 {
				ratio = float64(useful) / float64(calls)
			}
			add(".useful_ratio", "1", "higher", ratio)
		}
		if l.bytes != "" {
			add("."+l.bytes, "B", "lower", quantile(bytes, 0.50))
		}
		if l.perMech {
			for m, name := range mechOrder {
				add("."+name+".p50_ms", "ms", "lower", quantile(perMech[m], 0.50))
			}
		}
	}
	return out
}

// breakdown describes, for each span name that has children in the
// window, how its total time splits between its children and itself — the
// line that names, for instance, the dominant child of server.refresh.
func breakdown(spans []span) []string {
	byID := make(map[int64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	type split struct {
		total    int64
		children map[string]int64
	}
	splits := make(map[string]*split)
	for i := range spans {
		s := &spans[i]
		if s.Phase != phaseWindow {
			continue
		}
		if splits[s.Name] == nil {
			splits[s.Name] = &split{children: make(map[string]int64)}
		}
		splits[s.Name].total += s.End - s.Start
	}
	for i := range spans {
		s := &spans[i]
		if p, ok := byID[s.Parent]; ok && s.Phase == phaseWindow && p.Phase == phaseWindow {
			splits[p.Name].children[s.Name] += s.End - s.Start
		}
	}
	var lines []string
	for name, sp := range splits {
		if len(sp.children) == 0 || sp.total == 0 {
			continue
		}
		var kids []string
		self, dominant := sp.total, ""
		for child, d := range sp.children {
			kids = append(kids, fmt.Sprintf("%s %.2f%%", child, 100*float64(d)/float64(sp.total)))
			self -= d
			if dominant == "" || d > sp.children[dominant] {
				dominant = child
			}
		}
		sort.Strings(kids)
		lines = append(lines, fmt.Sprintf("breakdown %s (%.1f ms busy): dominant child %s; %s, self %.2f%%",
			name, ms(sp.total), dominant, strings.Join(kids, ", "), 100*float64(max(self, 0))/float64(sp.total)))
	}
	sort.Strings(lines)
	return lines
}
