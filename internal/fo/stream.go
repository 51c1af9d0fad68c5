package fo

import (
	"math/bits"

	"privmdr/internal/ldprand"
)

// This file is the aggregator's face of the frequency oracles: each oracle
// estimates from a fixed-size integer sufficient statistic, so an
// aggregator folds each run of reports into a count vector as it arrives
// and discards the reports — O(domain) memory instead of O(n), with a
// finalize that reads the vector instead of rescanning every report.
//
//   - GRR: per-value bucket counts; folding is one increment per report.
//   - OLH: the per-value support vector (how many reports hash-match each
//     domain value). Folding costs Θ(c) hash evaluations per report, spread
//     across the ingest path where submissions to different groups already
//     run in parallel.
//   - Hadamard: per-row signed counts; folding is one signed increment, and
//     the single O(K log K) transform moves to EstimateCounts.
//
// In all three cases the statistic is a vector of exact integers, so the
// counts do not depend on how the report stream was cut into runs, and
// merging two shards' statistics is element-wise addition.

// StatLen implements Oracle: one bucket per domain value.
func (g *GRR) StatLen() int { return g.c }

// Fold implements Oracle: one increment per report in a tight loop. An
// out-of-range value contributes to n but to no bucket.
func (g *GRR) Fold(run []Report, counts []int64) {
	c := g.c
	for i := range run {
		if v := run[i].Value; v >= 0 && v < c {
			counts[v]++
		}
	}
}

// StatLen implements Oracle: one support tally per domain value.
func (o *OLH) StatLen() int { return o.c }

// Fold implements Oracle: for each domain value v, counts[v] gains the
// number of reports whose seeded hash lands on their value. The loop nest
// is value-outer/report-inner: for each domain value the inner loop streams
// sequentially through the run with the value's inner hash and the Lemire
// reducer in registers, and the per-value tally lands in counts once
// instead of once per matching report. Values go two at a time so each
// pass shares the run's loads between two independent hash chains, and the
// match increments are written branchlessly (a report matches ~1/g of the
// time, the worst case for a predictor).
func (o *OLH) Fold(run []Report, counts []int64) {
	hv := o.valueHashes()
	g := o.gw
	counts = counts[:len(hv)] // hoist the bounds check out of the loop nest
	v := 0
	for ; v+1 < len(hv); v += 2 {
		h0, h1 := hv[v], hv[v+1]
		var n0, n1 int64
		for i := range run {
			seed, val := run[i].Seed, run[i].Value
			hb0, _ := bits.Mul64(ldprand.SplitMix64(seed^h0), g)
			hb1, _ := bits.Mul64(ldprand.SplitMix64(seed^h1), g)
			var i0, i1 int64
			if int(hb0) == val {
				i0 = 1
			}
			if int(hb1) == val {
				i1 = 1
			}
			n0 += i0
			n1 += i1
		}
		counts[v] += n0
		counts[v+1] += n1
	}
	for ; v < len(hv); v++ {
		h := hv[v]
		var n int64
		for i := range run {
			hb, _ := bits.Mul64(ldprand.SplitMix64(run[i].Seed^h), g)
			var inc int64
			if int(hb) == run[i].Value {
				inc = 1
			}
			n += inc
		}
		counts[v] += n
	}
}

// StatLen implements Oracle: one signed count per matrix row.
func (h *Hadamard) StatLen() int { return h.k }

// Fold implements Oracle: one signed increment per report. A row index
// outside the matrix contributes to n but to no row.
func (h *Hadamard) Fold(run []Report, counts []int64) {
	k := uint64(h.k)
	for i := range run {
		if run[i].Seed < k {
			counts[run[i].Seed] += int64(1 - 2*run[i].Value)
		}
	}
}
