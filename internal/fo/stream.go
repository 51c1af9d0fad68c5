package fo

import (
	"fmt"
	"math/bits"

	"privmdr/internal/ldprand"
)

// This file is the streaming face of the frequency oracles: every counting
// oracle's EstimateAll factors through a fixed-size integer sufficient
// statistic, so an aggregator can fold each run of reports into a count
// vector as it arrives and discard the reports — O(domain) memory instead of
// O(n), with a finalize that reads the vector instead of rescanning every
// report.
//
//   - GRR: per-value bucket counts; folding is one increment per report.
//   - OLH: the per-value support vector (how many reports hash-match each
//     domain value). Folding costs Θ(c) hash evaluations per report — the
//     same Θ(n·c) total work Support spends at finalize, but spread across
//     the ingest path where submissions to different groups already run in
//     parallel.
//   - Hadamard: per-row signed counts; folding is one signed increment, and
//     the single O(K log K) transform moves to finalize.
//
// In all three cases the statistic is a vector of exact integers, so merging
// two shards' statistics is element-wise addition and the estimates computed
// from a folded vector are bit-identical to EstimateAll over the same report
// multiset (EstimateCounts on each oracle states the argument).

// Folder folds runs of one oracle's reports into its integer sufficient
// statistic. Build one per oracle with NewFolder and share it across groups:
// FoldBatch is stateless (all state lives in the caller's count vector), so
// a Folder is safe for concurrent use as long as concurrent calls target
// distinct count vectors. The sharded collector leans on exactly this: one
// group's writers fold through the same Folder into per-stripe vectors in
// parallel (any per-fold mutable state — e.g. a lazily built hash table —
// would race, which is why OLH's valueHashes are materialized eagerly at
// NewFolder).
type Folder struct {
	statLen   int
	foldBatch func([]Report, []int64)
	estimate  func([]int64, int) []float64
}

// NewFolder returns the streaming statistic for a counting oracle. Every
// oracle this package constructs (GRR, OLH, Hadamard — and therefore
// anything NewAuto returns) supports it; a non-counting oracle from outside
// the package is reported as an error so callers can fall back to retaining
// reports.
func NewFolder(o Oracle) (*Folder, error) {
	switch o := o.(type) {
	case *GRR:
		return &Folder{
			statLen:   o.c,
			foldBatch: func(rs []Report, counts []int64) { grrFoldBatch(rs, counts, o.c) },
			estimate:  o.EstimateCounts,
		}, nil
	case *OLH:
		// The per-value inner hashes live on the oracle (valueHashes), so the
		// folder evaluates exactly the predicate Support evaluates at
		// finalize — one table, two readers, no way to drift.
		hv := o.valueHashes()
		g := o.gw
		return &Folder{
			statLen:   o.c,
			foldBatch: func(rs []Report, counts []int64) { olhFoldBatch(rs, counts, hv, g) },
			estimate:  o.EstimateCounts,
		}, nil
	case *Hadamard:
		k := uint64(o.k)
		return &Folder{
			statLen:   o.k,
			foldBatch: func(rs []Report, counts []int64) { hadamardFoldBatch(rs, counts, k) },
			estimate:  o.EstimateCounts,
		}, nil
	}
	return nil, fmt.Errorf("fo: oracle %s has no streaming sufficient statistic", o.Name())
}

// grrFoldBatch is the GRR fold: one increment per report in a tight loop.
// It mirrors EstimateAll's guard: an out-of-range value contributes to n but
// to no bucket.
func grrFoldBatch(rs []Report, counts []int64, c int) {
	for i := range rs {
		if v := rs[i].Value; v >= 0 && v < c {
			counts[v]++
		}
	}
}

// olhFoldBatch adds a run's support: for each domain value v, counts[v]
// gains the number of reports whose seeded hash lands on their value. The
// loop nest is value-outer/report-inner — the same cache order supportRange
// uses at finalize: for each domain value the inner loop streams
// sequentially through the run with the value's inner hash and the Lemire
// reducer in registers, and the per-value tally lands in counts once
// instead of once per matching report. Values go two at a time so each
// pass shares the run's loads between two independent hash chains, and the
// match increments are written branchlessly (a report matches ~1/g of the
// time, the worst case for a predictor). Bit-identical however the report
// stream is cut into runs (integer adds commute).
func olhFoldBatch(rs []Report, counts []int64, hv []uint64, g uint64) {
	counts = counts[:len(hv)] // hoist the bounds check out of the loop nest
	v := 0
	for ; v+1 < len(hv); v += 2 {
		h0, h1 := hv[v], hv[v+1]
		var n0, n1 int64
		for i := range rs {
			seed, val := rs[i].Seed, rs[i].Value
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
		for i := range rs {
			hb, _ := bits.Mul64(ldprand.SplitMix64(rs[i].Seed^h), g)
			var inc int64
			if int(hb) == rs[i].Value {
				inc = 1
			}
			n += inc
		}
		counts[v] += n
	}
}

// hadamardFoldBatch is the Hadamard fold: one signed increment per report,
// with EstimateAll's guard on the row index.
func hadamardFoldBatch(rs []Report, counts []int64, k uint64) {
	for i := range rs {
		if rs[i].Seed < k {
			counts[rs[i].Seed] += int64(1 - 2*rs[i].Value)
		}
	}
}

// StatLen is the length of the count vector FoldBatch expects.
func (f *Folder) StatLen() int { return f.statLen }

// FoldBatch adds a run of reports to counts (length StatLen) — a run of any
// length, from one report up. The reports must have passed the oracle's
// CheckReport: FoldBatch trusts their fields the same way EstimateAll trusts
// a collected report. Every statistic is a vector of commuting integer adds,
// so the counts do not depend on how the report stream was cut into runs;
// within a run, bounds checks hoist out of the inner loops and OLH runs the
// value-outer/report-inner nest Support uses at finalize.
func (f *Folder) FoldBatch(rs []Report, counts []int64) { f.foldBatch(rs, counts) }

// Estimate converts a folded statistic over n reports into frequency
// estimates — bit-identical to EstimateAll over any report multiset that
// folds to (counts, n).
func (f *Folder) Estimate(counts []int64, n int) []float64 { return f.estimate(counts, n) }
