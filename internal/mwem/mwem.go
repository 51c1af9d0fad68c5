// Package mwem implements the paper's two Weighted Update procedures
// (Arora/Hardt-style multiplicative weights):
//
//   - Algorithm 1 — building the response matrix M^(j,k) for an attribute
//     pair from the three grids {G(j), G(k), G(j,k)} (Section 4.3);
//   - Algorithm 2 — estimating the answer of a λ-D range query from its
//     (λ choose 2) associated 2-D answers (Section 4.4);
//
// plus the Maximum-Entropy estimation of Appendix A.8 (used as an accuracy
// and convergence cross-check) and Answer, the one answering function of
// every pairwise-decomposition mechanism (TDG, HDG, CALM, LHIO): a λ-D
// query is answered from its associated 2-D answers (Section 4.4), with
// AnswerRange as its λ ≥ 2 half.
//
// Both algorithms report a per-sweep L1 change trace, which the harness uses
// to regenerate the Figure 17/18 convergence plots.
package mwem

import (
	"fmt"
	"math"

	"privmdr/internal/query"
)

// Options bound the iterative updates. Tol is the paper's convergence
// criterion — total L1 change across one full sweep below Tol (the paper
// shows any threshold ≤ 1/n behaves identically); MaxIters caps runaway
// loops when inputs are inconsistent (the ITDG/IHDG ablations use 100).
// Method selects the λ-D estimator: MethodWeightedUpdate (the paper's
// Algorithm 2, the default) or MethodMaxEntropy (Appendix A.8).
type Options struct {
	MaxIters int
	Tol      float64
	Method   Method
}

// Method selects the λ-D estimation procedure.
type Method string

// Estimation methods. The paper's §4.4 finding — reproduced by the
// ablation-maxent experiment — is that both achieve almost the same accuracy
// with weighted update converging faster, hence the default.
const (
	MethodWeightedUpdate Method = ""
	MethodMaxEntropy     Method = "maxent"
)

func (o Options) withDefaults() Options {
	if o.MaxIters <= 0 {
		o.MaxIters = 100
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	return o
}

// CellConstraint is one grid cell's contribution to Algorithm 1: the
// inclusive rectangle of matrix entries the cell covers in the pair's n×n
// matrix (1-D cells span the full range of the other attribute) and the
// cell's post-processed frequency.
type CellConstraint struct {
	R0, R1, C0, C1 int
	Freq           float64
}

// BuildResponseMatrix runs Algorithm 1 on an n×n matrix: starting from the
// uniform matrix it repeatedly rescales each constraint's rectangle so its
// mass matches the cell frequency, until the per-sweep L1 change drops
// below opts.Tol. It returns the matrix (row-major; rows = first attribute)
// and the per-sweep change trace.
//
// The paper states it over the pair's c×c value domain. HDG calls it with
// n = g, the pair's atom grid: the cells cut out by the 1-D and 2-D grid
// boundaries, each atom one entry holding its whole mass. Every rescaling
// covers whole atoms, so that is the same iteration in exact arithmetic at
// g² entries instead of c².
func BuildResponseMatrix(n int, cells []CellConstraint, opts Options) ([]float64, []float64, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("mwem: domain size %d < 1", n)
	}
	opts = opts.withDefaults()
	m := make([]float64, n*n)
	init := 1 / float64(n*n)
	for i := range m {
		m[i] = init
	}
	var trace []float64
	for iter := 0; iter < opts.MaxIters; iter++ {
		change := 0.0
		for _, s := range cells {
			y := 0.0
			for r := s.R0; r <= s.R1; r++ {
				row := m[r*n : r*n+n]
				for col := s.C0; col <= s.C1; col++ {
					y += row[col]
				}
			}
			if y == 0 {
				continue
			}
			factor := s.Freq / y
			if factor == 1 {
				continue
			}
			for r := s.R0; r <= s.R1; r++ {
				row := m[r*n : r*n+n]
				for col := s.C0; col <= s.C1; col++ {
					old := row[col]
					row[col] = old * factor
					change += math.Abs(row[col] - old)
				}
			}
		}
		trace = append(trace, change)
		if change < opts.Tol {
			break
		}
	}
	return m, trace, nil
}

// PairAnswer is the input to Algorithm 2: the answer F of the 2-D range
// query on the query's I-th and J-th predicates (0-based positions within
// the λ-D query, I < J).
type PairAnswer struct {
	I, J int
	F    float64
}

// EstimateVector runs Algorithm 2: it maintains the 2^λ vector z indexed by
// bitmask (bit ϕ set ⇔ the ϕ-th predicate holds as stated; clear ⇔ its
// complement) and rescales, for each pair answer, the masks with both bits
// set. Returns z and the per-sweep change trace. The λ-D query's estimate is
// z[2^λ−1].
func EstimateVector(lambda int, answers []PairAnswer, opts Options) ([]float64, []float64, error) {
	if lambda < 2 || lambda > 20 {
		return nil, nil, fmt.Errorf("mwem: lambda %d outside [2,20]", lambda)
	}
	opts = opts.withDefaults()
	size := 1 << lambda
	z := make([]float64, size)
	for i := range z {
		z[i] = 1 / float64(size)
	}
	// Precompute the affected masks per answer.
	masks := make([][]int, len(answers))
	for ai, a := range answers {
		if a.I < 0 || a.J < 0 || a.I >= lambda || a.J >= lambda || a.I == a.J {
			return nil, nil, fmt.Errorf("mwem: pair (%d,%d) invalid for lambda %d", a.I, a.J, lambda)
		}
		need := (1 << a.I) | (1 << a.J)
		var list []int
		for msk := 0; msk < size; msk++ {
			if msk&need == need {
				list = append(list, msk)
			}
		}
		masks[ai] = list
	}
	var trace []float64
	for iter := 0; iter < opts.MaxIters; iter++ {
		change := 0.0
		for ai, a := range answers {
			y := 0.0
			for _, msk := range masks[ai] {
				y += z[msk]
			}
			if y == 0 {
				continue
			}
			factor := a.F / y
			if factor == 1 {
				continue
			}
			for _, msk := range masks[ai] {
				old := z[msk]
				z[msk] = old * factor
				change += math.Abs(z[msk] - old)
			}
		}
		trace = append(trace, change)
		if change < opts.Tol {
			break
		}
	}
	return z, trace, nil
}

// MaxEntVector solves the Appendix A.8 maximum-entropy program over the same
// 2^λ vector: maximize −Σ z log z subject to the pairwise-answer constraints,
// via exponentiated dual ascent on the pair potentials. It exists as a
// cross-check for EstimateVector: Section 4.4 claims the two agree in
// accuracy with weighted update converging faster.
func MaxEntVector(lambda int, answers []PairAnswer, opts Options) ([]float64, []float64, error) {
	if lambda < 2 || lambda > 20 {
		return nil, nil, fmt.Errorf("mwem: lambda %d outside [2,20]", lambda)
	}
	opts = opts.withDefaults()
	if opts.MaxIters < 200 {
		opts.MaxIters = 200 // dual ascent needs more, cheaper iterations
	}
	size := 1 << lambda
	theta := make([]float64, len(answers))
	needs := make([]int, len(answers))
	clamped := make([]float64, len(answers))
	for i, a := range answers {
		if a.I < 0 || a.J < 0 || a.I >= lambda || a.J >= lambda || a.I == a.J {
			return nil, nil, fmt.Errorf("mwem: pair (%d,%d) invalid for lambda %d", a.I, a.J, lambda)
		}
		needs[i] = (1 << a.I) | (1 << a.J)
		// Dual ascent requires feasible moments in (0,1).
		clamped[i] = math.Min(math.Max(a.F, 1e-9), 1-1e-9)
	}
	z := make([]float64, size)
	var trace []float64
	step := 1.0
	for iter := 0; iter < opts.MaxIters; iter++ {
		// z ∝ exp(Σ θ_p · 1[mask ⊇ pair_p])
		zSum := 0.0
		for msk := 0; msk < size; msk++ {
			e := 0.0
			for pi, need := range needs {
				if msk&need == need {
					e += theta[pi]
				}
			}
			z[msk] = math.Exp(e)
			zSum += z[msk]
		}
		for msk := range z {
			z[msk] /= zSum
		}
		// Dual gradient: target moment − current moment, per pair.
		change := 0.0
		for pi, need := range needs {
			cur := 0.0
			for msk := 0; msk < size; msk++ {
				if msk&need == need {
					cur += z[msk]
				}
			}
			g := math.Log(clamped[pi]) - math.Log(math.Max(cur, 1e-300))
			theta[pi] += step * g
			change += math.Abs(g)
		}
		trace = append(trace, change)
		if change < opts.Tol {
			break
		}
	}
	return z, trace, nil
}

// Pair2DFunc answers the 2-D range query that restricts attribute a to
// [pa.Lo, pa.Hi] and attribute b to [pb.Lo, pb.Hi] (a < b by attribute id).
type Pair2DFunc func(a, b int, pa, pb query.Pred) (float64, error)

// Answer answers a range query against a d-attribute, domain-c schema
// through its pairwise decomposition. It validates q. A 1-D query goes to
// oneD when that is non-nil (HDG's fine 1-D grids); otherwise it is the
// marginal of the pair (a, a+1 mod d) over the partner's full range. A λ-D
// query with λ ≥ 2 goes through AnswerRange. It returns the estimate and
// the Algorithm 2 convergence trace (nil for λ ≤ 2).
func Answer(q query.Query, d, c int, oneD func(query.Pred) float64, pair2D Pair2DFunc, opts Options) (float64, []float64, error) {
	if err := q.Validate(d, c); err != nil {
		return 0, nil, err
	}
	if len(q) > 1 {
		return AnswerRange(q, pair2D, opts)
	}
	if oneD != nil {
		return oneD(q[0]), nil, nil
	}
	a := q[0].Attr
	partner := (a + 1) % d
	full := query.Pred{Attr: partner, Lo: 0, Hi: c - 1}
	if partner < a {
		f, err := pair2D(partner, a, full, q[0])
		return f, nil, err
	}
	f, err := pair2D(a, partner, q[0], full)
	return f, nil, err
}

// AnswerRange answers a λ-D range query (λ ≥ 2) through its pairwise
// decomposition, with predicates taken in attribute order: directly for
// λ = 2, via Algorithm 2 otherwise. It returns the estimate and the
// Algorithm 2 convergence trace (nil for λ = 2).
func AnswerRange(q query.Query, pair2D Pair2DFunc, opts Options) (float64, []float64, error) {
	lambda := len(q)
	if lambda < 2 {
		return 0, nil, fmt.Errorf("mwem: AnswerRange needs lambda >= 2, got %d", lambda)
	}
	if lambda == 2 {
		// Ordering two predicates is one comparison; Sorted would copy
		// them and run sort.Slice on every out-of-order query.
		pa, pb := q[0], q[1]
		if pb.Attr < pa.Attr {
			pa, pb = pb, pa
		}
		f, err := pair2D(pa.Attr, pb.Attr, pa, pb)
		return f, nil, err
	}
	qs := q.Sorted()
	var answers []PairAnswer
	for i := 0; i < lambda; i++ {
		for j := i + 1; j < lambda; j++ {
			f, err := pair2D(qs[i].Attr, qs[j].Attr, qs[i], qs[j])
			if err != nil {
				return 0, nil, err
			}
			answers = append(answers, PairAnswer{I: i, J: j, F: f})
		}
	}
	estimate := EstimateVector
	if opts.Method == MethodMaxEntropy {
		estimate = MaxEntVector
	}
	z, trace, err := estimate(lambda, answers, opts)
	if err != nil {
		return 0, nil, err
	}
	return z[(1<<lambda)-1], trace, nil
}
