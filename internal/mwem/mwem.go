// Package mwem implements the paper's two Weighted Update procedures
// (Arora/Hardt-style multiplicative weights):
//
//   - Algorithm 1 — building the response matrix M^(j,k) for an attribute
//     pair from the three grids {G(j), G(k), G(j,k)} (Section 4.3), on the
//     pair's atom grid and in product form: every update rescales a whole
//     band or cell, so a sweep touches only per-band and per-cell factors;
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
	"math/bits"

	"privmdr/internal/mathx"
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

// BuildResponseMatrix runs Algorithm 1 (Section 4.3) for one attribute pair
// (j, k) from its three grids: rows holds G(j)'s g₁ frequencies, cols
// G(k)'s g₁, and cells the g₂×g₂ frequencies of G(j,k), row-major; g₁ and g₂
// are powers of two. Starting from the uniform matrix it sweeps the
// constraints — rows, then columns, then 2-D cells — rescaling each one's
// mass to its frequency, until the per-sweep L1 change drops below
// opts.Tol. It returns the matrix on the pair's g×g atom grid,
// g = max(g₁, g₂) (row-major; rows = attribute j), and the per-sweep change
// trace.
//
// The paper states Algorithm 1 over the pair's c×c value domain. The 1-D
// and 2-D cell boundaries cut it into the g×g atoms, and every rescaling
// covers whole atoms, so iterating on atom masses is the same computation in
// exact arithmetic. Each rescaling multiplies a whole band (a 1-D cell's
// atoms) or a whole 2-D cell, so atom (x, y) always holds
// u[band(x)]·v[band(y)]·w[cell(x, y)], and the iteration updates only these
// factors. A band's mass is its factor times a sum over the g₂×g₂ cells of w
// weighted by the other attribute's factor sums, and a cell's is w times one
// factor sum per attribute. A sweep thus costs O(g + g₂²), and the g² atoms
// are multiplied out once at the end.
func BuildResponseMatrix(rows, cols, cells []float64, opts Options) ([]float64, []float64, error) {
	g1 := len(rows)
	g2 := int(math.Sqrt(float64(len(cells))))
	if len(cols) != g1 || g2*g2 != len(cells) || !mathx.IsPow2(g1) || !mathx.IsPow2(g2) {
		return nil, nil, fmt.Errorf("mwem: grids of %d, %d and %d cells are not g₁, g₁ and g₂×g₂ for powers of two g₁, g₂", len(rows), len(cols), len(cells))
	}
	opts = opts.withDefaults()
	g := max(g1, g2)
	// Atom x lies in band x>>s1 and in block x>>s2, the blocks being the
	// 2-D grid's rows (or columns). One of s1 and s2 is 0.
	s1, s2 := uint(bits.TrailingZeros(uint(g/g1))), uint(bits.TrailingZeros(uint(g/g2)))
	// The factors u, v and w, w holding the uniform start 1/g². Per block:
	// U and V, the sums of u and v over the block's atoms, and S, one atom
	// row's (or column's) mass per unit of its band's factor. Each has an
	// absolute twin for the L1 change; IHDG's negative cells make them
	// differ.
	buf := make([]float64, 2*g1+g2*g2+6*g2)
	carve := func(n int) []float64 {
		s := buf[:n:n]
		buf = buf[n:]
		return s
	}
	u, v, w := carve(g1), carve(g1), carve(g2*g2)
	U, Uabs, V, Vabs, S, Sabs := carve(g2), carve(g2), carve(g2), carve(g2), carve(g2), carve(g2)
	for i := range u {
		u[i], v[i] = 1, 1
	}
	init := 1 / float64(g*g)
	for i := range w {
		w[i] = init
	}
	var trace []float64
	blockSums(V, Vabs, v, s1, s2)
	for iter := 0; iter < opts.MaxIters; iter++ {
		change := 0.0
		// Rows: an atom row in block I holds u·Σ_J w[I][J]·V[J].
		for I := range S {
			m, a := 0.0, 0.0
			for J, wij := range w[I*g2 : (I+1)*g2] {
				m += wij * V[J]
				a += math.Abs(wij) * Vabs[J]
			}
			S[I], Sabs[I] = m, a
		}
		change += rescaleBands(u, rows, S, Sabs, s1, s2)
		// Columns: an atom column in block J holds v·Σ_I w[I][J]·U[I].
		blockSums(U, Uabs, u, s1, s2)
		for J := range S {
			m, a := 0.0, 0.0
			for I, ui := range U {
				wij := w[I*g2+J]
				m += wij * ui
				a += math.Abs(wij) * Uabs[I]
			}
			S[J], Sabs[J] = m, a
		}
		change += rescaleBands(v, cols, S, Sabs, s1, s2)
		// 2-D cells: cell (I, J) holds w·U[I]·V[J]. The cells leave v alone,
		// so V also serves the next sweep's rows.
		blockSums(V, Vabs, v, s1, s2)
		for I := range U {
			for J := range V {
				i := I*g2 + J
				change += rescale(&w[i], cells[i], U[I]*V[J], Uabs[I]*Vabs[J])
			}
		}
		rebalance(u, Uabs, w, g2, s1, s2, false)
		if rebalance(v, Vabs, w, g2, s1, s2, true) {
			blockSums(V, Vabs, v, s1, s2)
		}
		trace = append(trace, change)
		if change < opts.Tol {
			break
		}
	}
	m := make([]float64, g*g)
	for x := 0; x < g; x++ {
		ux, wx, row := u[x>>s1], w[(x>>s2)*g2:], m[x*g:(x+1)*g]
		for y := range row {
			row[y] = ux * v[y>>s1] * wx[y>>s2]
		}
	}
	return m, trace, nil
}

// blockSums sets sum[J] and abs[J] to the sum of the band factors f, and of
// |f|, over the atoms of block J: the 1<<s2 one-atom bands from J<<s2 when
// s1 = 0, or the one band J>>s1 when s2 = 0.
func blockSums(sum, abs, f []float64, s1, s2 uint) {
	for J := range sum {
		s, a := 0.0, 0.0
		lo := J << s2 >> s1
		for _, fi := range f[lo : lo+1<<s2] {
			s += fi
			a += math.Abs(fi)
		}
		sum[J], abs[J] = s, a
	}
}

// rescaleBands runs the constraints of one attribute's 1-D grid and returns
// their L1 change. Band i has factor f[i] and holds f[i] times the sum of
// mass over its atoms, mass[I] being one atom's mass in block I per unit of
// factor: the band is one atom of block i>>s2 when s1 = 0, or spans the
// 1<<s1 one-atom blocks from i<<s1 when s2 = 0.
func rescaleBands(f, freqs, mass, abs []float64, s1, s2 uint) float64 {
	change := 0.0
	for i, freq := range freqs {
		m, a := 0.0, 0.0
		lo := i << s1 >> s2
		for I, mI := range mass[lo : lo+1<<s1] {
			m += mI
			a += abs[lo+I]
		}
		change += rescale(&f[i], freq, m, a)
	}
	return change
}

// rebalance keeps one attribute's band factors f within [2⁻⁶⁴, 2⁶⁴] and
// reports whether it moved any; abs[I] is the sum of |f| over block I's
// atoms. A unit, the coarser of a band and a block, keeps u·v·w when its
// bands' factors are divided by a power of two and its blocks' w (rows of w
// for rows, columns for cols) multiplied by it, and powers of two scale
// exactly, so the iteration is unchanged. Where a constraint's mass nearly
// cancels, as on IHDG's raw grids, each sweep can grow a band's factor by
// orders of magnitude and shrink its cells' w by as much; without this the
// factors would overflow while the matrix stayed finite.
func rebalance(f, abs, w []float64, g2 int, s1, s2 uint, cols bool) bool {
	moved := false
	for k := 0; k < g2>>s1; k++ {
		a := abs[k<<s1]
		if a == 0 || (a >= 0x1p-64 && a <= 0x1p64) {
			continue
		}
		_, e := math.Frexp(a)
		for i := k << s2; i < (k+1)<<s2; i++ {
			f[i] = math.Ldexp(f[i], -e)
		}
		for I := k << s1; I < (k+1)<<s1; I++ {
			for J := 0; J < g2; J++ {
				if cols {
					w[J*g2+I] = math.Ldexp(w[J*g2+I], e)
				} else {
					w[I*g2+J] = math.Ldexp(w[I*g2+J], e)
				}
			}
		}
		moved = true
	}
	return moved
}

// rescale is one constraint of Algorithm 1 on a factor p whose constraint
// holds mass p·m (absolute mass |p|·a): it scales p so that mass equals freq
// and returns the L1 change, |factor − 1| times the absolute mass. A
// constraint with zero mass, or one already met, is left alone.
func rescale(p *float64, freq, m, a float64) float64 {
	y := *p * m
	if y == 0 {
		return 0
	}
	factor := freq / y
	if factor == 1 {
		return 0
	}
	change := math.Abs(factor-1) * math.Abs(*p) * a
	*p *= factor
	return change
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
