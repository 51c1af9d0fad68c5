// Package sw implements the Square Wave mechanism of Li et al. (SIGMOD 2020)
// as described in Section 3.5 of the paper, together with its smoothed
// Expectation-Maximization reconstruction (EMS). It is the substrate of the
// MSW baseline.
//
// A user's ordinal value v ∈ [0,c) is normalized to ṽ = (v+0.5)/c ∈ (0,1) and
// reported as a point y ∈ [−δ, 1+δ]: values within distance δ of ṽ are
// reported with (higher) density p, everything else with density p′. The
// aggregator buckets the reports and runs EMS against the bucketized
// transition matrix to recover the value distribution.
package sw

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// SW holds the parameters of a Square Wave mechanism instance.
type SW struct {
	Eps   float64
	C     int     // input domain size
	Delta float64 // closeness threshold δ
	P     float64 // in-band density
	PP    float64 // out-of-band density p′
	B     int     // number of report buckets

	bucketWidth float64

	// The index tables of the EM step (see reconstruct). They depend only
	// on (ε, c), so every reconstruction through this instance shares them.
	vt    []float64  // ṽ of each value
	edges []emEdge   // one per bucket edge e_0 … e_B
	ends  [][2]emEnd // each value's window ends ṽ − δ and ṽ + δ
}

// emEdge is bucket edge e = −δ + i·w, measured from −δ (x = e + δ = i·w),
// with the counts of value windows it has passed entirely (full = #{v :
// ṽ + δ ≤ e}) and reached (reached = #{v : ṽ − δ < e}).
type emEdge struct {
	x             float64
	full, reached int
}

// emEnd locates a window end in the bucket grid: bucket k, at offset off
// from its left edge e_k.
type emEnd struct {
	k   int
	off float64
}

// New returns a Square Wave mechanism for domain size c under budget eps.
// The number of report buckets is max(c, 32) over the output range
// [−δ, 1+δ], which keeps the EM transition matrix well conditioned at small
// domains without blowing up memory at large ones.
func New(eps float64, c int) (*SW, error) {
	if c < 2 {
		return nil, fmt.Errorf("sw: domain must be at least 2, got %d", c)
	}
	if eps <= 0 {
		return nil, fmt.Errorf("sw: epsilon must be positive, got %g", eps)
	}
	ee := math.Exp(eps)
	delta := (eps*ee - ee + 1) / (2 * ee * (ee - 1 - eps))
	s := &SW{
		Eps:   eps,
		C:     c,
		Delta: delta,
		P:     ee / (2*delta*ee + 1),
		PP:    1 / (2*delta*ee + 1),
	}
	s.B = c
	if s.B < 32 {
		s.B = 32
	}
	s.bucketWidth = (1 + 2*delta) / float64(s.B)
	// Window ends in the coordinate x = y + δ, in which value v's window is
	// [ṽ, ṽ + 2δ] and bucket b is [b·w, (b+1)·w).
	s.vt = make([]float64, c)
	s.ends = make([][2]emEnd, c)
	for v := range s.vt {
		s.vt[v] = (float64(v) + 0.5) / float64(c)
		for i, x := range [2]float64{s.vt[v], s.vt[v] + 2*delta} {
			k := min(int(x/s.bucketWidth), s.B-1)
			s.ends[v][i] = emEnd{k: k, off: x - float64(k)*s.bucketWidth}
		}
	}
	s.edges = make([]emEdge, s.B+1)
	full, reached := 0, 0
	for i := range s.edges {
		x := float64(i) * s.bucketWidth
		for full < c && s.vt[full]+2*delta <= x {
			full++
		}
		for reached < c && s.vt[reached] < x {
			reached++
		}
		s.edges[i] = emEdge{x: x, full: full, reached: reached}
	}
	return s, nil
}

// Perturb sanitizes one user's value, returning a report in [−δ, 1+δ].
func (s *SW) Perturb(v int, rng *rand.Rand) float64 {
	vt := (float64(v) + 0.5) / float64(s.C)
	lo, hi := vt-s.Delta, vt+s.Delta
	pIn := s.P * 2 * s.Delta // total in-band probability mass
	if rng.Float64() < pIn {
		return lo + rng.Float64()*(hi-lo)
	}
	// Out of band: uniform over [−δ, lo) ∪ (hi, 1+δ].
	left := lo - (-s.Delta)
	right := (1 + s.Delta) - hi
	u := rng.Float64() * (left + right)
	if u < left {
		return -s.Delta + u
	}
	return hi + (u - left)
}

// Bucket maps a report to its bucket index in [0, B).
func (s *SW) Bucket(y float64) int {
	b := int((y + s.Delta) / s.bucketWidth)
	if b < 0 {
		b = 0
	}
	if b >= s.B {
		b = s.B - 1
	}
	return b
}

// MSW's one reconstruction configuration: EMS, stopped after emMaxIters
// iterations or once an iteration moves the estimate by less than emTol in
// L1.
const (
	emMaxIters = 400
	emTol      = 1e-7
)

// Reconstruct runs EMS — EM with a binomial smoothing step each iteration —
// over the per-bucket report histogram a streaming collector folds, and
// returns the estimated value distribution (length C, sums to 1).
func (s *SW) Reconstruct(bucketCounts []int64) ([]float64, error) {
	f, _, err := s.reconstruct(bucketCounts)
	return f, err
}

// reconstruct is Reconstruct that also returns how many EM iterations ran.
//
// The bucketized transition matrix is M[b][v] = p′·w + (p − p′)·|I_b ∩ W_v|
// for bucket I_b = [e_b, e_b + w) and value window W_v = [ṽ − δ, ṽ + δ]: a
// constant plus a box convolution. So both products an EM iteration needs
// come from prefix sums, in O(B + C) instead of O(B·C):
//
//	(M·f)[b]  = p′w·Σf + (p − p′)·(G(e_{b+1}) − G(e_b)),  G(x) = Σ_v f_v·|(−∞, x] ∩ W_v|
//	(Mᵀr)[v] = p′w·Σr + (p − p′)·(H(ṽ + δ) − H(ṽ − δ)),  H(x) = Σ_b r_b·|I_b ∩ (−∞, x]|
//
// G at edge e is 2δ·F[j₁] + (e + δ)·(F[j₂] − F[j₁]) − (T[j₂] − T[j₁]), with F
// and T the prefix sums of f and f·ṽ, j₁ = #{v : ṽ + δ ≤ e} and
// j₂ = #{v : ṽ − δ < e}; s.edges holds e + δ, j₁ and j₂ for every edge.
// H(x) is w·R[k] + r_k·(x − e_k) for x in bucket k, with R the prefix sum of
// r = obs/(M·f); s.ends holds k and x − e_k for every window end. An
// iteration thus takes B divisions where the dense form took B·C. In exact
// arithmetic it is the dense iteration, and the test-only dense reference
// pins the two together.
func (s *SW) reconstruct(bucketCounts []int64) ([]float64, int, error) {
	if len(bucketCounts) != s.B {
		return nil, 0, fmt.Errorf("sw: got %d bucket counts, want %d", len(bucketCounts), s.B)
	}
	n := int64(0)
	for _, c := range bucketCounts {
		n += c
	}
	f := make([]float64, s.C)
	for v := range f {
		f[v] = 1 / float64(s.C)
	}
	if n == 0 {
		return f, 0, nil
	}
	obs := make([]float64, s.B)
	for b, c := range bucketCounts {
		obs[b] = float64(c) / float64(n)
	}
	next := make([]float64, s.C)
	pf := make([]float64, s.C+1) // F: prefix sums of f
	pt := make([]float64, s.C+1) // T: prefix sums of f·ṽ
	r := make([]float64, s.B)
	pr := make([]float64, s.B+1) // R: prefix sums of r
	base := s.PP * s.bucketWidth
	band := s.P - s.PP
	for iter := 1; ; iter++ {
		for v, x := range f {
			pf[v+1] = pf[v] + x
			pt[v+1] = pt[v] + x*s.vt[v]
		}
		g := func(e emEdge) float64 {
			return 2*s.Delta*pf[e.full] + e.x*(pf[e.reached]-pf[e.full]) - (pt[e.reached] - pt[e.full])
		}
		lo := g(s.edges[0])
		for b := range r {
			hi := g(s.edges[b+1])
			// M·f ≥ p′w·Σf > 0: f is a normalized distribution.
			r[b] = obs[b] / (base*pf[s.C] + band*(hi-lo))
			pr[b+1] = pr[b] + r[b]
			lo = hi
		}
		h := func(e emEnd) float64 { return s.bucketWidth*pr[e.k] + r[e.k]*e.off }
		for v := range next {
			next[v] = f[v] * (base*pr[s.B] + band*(h(s.ends[v][1])-h(s.ends[v][0])))
		}
		smooth3(next)
		normalize(next)
		change := 0.0
		for v := range f {
			change += math.Abs(next[v] - f[v])
		}
		copy(f, next)
		if change < emTol || iter == emMaxIters {
			return f, iter, nil
		}
	}
}

// smooth3 applies the binomial kernel (1,2,1)/4 in place, reflecting at the
// boundaries.
func smooth3(f []float64) {
	n := len(f)
	if n < 3 {
		return
	}
	prev := f[0]
	f[0] = (3*f[0] + f[1]) / 4
	for i := 1; i < n-1; i++ {
		cur := f[i]
		f[i] = (prev + 2*cur + f[i+1]) / 4
		prev = cur
	}
	f[n-1] = (prev + 3*f[n-1]) / 4
}

func normalize(f []float64) {
	s := 0.0
	for _, x := range f {
		if x > 0 {
			s += x
		}
	}
	if s <= 0 {
		for i := range f {
			f[i] = 1 / float64(len(f))
		}
		return
	}
	for i := range f {
		if f[i] < 0 {
			f[i] = 0
		} else {
			f[i] /= s
		}
	}
}
