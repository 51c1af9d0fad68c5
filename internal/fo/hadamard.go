package fo

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
)

// Hadamard is the Hadamard-response frequency oracle: each user samples a
// uniform row index j of the K×K Hadamard matrix (K the smallest power of
// two > c), computes the matrix entry at column v+1, and reports the entry's
// sign bit through binary randomized response. Aggregation is a single fast
// Walsh–Hadamard transform, O(K log K + n) — independent of n·c.
//
// It exists because OLH aggregation is Θ(n·c): exact but hopeless for the
// c² ≥ 2^20 marginal domains CALM and LHIO face at c = 2^10 (Figure 3). Its
// variance, (e^ε+1)²/((e^ε−1)² n), is within a small constant of OLH's
// 4e^ε/((e^ε−1)² n) (ratio ≈ 1.27 at ε = 1), so substituting it above a
// domain-size threshold preserves every qualitative comparison; NewAuto
// makes the substitution above autoHadamardThreshold.
type Hadamard struct {
	eps  float64
	c    int
	k    int     // Hadamard order, power of two > c
	flip float64 // probability of flipping the sign bit = 1/(e^ε+1)
}

// NewHadamard returns a Hadamard-response oracle for domain size c.
func NewHadamard(eps float64, c int) (*Hadamard, error) {
	if c < 2 {
		return nil, fmt.Errorf("fo: hadamard domain must be at least 2, got %d", c)
	}
	if eps <= 0 {
		return nil, fmt.Errorf("fo: epsilon must be positive, got %g", eps)
	}
	k := 2
	for k <= c { // need column indices 1..c, so K > c
		k *= 2
	}
	return &Hadamard{eps: eps, c: c, k: k, flip: 1 / (math.Exp(eps) + 1)}, nil
}

// Name implements Oracle.
func (h *Hadamard) Name() string { return "hadamard" }

// Domain implements Oracle.
func (h *Hadamard) Domain() int { return h.c }

// Order returns the Hadamard matrix order K.
func (h *Hadamard) Order() int { return h.k }

// entry returns the (row, col) entry of the order-K Hadamard matrix as
// 0 (+1) or 1 (−1): the parity of popcount(row & col).
func entry(row, col uint64) int {
	return bits.OnesCount64(row&col) & 1
}

// Perturb implements Oracle: Seed carries the sampled row index, Value the
// (possibly flipped) sign bit.
func (h *Hadamard) Perturb(v int, rng *rand.Rand) Report {
	row := uint64(rng.IntN(h.k))
	bit := entry(row, uint64(v+1))
	if rng.Float64() < h.flip {
		bit ^= 1
	}
	return Report{Seed: row, Value: bit}
}

// CheckReport implements Oracle: Seed is a matrix row, Value a sign bit.
func (h *Hadamard) CheckReport(r Report) error {
	if r.Seed >= uint64(h.k) {
		return fmt.Errorf("fo: hadamard report row %d outside [0,%d)", r.Seed, h.k)
	}
	if r.Value != 0 && r.Value != 1 {
		return fmt.Errorf("fo: hadamard report bit %d not in {0,1}", r.Value)
	}
	return nil
}

// EstimateCounts implements Oracle over the folded per-row signed counts:
// transform once and rescale.
func (h *Hadamard) EstimateCounts(counts []int64, n int) []float64 {
	y := make([]float64, h.k)
	for i, c := range counts {
		y[i] = float64(c)
	}
	fwht(y)
	est := make([]float64, h.c)
	if n == 0 {
		return est
	}
	ee := math.Exp(h.eps)
	scale := (ee + 1) / (ee - 1) // (p−q)⁻¹ for binary randomized response
	nf := float64(n)
	for v := 0; v < h.c; v++ {
		est[v] = y[v+1] * scale / nf
	}
	return est
}

// Var implements Oracle.
func (h *Hadamard) Var(n int) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	ee := math.Exp(h.eps)
	r := (ee + 1) / (ee - 1)
	return r * r / float64(n)
}

// fwht applies the in-place fast Walsh–Hadamard transform (unnormalized).
func fwht(a []float64) {
	for step := 1; step < len(a); step *= 2 {
		for i := 0; i < len(a); i += 2 * step {
			for j := i; j < i+step; j++ {
				x, y := a[j], a[j+step]
				a[j], a[j+step] = x+y, x-y
			}
		}
	}
}

// NewAuto picks the cheapest oracle that is statistically adequate for the
// domain: GRR for small domains (lower variance there), OLH for mid-size
// domains, and Hadamard response above autoHadamardThreshold where OLH's
// Θ(n·c) aggregation becomes the bottleneck.
func NewAuto(eps float64, c int) (Oracle, error) {
	if float64(c)-2 < 3*math.Exp(eps) {
		return NewGRR(eps, c)
	}
	if c <= autoHadamardThreshold {
		return NewOLH(eps, c)
	}
	return NewHadamard(eps, c)
}

// autoHadamardThreshold is the domain size above which NewAuto switches from
// OLH to Hadamard response.
const autoHadamardThreshold = 1 << 13
