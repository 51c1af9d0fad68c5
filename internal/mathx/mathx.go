// Package mathx contains the small numeric kernels the rest of the module
// builds on: power-of-two rounding for the granularity guideline, inverse
// CDFs for copula sampling, and 1-D/2-D prefix sums for O(1) range
// aggregation.
package mathx

import (
	"fmt"
	"math"
)

// RoundPow2 returns the power of two closest to x in linear distance,
// clamped to [1, cap]. Ties round down (toward the smaller power), matching
// the conservative choice in the paper's guideline. cap must itself be a
// power of two.
func RoundPow2(x float64, cap int) int {
	if cap < 1 {
		return 1
	}
	if x <= 1 {
		return 1
	}
	lo := 1
	for lo*2 <= cap && float64(lo*2) <= x {
		lo *= 2
	}
	// lo <= x < 2*lo (or lo == cap).
	if lo == cap {
		return cap
	}
	hi := lo * 2
	if x-float64(lo) <= float64(hi)-x {
		return lo
	}
	return hi
}

// IsPow2 reports whether v is a positive power of two.
func IsPow2(v int) bool {
	return v > 0 && v&(v-1) == 0
}

// NormCDF is the standard normal cumulative distribution function.
func NormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormQuantile is the standard normal inverse CDF.
func NormQuantile(p float64) float64 {
	switch {
	case p <= 0:
		return math.Inf(-1)
	case p >= 1:
		return math.Inf(1)
	}
	return -math.Sqrt2 * math.Erfinv(1-2*p)
}

// LaplaceQuantile is the inverse CDF of the Laplace(0, b) distribution.
func LaplaceQuantile(p, b float64) float64 {
	switch {
	case p <= 0:
		return math.Inf(-1)
	case p >= 1:
		return math.Inf(1)
	case p < 0.5:
		return b * math.Log(2*p)
	default:
		return -b * math.Log(2*(1-p))
	}
}

// ExpQuantile is the inverse CDF of the Exponential(rate) distribution.
func ExpQuantile(p, rate float64) float64 {
	if p >= 1 {
		return math.Inf(1)
	}
	if p <= 0 {
		return 0
	}
	return -math.Log(1-p) / rate
}

// Prefix1D returns the running sums s where s[i] = Σ_{k<i} v[k]; len(s) ==
// len(v)+1, so a range sum over inclusive [lo,hi] is s[hi+1]-s[lo].
func Prefix1D(v []float64) []float64 {
	s := make([]float64, len(v)+1)
	for i, x := range v {
		s[i+1] = s[i] + x
	}
	return s
}

// Prefix2D holds 2-D inclusive-prefix sums over an r×c matrix, giving O(1)
// rectangle sums.
type Prefix2D struct {
	rows, cols int
	s          []float64 // (rows+1)×(cols+1)
}

// NewPrefix2D builds prefix sums over m (row-major, rows×cols).
func NewPrefix2D(m []float64, rows, cols int) (*Prefix2D, error) {
	if len(m) != rows*cols {
		return nil, fmt.Errorf("mathx: prefix2d matrix has %d entries, want %d", len(m), rows*cols)
	}
	p := &Prefix2D{rows: rows, cols: cols, s: make([]float64, (rows+1)*(cols+1))}
	w := cols + 1
	for i := 0; i < rows; i++ {
		rowSum := 0.0
		for j := 0; j < cols; j++ {
			rowSum += m[i*cols+j]
			p.s[(i+1)*w+j+1] = p.s[i*w+j+1] + rowSum
		}
	}
	return p, nil
}

// At returns the sum of the block [0,i)×[0,j): the prefix table entry, for
// 0 ≤ i ≤ rows and 0 ≤ j ≤ cols.
func (p *Prefix2D) At(i, j int) float64 { return p.s[i*(p.cols+1)+j] }

// RangeSum returns the sum of the inclusive rectangle [r0,r1]×[c0,c1].
func (p *Prefix2D) RangeSum(r0, r1, c0, c1 int) float64 {
	if r0 > r1 || c0 > c1 {
		return 0
	}
	if r0 < 0 {
		r0 = 0
	}
	if c0 < 0 {
		c0 = 0
	}
	if r1 >= p.rows {
		r1 = p.rows - 1
	}
	if c1 >= p.cols {
		c1 = p.cols - 1
	}
	w := p.cols + 1
	return p.s[(r1+1)*w+c1+1] - p.s[r0*w+c1+1] - p.s[(r1+1)*w+c0] + p.s[r0*w+c0]
}

// Clamp restricts x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// ClampInt restricts x to [lo, hi].
func ClampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// SumFloat64 returns the sum of v.
func SumFloat64(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of v (0 for empty input).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return SumFloat64(v) / float64(len(v))
}
