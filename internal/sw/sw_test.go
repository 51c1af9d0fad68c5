package sw

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"privmdr/internal/ldprand"
	"privmdr/internal/mathx"
)

func TestParameters(t *testing.T) {
	for _, eps := range []float64{0.2, 0.5, 1.0, 2.0} {
		s, err := New(eps, 64)
		if err != nil {
			t.Fatal(err)
		}
		if s.Delta <= 0 {
			t.Errorf("eps=%g: delta %g should be positive", eps, s.Delta)
		}
		if s.P <= s.PP {
			t.Errorf("eps=%g: in-band density %g must exceed out-of-band %g", eps, s.P, s.PP)
		}
		if math.Abs(s.P/s.PP-math.Exp(eps)) > 1e-9 {
			t.Errorf("eps=%g: p/p' = %g, want e^eps", eps, s.P/s.PP)
		}
		// Total probability: p·2δ (in-band) + p′·(1+2δ−2δ) = 1.
		total := s.P*2*s.Delta + s.PP*1
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("eps=%g: total output mass %g, want 1", eps, total)
		}
	}
}

func TestConstructorErrors(t *testing.T) {
	if _, err := New(0, 64); err == nil {
		t.Error("eps 0 should fail")
	}
	if _, err := New(1, 1); err == nil {
		t.Error("domain 1 should fail")
	}
}

func TestPerturbRange(t *testing.T) {
	s, _ := New(1.0, 32)
	rng := ldprand.New(1)
	f := func(vRaw uint8) bool {
		v := int(vRaw) % 32
		y := s.Perturb(v, rng)
		return y >= -s.Delta-1e-12 && y <= 1+s.Delta+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketBounds(t *testing.T) {
	s, _ := New(1.0, 64)
	if b := s.Bucket(-s.Delta); b != 0 {
		t.Errorf("lowest report bucket = %d, want 0", b)
	}
	if b := s.Bucket(1 + s.Delta); b != s.B-1 {
		t.Errorf("highest report bucket = %d, want %d", b, s.B-1)
	}
	if b := s.Bucket(-100); b != 0 {
		t.Errorf("clamped low bucket = %d", b)
	}
	if b := s.Bucket(100); b != s.B-1 {
		t.Errorf("clamped high bucket = %d", b)
	}
}

func TestTransitionMatrixColumnsSumToOne(t *testing.T) {
	s, _ := New(0.7, 16)
	m := s.transitionMatrix()
	for v := 0; v < s.C; v++ {
		sum := 0.0
		for b := 0; b < s.B; b++ {
			sum += m[b][v]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("column %d sums to %g, want 1", v, sum)
		}
	}
}

func TestTransitionMatrixInBandMass(t *testing.T) {
	// The mass within distance δ of the true value must be p·2δ.
	s, _ := New(1.0, 16)
	m := s.transitionMatrix()
	v := 8
	vt := (float64(v) + 0.5) / float64(s.C)
	inBand := 0.0
	for b := 0; b < s.B; b++ {
		b0 := -s.Delta + float64(b)*s.bucketWidth
		b1 := b0 + s.bucketWidth
		lo := math.Max(b0, vt-s.Delta)
		hi := math.Min(b1, vt+s.Delta)
		if hi > lo {
			inBand += m[b][v] * (hi - lo) / (b1 - b0)
		}
	}
	want := s.P * 2 * s.Delta
	if math.Abs(inBand-want) > 0.02 {
		t.Errorf("in-band mass %g, want %g", inBand, want)
	}
}

func TestReconstructRecovers(t *testing.T) {
	// Draw from a known skewed distribution, perturb, and reconstruct.
	c := 32
	s, _ := New(2.0, c)
	dist := make([]float64, c)
	norm := 0.0
	for v := range dist {
		dist[v] = math.Exp(-float64(v) / 6)
		norm += dist[v]
	}
	for v := range dist {
		dist[v] /= norm
	}
	rng := ldprand.New(2)
	n := 200_000
	values := make([]int, n)
	for i := range values {
		u := rng.Float64()
		cum := 0.0
		for v := range dist {
			cum += dist[v]
			if u < cum || v == c-1 {
				values[i] = v
				break
			}
		}
	}
	est, err := s.Reconstruct(histogram(s, values, rng))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	l1 := 0.0
	for v := range est {
		if est[v] < -1e-12 {
			t.Errorf("negative estimate %g at %d", est[v], v)
		}
		sum += est[v]
		l1 += math.Abs(est[v] - dist[v])
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("estimates sum to %g", sum)
	}
	if l1 > 0.15 {
		t.Errorf("L1 distance %g too high for eps=2, n=200k", l1)
	}
}

func TestReconstructRangeAccuracy(t *testing.T) {
	// What MSW actually consumes: range sums over the reconstruction.
	c := 64
	s, _ := New(1.0, c)
	rng := ldprand.New(3)
	n := 100_000
	// Triangular distribution peaked at c/2.
	values := make([]int, n)
	for i := range values {
		values[i] = (rng.IntN(c) + rng.IntN(c)) / 2
	}
	truth := make([]float64, c)
	for _, v := range values {
		truth[v] += 1.0 / float64(n)
	}
	est, err := s.Reconstruct(histogram(s, values, rng))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{0, 31}, {16, 47}, {32, 63}, {10, 20}} {
		var eSum, tSum float64
		for v := r[0]; v <= r[1]; v++ {
			eSum += est[v]
			tSum += truth[v]
		}
		if math.Abs(eSum-tSum) > 0.05 {
			t.Errorf("range [%d,%d]: est %g vs truth %g", r[0], r[1], eSum, tSum)
		}
	}
}

func TestReconstructEmptyAndErrors(t *testing.T) {
	s, _ := New(1.0, 8)
	est, err := s.Reconstruct(make([]int64, s.B))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range est {
		if math.Abs(e-1.0/8) > 1e-12 {
			t.Errorf("zero reports should reconstruct uniform, got %v", est)
		}
	}
	for _, b := range []int{3, s.B + 1} {
		if _, err := s.Reconstruct(make([]int64, b)); err == nil {
			t.Errorf("%d bucket counts for %d buckets should fail", b, s.B)
		}
	}
}

func TestSmooth3PreservesMass(t *testing.T) {
	f := []float64{0.5, 0.1, 0.2, 0.15, 0.05}
	sum := 0.0
	for _, x := range f {
		sum += x
	}
	smooth3(f)
	after := 0.0
	for _, x := range f {
		after += x
	}
	if math.Abs(sum-after) > 1e-12 {
		t.Errorf("smoothing changed total mass: %g → %g", sum, after)
	}
}

func TestPerturbDistributionMatchesDensities(t *testing.T) {
	// Empirically check Pr[|y − ṽ| ≤ δ] = p·2δ.
	s, _ := New(1.0, 16)
	rng := ldprand.New(4)
	v := 7
	vt := (float64(v) + 0.5) / 16
	n := 100_000
	in := 0
	for i := 0; i < n; i++ {
		y := s.Perturb(v, rng)
		if math.Abs(y-vt) <= s.Delta {
			in++
		}
	}
	want := s.P * 2 * s.Delta
	got := float64(in) / float64(n)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("in-band fraction %g, want %g", got, want)
	}
}

// histogram perturbs every value and returns the per-bucket report counts.
func histogram(s *SW, values []int, rng *rand.Rand) []int64 {
	counts := make([]int64, s.B)
	for _, v := range values {
		counts[s.Bucket(s.Perturb(v, rng))]++
	}
	return counts
}

// transitionMatrix returns M with M[b][v] = Pr[report lands in bucket b |
// true value v]; each column sums to 1 (up to float error). With
// denseReconstruct it is the dense EM that Reconstruct replaced, kept as
// the reference Reconstruct is pinned to.
func (s *SW) transitionMatrix() [][]float64 {
	m := make([][]float64, s.B)
	for b := range m {
		m[b] = make([]float64, s.C)
	}
	for v := 0; v < s.C; v++ {
		vt := (float64(v) + 0.5) / float64(s.C)
		inLo, inHi := vt-s.Delta, vt+s.Delta
		for b := 0; b < s.B; b++ {
			b0 := -s.Delta + float64(b)*s.bucketWidth
			b1 := b0 + s.bucketWidth
			overlap := math.Min(b1, inHi) - math.Max(b0, inLo)
			if overlap < 0 {
				overlap = 0
			}
			m[b][v] = s.P*overlap + s.PP*(s.bucketWidth-overlap)
		}
	}
	return m
}

// denseReconstruct is the dense EMS loop — two B×C passes and B·C divisions
// per iteration — returning the estimate and the iterations it ran. Its
// second pass reads M by columns through a transposed copy, which changes
// no arithmetic, only the memory order (at c = 1024 the strided reads
// made it five times slower).
func (s *SW) denseReconstruct(bucketCounts []int64) ([]float64, int) {
	n := int64(0)
	for _, c := range bucketCounts {
		n += c
	}
	f := make([]float64, s.C)
	for v := range f {
		f[v] = 1 / float64(s.C)
	}
	if n == 0 {
		return f, 0
	}
	m := s.transitionMatrix()
	mt := make([][]float64, s.C)
	for v := range mt {
		mt[v] = make([]float64, s.B)
		for b := range m {
			mt[v][b] = m[b][v]
		}
	}
	obs := make([]float64, s.B)
	for b, c := range bucketCounts {
		obs[b] = float64(c) / float64(n)
	}
	next := make([]float64, s.C)
	denom := make([]float64, s.B)
	iter := 0
	for iter < emMaxIters {
		iter++
		for b := 0; b < s.B; b++ {
			d := 0.0
			row := m[b]
			for v := 0; v < s.C; v++ {
				d += row[v] * f[v]
			}
			denom[b] = d
		}
		for v := 0; v < s.C; v++ {
			acc := 0.0
			col := mt[v]
			for b := 0; b < s.B; b++ {
				if denom[b] > 0 {
					acc += obs[b] * col[b] / denom[b]
				}
			}
			next[v] = f[v] * acc
		}
		smooth3(next)
		normalize(next)
		change := 0.0
		for v := range f {
			change += math.Abs(next[v] - f[v])
		}
		copy(f, next)
		if change < emTol {
			break
		}
	}
	return f, iter
}

// skewedValues draws n values from a two-bump distribution over [0, c).
func skewedValues(n, c int, rng *rand.Rand) []int {
	values := make([]int, n)
	for i := range values {
		x := 0.3 + 0.1*rng.NormFloat64()
		if rng.IntN(3) == 0 {
			x = 0.75 + 0.05*rng.NormFloat64()
		}
		values[i] = min(max(int(x*float64(c)), 0), c-1)
	}
	return values
}

// TestReconstructMatchesDense pins the O(B + C) EM iteration to the dense
// one: the same number of iterations, every probability within 1e-12, and
// every 1-D range answer MSW reads off the estimate within 1e-12.
func TestReconstructMatchesDense(t *testing.T) {
	const tol = 1e-12
	for _, c := range []int{2, 3, 4, 16, 64, 100, 256, 1024} {
		for ei, eps := range []float64{0.2, 0.5, 1, 2, 4} {
			t.Run(fmt.Sprintf("c=%d/eps=%g", c, eps), func(t *testing.T) {
				if raceEnabled && c > 64 {
					t.Skip("dense reference too slow under -race")
				}
				t.Parallel()
				s, err := New(eps, c)
				if err != nil {
					t.Fatal(err)
				}
				rng := ldprand.New(uint64(1000*c + ei))
				values := skewedValues(100_000, c, rng)
				counts := make([]int64, s.B)
				seen := 0
				var worstF, worstAns float64
				for _, n := range []int{1, 500, 10_923, 100_000} {
					for _, v := range values[seen:n] {
						counts[s.Bucket(s.Perturb(v, rng))]++
					}
					seen = n
					got, iters, err := s.reconstruct(counts)
					if err != nil {
						t.Fatal(err)
					}
					want, wantIters := s.denseReconstruct(counts)
					if iters != wantIters {
						t.Errorf("n=%d: %d iterations, dense reference ran %d", n, iters, wantIters)
					}
					for v := range want {
						worstF = max(worstF, math.Abs(got[v]-want[v]))
					}
					gotCDF, wantCDF := mathx.Prefix1D(got), mathx.Prefix1D(want)
					for lo := 0; lo < c; lo++ {
						for hi := lo; hi < c; hi++ {
							d := (gotCDF[hi+1] - gotCDF[lo]) - (wantCDF[hi+1] - wantCDF[lo])
							worstAns = max(worstAns, math.Abs(d))
						}
					}
					if worstF > tol || worstAns > tol {
						t.Fatalf("n=%d: max |Δf| = %.3g, max |Δ answer| = %.3g, want ≤ %g", n, worstF, worstAns, tol)
					}
				}
				t.Logf("max |Δf| = %.3g, max |Δ answer| = %.3g", worstF, worstAns)
			})
		}
	}
}

// BenchmarkReconstruct times one EMS reconstruction at ε = 1 over n = 10 923
// reports, in the production O(B + C) form and the dense reference.
func BenchmarkReconstruct(b *testing.B) {
	for _, c := range []int{64, 256, 1024} {
		s, err := New(1, c)
		if err != nil {
			b.Fatal(err)
		}
		rng := ldprand.New(uint64(c))
		counts := histogram(s, skewedValues(10_923, c, rng), rng)
		b.Run(fmt.Sprintf("c=%d/prefix", c), func(b *testing.B) {
			for b.Loop() {
				if _, err := s.Reconstruct(counts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("c=%d/dense", c), func(b *testing.B) {
			for b.Loop() {
				s.denseReconstruct(counts)
			}
		})
	}
}
