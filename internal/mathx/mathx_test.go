package mathx

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestRoundPow2Table(t *testing.T) {
	cases := []struct {
		x    float64
		cap  int
		want int
	}{
		{0, 64, 1},
		{0.4, 64, 1},
		{1, 64, 1},
		{1.4, 64, 1},
		{1.6, 64, 2},
		{2, 64, 2},
		{3, 64, 2}, // tie 2 vs 4 rounds down
		{3.01, 64, 4},
		{5.9, 64, 4},
		{6.1, 64, 8},
		{23.3, 64, 16}, // the guideline example from Table 2 (ε=1, d=6, n=1e6)
		{40.1, 64, 32},
		{100, 64, 64},  // clamped to cap
		{1e12, 64, 64}, // clamped to cap
		{5, 4, 4},
		{7, 2, 2},
		{3, 1, 1},
	}
	for _, c := range cases {
		if got := RoundPow2(c.x, c.cap); got != c.want {
			t.Errorf("RoundPow2(%g, %d) = %d, want %d", c.x, c.cap, got, c.want)
		}
	}
}

func TestRoundPow2Properties(t *testing.T) {
	f := func(xRaw uint32, capExp uint8) bool {
		x := float64(xRaw%100000) / 7.0
		cap := 1 << (capExp % 12)
		got := RoundPow2(x, cap)
		if !IsPow2(got) || got > cap || got < 1 {
			return false
		}
		// No other power of two within cap is strictly closer.
		for p := 1; p <= cap; p *= 2 {
			if math.Abs(float64(p)-x) < math.Abs(float64(got)-x)-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestIsPow2(t *testing.T) {
	for _, v := range []int{1, 2, 4, 8, 1024, 1 << 30} {
		if !IsPow2(v) {
			t.Errorf("IsPow2(%d) = false, want true", v)
		}
	}
	for _, v := range []int{0, -1, -4, 3, 6, 12, 1000} {
		if IsPow2(v) {
			t.Errorf("IsPow2(%d) = true, want false", v)
		}
	}
}

func TestNormCDFQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		x := NormQuantile(p)
		back := NormCDF(x)
		if math.Abs(back-p) > 1e-9 {
			t.Errorf("NormCDF(NormQuantile(%g)) = %g", p, back)
		}
	}
	if NormQuantile(0.5) != 0 {
		t.Errorf("NormQuantile(0.5) = %g, want 0", NormQuantile(0.5))
	}
	if !math.IsInf(NormQuantile(0), -1) || !math.IsInf(NormQuantile(1), 1) {
		t.Error("NormQuantile boundary values should be infinite")
	}
}

func TestNormQuantileSymmetry(t *testing.T) {
	f := func(raw uint32) bool {
		p := 0.001 + 0.998*float64(raw)/float64(math.MaxUint32)
		return math.Abs(NormQuantile(p)+NormQuantile(1-p)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLaplaceQuantile(t *testing.T) {
	if LaplaceQuantile(0.5, 1) != 0 {
		t.Error("Laplace median should be 0")
	}
	// CDF(x) = 0.5·exp(x/b) for x<0: roundtrip check.
	for _, p := range []float64{0.05, 0.2, 0.5, 0.8, 0.95} {
		x := LaplaceQuantile(p, 2.0)
		var cdf float64
		if x < 0 {
			cdf = 0.5 * math.Exp(x/2.0)
		} else {
			cdf = 1 - 0.5*math.Exp(-x/2.0)
		}
		if math.Abs(cdf-p) > 1e-9 {
			t.Errorf("Laplace CDF(Q(%g)) = %g", p, cdf)
		}
	}
	if !math.IsInf(LaplaceQuantile(0, 1), -1) || !math.IsInf(LaplaceQuantile(1, 1), 1) {
		t.Error("Laplace boundary quantiles should be infinite")
	}
}

func TestExpQuantile(t *testing.T) {
	for _, p := range []float64{0.1, 0.5, 0.9} {
		x := ExpQuantile(p, 3.0)
		cdf := 1 - math.Exp(-3.0*x)
		if math.Abs(cdf-p) > 1e-9 {
			t.Errorf("Exp CDF(Q(%g)) = %g", p, cdf)
		}
	}
	if ExpQuantile(0, 1) != 0 {
		t.Error("ExpQuantile(0) should be 0")
	}
	if !math.IsInf(ExpQuantile(1, 1), 1) {
		t.Error("ExpQuantile(1) should be +Inf")
	}
}

func TestPrefix1D(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	s := Prefix1D(v)
	want := []float64{0, 1, 3, 6, 10}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("Prefix1D = %v, want %v", s, want)
		}
	}
	// Inclusive range [1,2] = 2+3.
	if got := s[3] - s[1]; got != 5 {
		t.Errorf("range sum = %g, want 5", got)
	}
}

func TestPrefix2DAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 30; trial++ {
		rows := 1 + rng.IntN(12)
		cols := 1 + rng.IntN(12)
		m := make([]float64, rows*cols)
		for i := range m {
			m[i] = rng.Float64()*2 - 1
		}
		p, err := NewPrefix2D(m, rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		for check := 0; check < 20; check++ {
			r0, r1 := rng.IntN(rows), rng.IntN(rows)
			c0, c1 := rng.IntN(cols), rng.IntN(cols)
			if r0 > r1 {
				r0, r1 = r1, r0
			}
			if c0 > c1 {
				c0, c1 = c1, c0
			}
			want := 0.0
			for r := r0; r <= r1; r++ {
				for c := c0; c <= c1; c++ {
					want += m[r*cols+c]
				}
			}
			if got := p.RangeSum(r0, r1, c0, c1); math.Abs(got-want) > 1e-9 {
				t.Fatalf("RangeSum(%d,%d,%d,%d) = %g, want %g", r0, r1, c0, c1, got, want)
			}
		}
	}
}

func TestPrefix2DAt(t *testing.T) {
	m := []float64{1, 2, 3, 4, 5, 6} // 2×3
	p, err := NewPrefix2D(m, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 2; i++ {
		for j := 0; j <= 3; j++ {
			want := 0.0
			for r := 0; r < i; r++ {
				for c := 0; c < j; c++ {
					want += m[r*3+c]
				}
			}
			if got := p.At(i, j); got != want {
				t.Errorf("At(%d,%d) = %g, want %g", i, j, got, want)
			}
		}
	}
}

func TestPrefix2DClamping(t *testing.T) {
	m := []float64{1, 2, 3, 4}
	p, err := NewPrefix2D(m, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.RangeSum(-5, 10, -5, 10); got != 10 {
		t.Errorf("clamped full sum = %g, want 10", got)
	}
	if got := p.RangeSum(1, 0, 0, 1); got != 0 {
		t.Errorf("empty range = %g, want 0", got)
	}
}

func TestPrefix2DShapeError(t *testing.T) {
	if _, err := NewPrefix2D([]float64{1, 2, 3}, 2, 2); err == nil {
		t.Error("mismatched shape should fail")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp broken")
	}
	if ClampInt(5, 0, 3) != 3 || ClampInt(-5, 0, 3) != 0 || ClampInt(2, 0, 3) != 2 {
		t.Error("ClampInt broken")
	}
}

func TestAggregates(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	if SumFloat64(v) != 10 {
		t.Error("SumFloat64 broken")
	}
	if Mean(v) != 2.5 {
		t.Error("Mean broken")
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
}
