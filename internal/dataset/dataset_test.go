package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"privmdr/internal/ldprand"
)

func opt(n, d, c int) GenOptions {
	return GenOptions{N: n, D: d, C: c, Seed: 42}
}

func TestGeneratorsShape(t *testing.T) {
	for _, name := range Names() {
		ds, err := ByName(name, opt(500, 4, 32))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ds.N() != 500 || ds.D() != 4 || ds.C != 32 {
			t.Errorf("%s: shape (%d,%d,%d), want (500,4,32)", name, ds.N(), ds.D(), ds.C)
		}
		if err := ds.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope", opt(10, 2, 8)); err == nil {
		t.Error("unknown generator should fail")
	}
}

func TestGenOptionsValidation(t *testing.T) {
	if _, err := Normal(GenOptions{N: 0, D: 2, C: 8}); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := Normal(GenOptions{N: 10, D: 0, C: 8}); err == nil {
		t.Error("d=0 should fail")
	}
	if _, err := Normal(GenOptions{N: 10, D: 2, C: 1}); err == nil {
		t.Error("c=1 should fail")
	}
	if _, err := Normal(GenOptions{N: 10, D: 2, C: 8, Rho: 1.5}); err == nil {
		t.Error("rho>1 should fail")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a, err := Normal(opt(200, 3, 16))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Normal(opt(200, 3, 16))
	if err != nil {
		t.Fatal(err)
	}
	for attr := range a.Cols {
		for i := range a.Cols[attr] {
			if a.Cols[attr][i] != b.Cols[attr][i] {
				t.Fatal("same seed must reproduce the dataset exactly")
			}
		}
	}
	c, _ := Normal(GenOptions{N: 200, D: 3, C: 16, Seed: 43})
	diff := 0
	for i := range a.Cols[0] {
		if a.Cols[0][i] != c.Cols[0][i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds should give different data")
	}
}

func TestNormalCorrelation(t *testing.T) {
	ds, err := Normal(GenOptions{N: 30000, D: 4, C: 64, Seed: 7, Rho: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	// Discretization attenuates Pearson correlation slightly; expect near
	// 0.8 for every pair.
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			r := ds.PairCorrelation(a, b)
			if r < 0.7 || r > 0.9 {
				t.Errorf("Normal pair (%d,%d) correlation %g, want ≈ 0.8", a, b, r)
			}
		}
	}
}

func TestNormalCovZeroIndependence(t *testing.T) {
	ds, err := NormalCov(opt(30000, 3, 64), 0)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 3; a++ {
		for b := a + 1; b < 3; b++ {
			r := ds.PairCorrelation(a, b)
			if math.Abs(r) > 0.05 {
				t.Errorf("rho=0 pair (%d,%d) correlation %g, want ≈ 0", a, b, r)
			}
		}
	}
}

func TestNormalCovOnePerfect(t *testing.T) {
	ds, err := NormalCov(opt(5000, 3, 64), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r := ds.PairCorrelation(0, 1); r < 0.99 {
		t.Errorf("rho=1 correlation %g, want ≈ 1", r)
	}
}

func TestLaplaceCorrelationAndShape(t *testing.T) {
	ds, err := Laplace(GenOptions{N: 30000, D: 3, C: 64, Seed: 9, Rho: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	r := ds.PairCorrelation(0, 1)
	if r < 0.65 || r > 0.9 {
		t.Errorf("Laplace correlation %g, want ≈ 0.78 (copula attenuation)", r)
	}
	// Laplace is spikier than normal: the central bins should carry more
	// mass than a normal of the same variance.
	h := ds.Histogram1D(0)
	center := h[31] + h[32]
	if center < 0.05 {
		t.Errorf("Laplace center mass %g suspiciously low", center)
	}
}

func TestBfiveWeakCorrelation(t *testing.T) {
	ds, err := BfiveLike(opt(30000, 4, 64))
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			r := ds.PairCorrelation(a, b)
			if math.Abs(r) > 0.25 {
				t.Errorf("BfiveLike pair (%d,%d) correlation %g, want weak (<0.25)", a, b, r)
			}
		}
	}
}

func TestIpumsHeterogeneousCorrelation(t *testing.T) {
	ds, err := IpumsLike(opt(30000, 6, 64))
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi float64 = 2, -2
	for a := 0; a < 6; a++ {
		for b := a + 1; b < 6; b++ {
			r := ds.PairCorrelation(a, b)
			if r < lo {
				lo = r
			}
			if r > hi {
				hi = r
			}
		}
	}
	if lo < 0.05 || hi > 0.75 {
		t.Errorf("IpumsLike correlations [%g, %g] outside the census-like band", lo, hi)
	}
	if hi-lo < 0.1 {
		t.Errorf("IpumsLike correlations should be heterogeneous, got span %g", hi-lo)
	}
}

func TestIpumsSkewedMarginal(t *testing.T) {
	ds, _ := IpumsLike(opt(30000, 3, 64))
	// Attribute 0 is income-like (u^2.8): the bottom quarter of the domain
	// should hold well over half the mass.
	h := ds.Histogram1D(0)
	bottom := 0.0
	for v := 0; v < 16; v++ {
		bottom += h[v]
	}
	if bottom < 0.5 {
		t.Errorf("income-like marginal bottom-quarter mass %g, want > 0.5", bottom)
	}
}

func TestAcsSpikes(t *testing.T) {
	ds, _ := AcsLike(opt(30000, 2, 64))
	h := ds.Histogram1D(0)
	// The two spikes (≈0.12·c and ≈0.68·c) must dominate their neighbors.
	maxBin := 0
	for v, m := range h {
		if m > h[maxBin] {
			maxBin = v
		}
	}
	if h[maxBin] < 0.1 {
		t.Errorf("AcsLike lacks a dominant spike: max bin mass %g", h[maxBin])
	}
}

func TestSpikeMonotone(t *testing.T) {
	s := spike(0.55, 0.3)
	f := func(aRaw, bRaw uint32) bool {
		a := float64(aRaw) / float64(math.MaxUint32)
		b := float64(bRaw) / float64(math.MaxUint32)
		if a > b {
			a, b = b, a
		}
		return s(a) <= s(b)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// Mass conservation: spike(1⁻) ≈ 1.
	if s(0.999999) < 0.99 {
		t.Errorf("spike(1) = %g, want ≈ 1", s(0.999999))
	}
}

func TestUniformIsFlat(t *testing.T) {
	ds, _ := Uniform(opt(50000, 2, 16))
	h := ds.Histogram1D(0)
	for v, m := range h {
		if math.Abs(m-1.0/16) > 0.01 {
			t.Errorf("uniform bin %d has mass %g", v, m)
		}
	}
}

func TestHistogramsSumToOne(t *testing.T) {
	for _, name := range Names() {
		ds, _ := ByName(name, opt(2000, 3, 32))
		h1 := ds.Histogram1D(1)
		sum := 0.0
		for _, m := range h1 {
			sum += m
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: 1-D histogram sums to %g", name, sum)
		}
		h2 := ds.Histogram2D(0, 2)
		sum = 0
		for _, m := range h2 {
			sum += m
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: 2-D histogram sums to %g", name, sum)
		}
	}
}

func TestHistogram2DMarginalizes(t *testing.T) {
	ds, _ := IpumsLike(opt(5000, 3, 16))
	h2 := ds.Histogram2D(0, 1)
	h1 := ds.Histogram1D(0)
	for v := 0; v < 16; v++ {
		row := 0.0
		for u := 0; u < 16; u++ {
			row += h2[v*16+u]
		}
		if math.Abs(row-h1[v]) > 1e-9 {
			t.Fatalf("2-D row %d marginal %g != 1-D %g", v, row, h1[v])
		}
	}
}

func TestSample(t *testing.T) {
	ds, _ := Normal(opt(1000, 3, 16))
	rng := ldprand.New(1)
	sub := ds.Sample(100, rng)
	if sub.N() != 100 || sub.D() != 3 || sub.C != 16 {
		t.Errorf("sample shape (%d,%d,%d)", sub.N(), sub.D(), sub.C)
	}
	if err := sub.Validate(); err != nil {
		t.Error(err)
	}
	up := ds.Sample(1500, rng)
	if up.N() != 1500 {
		t.Errorf("oversample gave %d rows", up.N())
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	ds, _ := Normal(opt(10, 2, 16))
	ds.Cols[1][3] = 200
	if err := ds.Validate(); err == nil {
		t.Error("out-of-domain value should fail validation")
	}
	ds2, _ := Normal(opt(10, 2, 16))
	ds2.Cols[0] = ds2.Cols[0][:5]
	if err := ds2.Validate(); err == nil {
		t.Error("ragged columns should fail validation")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds, _ := IpumsLike(opt(200, 4, 32))
	var buf bytes.Buffer
	if err := ds.SaveCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSV(&buf, 32)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != ds.N() || back.D() != ds.D() {
		t.Fatalf("round trip shape (%d,%d)", back.N(), back.D())
	}
	for a := range ds.Cols {
		for i := range ds.Cols[a] {
			if ds.Cols[a][i] != back.Cols[a][i] {
				t.Fatalf("value mismatch at (%d,%d)", a, i)
			}
		}
	}
}

func TestLoadCSVErrors(t *testing.T) {
	if _, err := LoadCSV(strings.NewReader(""), 16); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := LoadCSV(strings.NewReader("a0,a1\n1\n"), 16); err == nil {
		t.Error("ragged row should fail")
	}
	if _, err := LoadCSV(strings.NewReader("a0\n99\n"), 16); err == nil {
		t.Error("out-of-domain value should fail")
	}
	if _, err := LoadCSV(strings.NewReader("a0\nxyz\n"), 16); err == nil {
		t.Error("non-integer should fail")
	}
	if _, err := LoadCSV(strings.NewReader("a0\n1\n"), 1); err == nil {
		t.Error("domain < 2 should fail")
	}
}

func TestLoadCSVSkipsBlankLines(t *testing.T) {
	ds, err := LoadCSV(strings.NewReader("a0,a1\n1,2\n\n3,4\n"), 16)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 2 {
		t.Errorf("got %d rows, want 2", ds.N())
	}
}

func TestPairCorrelationDegenerate(t *testing.T) {
	ds := &Dataset{C: 4, Cols: [][]uint16{{1, 1, 1}, {0, 1, 2}}}
	if r := ds.PairCorrelation(0, 1); r != 0 {
		t.Errorf("constant column correlation = %g, want 0", r)
	}
	empty := &Dataset{C: 4, Cols: [][]uint16{{}, {}}}
	if r := empty.PairCorrelation(0, 1); r != 0 {
		t.Errorf("empty correlation = %g, want 0", r)
	}
}

func TestCorrelationTargetsByGenerator(t *testing.T) {
	// The factor loadings LoanLike and AcsLike document: Loan ρ≈0.4, Acs ρ≈0.5.
	loan, _ := LoanLike(opt(30000, 3, 64))
	if r := loan.PairCorrelation(0, 1); r < 0.25 || r > 0.55 {
		t.Errorf("LoanLike correlation %g, want ≈ 0.4", r)
	}
	acs, _ := AcsLike(opt(30000, 3, 64))
	if r := acs.PairCorrelation(0, 1); r < 0.3 || r > 0.65 {
		t.Errorf("AcsLike correlation %g, want ≈ 0.5", r)
	}
}

func TestLaplaceCovVariants(t *testing.T) {
	zero, err := LaplaceCov(opt(20000, 3, 32), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r := zero.PairCorrelation(0, 1); math.Abs(r) > 0.05 {
		t.Errorf("LaplaceCov(0) correlation %g, want ≈ 0", r)
	}
	strong, err := LaplaceCov(opt(20000, 3, 32), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if r := strong.PairCorrelation(0, 1); r < 0.7 {
		t.Errorf("LaplaceCov(0.9) correlation %g, want strong", r)
	}
}

func TestValueAccessor(t *testing.T) {
	ds := &Dataset{C: 8, Cols: [][]uint16{{3, 4}, {5, 6}}}
	if ds.Value(1, 0) != 5 || ds.Value(0, 1) != 4 {
		t.Error("Value accessor broken")
	}
	empty := &Dataset{C: 8}
	if empty.N() != 0 {
		t.Error("empty dataset N should be 0")
	}
}
