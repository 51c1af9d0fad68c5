package fo

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"privmdr/internal/ldprand"
)

// plantedReports perturbs n draws from dist through o.
func plantedReports(t *testing.T, o Oracle, dist []float64, n int, rng *rand.Rand) []Report {
	t.Helper()
	cdf := make([]float64, len(dist)+1)
	for i, p := range dist {
		cdf[i+1] = cdf[i] + p
	}
	reports := make([]Report, n)
	for i := range reports {
		u := rng.Float64()
		v := 0
		for v < len(dist)-1 && u >= cdf[v+1] {
			v++
		}
		reports[i] = o.Perturb(v, rng)
	}
	return reports
}

// foldEstimate folds reports as one run and estimates from the statistic.
func foldEstimate(o Oracle, reports []Report) []float64 {
	return o.EstimateCounts(foldAll(o, reports), len(reports))
}

// checkUnbiased asserts every estimate is within tol of the truth.
func checkUnbiased(t *testing.T, name string, est, dist []float64, tol float64) {
	t.Helper()
	for v := range dist {
		if math.Abs(est[v]-dist[v]) > tol {
			t.Errorf("%s: est[%d] = %g, want %g ± %g", name, v, est[v], dist[v], tol)
		}
	}
}

func TestGRRProbabilities(t *testing.T) {
	g, err := NewGRR(1.0, 10)
	if err != nil {
		t.Fatal(err)
	}
	// p + (c−1)q = 1 and p/q = e^ε.
	if math.Abs(g.P()+9*g.Q()-1) > 1e-12 {
		t.Errorf("probabilities do not sum to 1: p=%g q=%g", g.P(), g.Q())
	}
	if math.Abs(g.P()/g.Q()-math.E) > 1e-9 {
		t.Errorf("p/q = %g, want e", g.P()/g.Q())
	}
}

func TestGRRPerturbDomain(t *testing.T) {
	g, _ := NewGRR(0.5, 7)
	rng := ldprand.New(1)
	f := func(vRaw uint8) bool {
		v := int(vRaw) % 7
		r := g.Perturb(v, rng)
		return r.Value >= 0 && r.Value < 7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGRRUnbiased(t *testing.T) {
	g, _ := NewGRR(1.0, 8)
	dist := []float64{0.4, 0.2, 0.1, 0.1, 0.1, 0.05, 0.03, 0.02}
	n := 200_000
	rng := ldprand.New(2)
	reports := plantedReports(t, g, dist, n, rng)
	est := foldEstimate(g, reports)
	// 6σ bound from the variance formula.
	tol := 6 * math.Sqrt(g.Var(n))
	checkUnbiased(t, "GRR", est, dist, tol)
	// The GRR estimator sums exactly to 1 by construction.
	sum := 0.0
	for _, e := range est {
		sum += e
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("GRR estimates sum to %g, want exactly 1", sum)
	}
}

func TestGRREmpiricalVariance(t *testing.T) {
	// Measure the estimator's variance on a fixed value and compare with
	// Equation 2.
	g, _ := NewGRR(1.0, 16)
	rng := ldprand.New(3)
	n := 2000
	trials := 300
	ests := make([]float64, trials)
	for tr := 0; tr < trials; tr++ {
		reports := make([]Report, n)
		for i := range reports {
			reports[i] = g.Perturb(0, rng) // everyone holds value 0
		}
		ests[tr] = foldEstimate(g, reports)[3] // a value nobody holds
	}
	mean, m2 := 0.0, 0.0
	for _, e := range ests {
		mean += e
	}
	mean /= float64(trials)
	for _, e := range ests {
		m2 += (e - mean) * (e - mean)
	}
	empirical := m2 / float64(trials)
	want := g.Var(n)
	if empirical < want/2 || empirical > want*2 {
		t.Errorf("empirical variance %g vs formula %g (should be within 2x)", empirical, want)
	}
}

func TestOLHHashRange(t *testing.T) {
	o, err := NewOLH(1.0, 100)
	if err != nil {
		t.Fatal(err)
	}
	// g = round(e)+1 = 4.
	if o.HashRange() != 4 {
		t.Errorf("HashRange = %d, want 4", o.HashRange())
	}
	f := func(seed, v uint64) bool {
		h := o.Hash(seed, v)
		return h >= 0 && h < o.HashRange()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOLHHashUniformity(t *testing.T) {
	o, _ := NewOLH(1.0, 64)
	g := o.HashRange()
	counts := make([]int, g)
	n := 40000
	for seed := 0; seed < n; seed++ {
		counts[o.Hash(uint64(seed), 17)]++
	}
	want := float64(n) / float64(g)
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("hash bucket %d has %d entries, want ≈ %g", b, c, want)
		}
	}
}

func TestOLHUnbiased(t *testing.T) {
	o, _ := NewOLH(1.0, 16)
	dist := make([]float64, 16)
	dist[0], dist[3], dist[8], dist[15] = 0.4, 0.3, 0.2, 0.1
	n := 100_000
	rng := ldprand.New(4)
	reports := plantedReports(t, o, dist, n, rng)
	est := foldEstimate(o, reports)
	tol := 6 * math.Sqrt(o.Var(n))
	checkUnbiased(t, "OLH", est, dist, tol)
}

func TestOLHEstimateOneMatchesFold(t *testing.T) {
	o, _ := NewOLH(0.8, 8)
	rng := ldprand.New(5)
	reports := make([]Report, 5000)
	for i := range reports {
		reports[i] = o.Perturb(i%8, rng)
	}
	all := foldEstimate(o, reports)
	for v := 0; v < 8; v++ {
		one := o.EstimateOne(reports, uint64(v))
		if math.Abs(one-all[v]) > 1e-12 {
			t.Errorf("EstimateOne(%d) = %g, folded estimate = %g", v, one, all[v])
		}
	}
}

func TestOLHEmpiricalVariance(t *testing.T) {
	o, _ := NewOLH(1.0, 32)
	rng := ldprand.New(6)
	n := 2000
	trials := 300
	ests := make([]float64, trials)
	for tr := 0; tr < trials; tr++ {
		reports := make([]Report, n)
		for i := range reports {
			reports[i] = o.Perturb(0, rng)
		}
		ests[tr] = o.EstimateOne(reports, 9)
	}
	mean, m2 := 0.0, 0.0
	for _, e := range ests {
		mean += e
	}
	mean /= float64(trials)
	for _, e := range ests {
		m2 += (e - mean) * (e - mean)
	}
	empirical := m2 / float64(trials)
	want := o.Var(n)
	if empirical < want/2 || empirical > want*2 {
		t.Errorf("empirical variance %g vs formula %g", empirical, want)
	}
}

func TestOLHVarMatchesPaperFormula(t *testing.T) {
	// With g = e^ε+1 the general formula reduces to 4e^ε/((e^ε−1)²n).
	// g is rounded, so allow a small relative deviation.
	for _, eps := range []float64{0.5, 1.0, 2.0} {
		o, _ := NewOLH(eps, 64)
		n := 10000
		paper := 4 * math.Exp(eps) / ((math.Exp(eps) - 1) * (math.Exp(eps) - 1) * float64(n))
		got := o.Var(n)
		if got < paper*0.7 || got > paper*1.3 {
			t.Errorf("eps=%g: Var=%g, paper formula %g", eps, got, paper)
		}
	}
}

func TestHadamardUnbiased(t *testing.T) {
	h, err := NewHadamard(1.0, 16)
	if err != nil {
		t.Fatal(err)
	}
	dist := make([]float64, 16)
	dist[1], dist[5], dist[10] = 0.5, 0.3, 0.2
	n := 100_000
	rng := ldprand.New(7)
	reports := plantedReports(t, h, dist, n, rng)
	est := foldEstimate(h, reports)
	tol := 6 * math.Sqrt(h.Var(n))
	checkUnbiased(t, "Hadamard", est, dist, tol)
}

func TestHadamardOrder(t *testing.T) {
	cases := []struct{ c, k int }{{2, 4}, {3, 4}, {4, 8}, {63, 64}, {64, 128}, {4096, 8192}}
	for _, tc := range cases {
		h, err := NewHadamard(1.0, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		if h.Order() != tc.k {
			t.Errorf("c=%d: Order=%d, want %d", tc.c, h.Order(), tc.k)
		}
	}
}

func TestHadamardEmpiricalVariance(t *testing.T) {
	h, _ := NewHadamard(1.0, 8)
	rng := ldprand.New(8)
	n := 2000
	trials := 300
	ests := make([]float64, trials)
	for tr := 0; tr < trials; tr++ {
		reports := make([]Report, n)
		for i := range reports {
			reports[i] = h.Perturb(0, rng)
		}
		ests[tr] = foldEstimate(h, reports)[5]
	}
	mean, m2 := 0.0, 0.0
	for _, e := range ests {
		mean += e
	}
	mean /= float64(trials)
	for _, e := range ests {
		m2 += (e - mean) * (e - mean)
	}
	empirical := m2 / float64(trials)
	want := h.Var(n)
	if empirical < want/2 || empirical > want*2 {
		t.Errorf("empirical variance %g vs formula %g", empirical, want)
	}
}

func TestFWHTInvolution(t *testing.T) {
	// H(H(x)) = K·x.
	rng := ldprand.New(9)
	x := make([]float64, 16)
	orig := make([]float64, 16)
	for i := range x {
		x[i] = rng.NormFloat64()
		orig[i] = x[i]
	}
	fwht(x)
	fwht(x)
	for i := range x {
		if math.Abs(x[i]-16*orig[i]) > 1e-9 {
			t.Fatalf("fwht involution failed at %d: %g vs %g", i, x[i], 16*orig[i])
		}
	}
}

// TestAdaptiveSelection pins NewAuto's GRR/OLH switch, the adaptive
// oracle of Section 2.2: c − 2 < 3e^ε ⇒ GRR.
func TestAdaptiveSelection(t *testing.T) {
	o, err := NewAuto(1.0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if o.Name() != "grr" {
		t.Errorf("small domain should use GRR, got %s", o.Name())
	}
	o, err = NewAuto(1.0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if o.Name() != "olh" {
		t.Errorf("large domain should use OLH, got %s", o.Name())
	}
	// The crossover point: 3e^1 ≈ 8.15, so c = 10 → GRR, c = 11 → OLH.
	o, _ = NewAuto(1.0, 10)
	if o.Name() != "grr" {
		t.Errorf("c=10 at eps=1 should be GRR, got %s", o.Name())
	}
	o, _ = NewAuto(1.0, 11)
	if o.Name() != "olh" {
		t.Errorf("c=11 at eps=1 should be OLH, got %s", o.Name())
	}
}

func TestAutoSelection(t *testing.T) {
	o, err := NewAuto(1.0, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	if o.Name() != "hadamard" {
		t.Errorf("huge domain should use Hadamard, got %s", o.Name())
	}
	o, _ = NewAuto(1.0, 1<<12)
	if o.Name() != "olh" {
		t.Errorf("mid domain should use OLH, got %s", o.Name())
	}
	o, _ = NewAuto(1.0, 4)
	if o.Name() != "grr" {
		t.Errorf("small domain should use GRR, got %s", o.Name())
	}
}

func TestConstructorErrors(t *testing.T) {
	if _, err := NewGRR(1.0, 1); err == nil {
		t.Error("GRR domain 1 should fail")
	}
	if _, err := NewGRR(0, 4); err == nil {
		t.Error("GRR eps 0 should fail")
	}
	if _, err := NewOLH(-1, 4); err == nil {
		t.Error("OLH negative eps should fail")
	}
	if _, err := NewOLH(1, 0); err == nil {
		t.Error("OLH domain 0 should fail")
	}
	if _, err := NewHadamard(0, 4); err == nil {
		t.Error("Hadamard eps 0 should fail")
	}
	if _, err := NewHadamard(1, 1); err == nil {
		t.Error("Hadamard domain 1 should fail")
	}
}

// TestEmptyReports pins the n = 0 convention: folding no reports leaves an
// all-zero statistic, which estimates 0 for every value.
func TestEmptyReports(t *testing.T) {
	g, _ := NewGRR(1, 4)
	o, _ := NewOLH(1, 4)
	h, _ := NewHadamard(1, 4)
	for _, oracle := range []Oracle{g, o, h} {
		est := foldEstimate(oracle, nil)
		for v, e := range est {
			if e != 0 {
				t.Errorf("%s: empty reports should estimate 0, got est[%d]=%g", oracle.Name(), v, e)
			}
		}
	}
	if !math.IsInf(g.Var(0), 1) {
		t.Error("Var(0) should be +Inf")
	}
}

func TestGRRVarGrowsWithDomain(t *testing.T) {
	// Equation 2: variance is linear in c; this is why GRR loses to OLH on
	// large domains.
	small, _ := NewGRR(1.0, 4)
	large, _ := NewGRR(1.0, 1024)
	if large.Var(1000) <= small.Var(1000) {
		t.Error("GRR variance should grow with domain size")
	}
	// OLH variance is domain-independent.
	o1, _ := NewOLH(1.0, 4)
	o2, _ := NewOLH(1.0, 1024)
	if o1.Var(1000) != o2.Var(1000) {
		t.Error("OLH variance should not depend on domain size")
	}
}

func TestDomainAccessors(t *testing.T) {
	g, _ := NewGRR(1, 12)
	o, _ := NewOLH(1, 300)
	h, _ := NewHadamard(1, 77)
	if g.Domain() != 12 || o.Domain() != 300 || h.Domain() != 77 {
		t.Error("Domain accessors broken")
	}
}
