package mwem

import (
	"math"
	"testing"

	"privmdr/internal/ldprand"
	"privmdr/internal/query"
)

// gridsFromDist sums a true c×c distribution into the three grids HDG
// feeds Algorithm 1, here noiseless: the first attribute's g1 cells, the
// second's, and the g2×g2 2-D cells, row-major.
func gridsFromDist(dist []float64, c, g1, g2 int) (rows, cols, cells []float64) {
	rows, cols, cells = make([]float64, g1), make([]float64, g1), make([]float64, g2*g2)
	w1, w2 := c/g1, c/g2
	for r := 0; r < c; r++ {
		for col := 0; col < c; col++ {
			f := dist[r*c+col]
			rows[r/w1] += f
			cols[col/w1] += f
			cells[(r/w2)*g2+col/w2] += f
		}
	}
	return rows, cols, cells
}

// rectMass sums the inclusive rectangle [r0, r1]×[c0, c1] of an n×n matrix.
func rectMass(m []float64, n, r0, r1, c0, c1 int) float64 {
	y := 0.0
	for r := r0; r <= r1; r++ {
		for col := c0; col <= c1; col++ {
			y += m[r*n+col]
		}
	}
	return y
}

func TestBuildResponseMatrixMatchesConstraints(t *testing.T) {
	c, g1, g2 := 16, 8, 4
	rng := ldprand.New(1)
	dist := make([]float64, c*c)
	sum := 0.0
	for i := range dist {
		dist[i] = rng.Float64()
		sum += dist[i]
	}
	for i := range dist {
		dist[i] /= sum
	}
	rows, cols, cells := gridsFromDist(dist, c, g1, g2)
	m, trace, err := BuildResponseMatrix(rows, cols, cells, Options{MaxIters: 200, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) == 0 {
		t.Fatal("no convergence trace")
	}
	// The matrix is on the g×g atom grid, g = max(g1, g2). At convergence
	// every constraint's rectangle of atoms holds its frequency.
	g := max(g1, g2)
	if len(m) != g*g {
		t.Fatalf("matrix has %d entries, want %d", len(m), g*g)
	}
	k1, k2 := g/g1, g/g2
	check := func(what string, i int, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("%s %d: rectangle mass %g, want %g", what, i, got, want)
		}
	}
	for i, f := range rows {
		check("row", i, rectMass(m, g, i*k1, (i+1)*k1-1, 0, g-1), f)
	}
	for i, f := range cols {
		check("column", i, rectMass(m, g, 0, g-1, i*k1, (i+1)*k1-1), f)
	}
	for i, f := range cells {
		r, col := i/g2, i%g2
		check("cell", i, rectMass(m, g, r*k2, (r+1)*k2-1, col*k2, (col+1)*k2-1), f)
	}
	// Total mass 1 (the 2-D cells partition the domain).
	if total := rectMass(m, g, 0, g-1, 0, g-1); math.Abs(total-1) > 1e-6 {
		t.Errorf("matrix mass %g, want 1", total)
	}
}

func TestBuildResponseMatrixTraceDecays(t *testing.T) {
	c := 8
	dist := make([]float64, c*c)
	for i := range dist {
		dist[i] = 1 / float64(c*c)
	}
	dist[0] += 0.3
	dist[c*c-1] -= 0.3
	for i := range dist {
		if dist[i] < 0 {
			dist[i] = 0
		}
	}
	rows, cols, cells := gridsFromDist(dist, c, 4, 2)
	_, trace, err := BuildResponseMatrix(rows, cols, cells, Options{MaxIters: 60, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) == 0 {
		t.Fatal("no trace")
	}
	// The per-sweep change at the end must be far below the start
	// (geometric-ish convergence; Figure 17's shape). Stopping before
	// MaxIters means the tolerance fired, which is convergence by
	// definition.
	last := trace[len(trace)-1]
	if len(trace) == 60 && last > trace[0]/100 && trace[0] > 1e-9 {
		t.Errorf("weighted update did not converge: first %g last %g", trace[0], last)
	}
}

func TestBuildResponseMatrixRespectsMaxIters(t *testing.T) {
	// Inconsistent constraints never converge: the rows hold 0.9 in all,
	// the columns and cells 1, so every sweep moves mass. The loop must stop
	// at MaxIters.
	rows := []float64{0.6, 0.3}
	cols := []float64{0.5, 0.5}
	cells := []float64{0.25, 0.25, 0.25, 0.25}
	_, trace, err := BuildResponseMatrix(rows, cols, cells, Options{MaxIters: 7, Tol: 1e-300})
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 7 {
		t.Errorf("trace length %d, want 7 (MaxIters)", len(trace))
	}
}

func TestBuildResponseMatrixStaysFinite(t *testing.T) {
	// Raw grids of an IHDG fit (d = 6, c = 16, ε = 0.2) whose first row of
	// cells nearly cancels: each sweep multiplies that band's factor by
	// ~10¹⁴ and its cells' factors by the inverse, while the matrix itself
	// stays put. The factors must not overflow. With g₁ = g₂ every atom is
	// a cell, which the sweep's last constraints set to its frequency.
	rows := []float64{0.73774346560691, -0.021078384731625936}
	cols := []float64{0.10539192365812967, 0.6112731572171544}
	cells := []float64{-0.05264066701077609, 0.0526406670107772, -0.07369693381508696, 0.9159476059875099}
	m, trace, err := BuildResponseMatrix(rows, cols, cells, Options{MaxIters: 100, Tol: 5e-5})
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 100 || math.IsInf(trace[99], 0) || math.IsNaN(trace[99]) {
		t.Errorf("%d sweeps, last change %g: want 100 finite sweeps", len(trace), trace[len(trace)-1])
	}
	for i, f := range cells {
		if math.Abs(m[i]-f) > 1e-12 {
			t.Errorf("atom %d is %v, want its cell's %v", i, m[i], f)
		}
	}
}

func TestBuildResponseMatrixDomainError(t *testing.T) {
	quarter := []float64{0.25, 0.25, 0.25, 0.25}
	for _, tc := range []struct {
		name              string
		rows, cols, cells []float64
	}{
		{"empty domain", nil, nil, nil},
		{"no 2-D cells", []float64{1}, []float64{1}, nil},
		{"1-D grids of different sizes", []float64{0.5, 0.5}, []float64{1}, quarter},
		{"2-D grid not square", []float64{0.5, 0.5}, []float64{0.5, 0.5}, quarter[:3]},
		{"granularity not a power of two", []float64{0.3, 0.3, 0.4}, []float64{0.3, 0.3, 0.4}, quarter},
	} {
		if _, _, err := BuildResponseMatrix(tc.rows, tc.cols, tc.cells, Options{}); err == nil {
			t.Errorf("%s should fail", tc.name)
		}
	}
}

func TestEstimateVectorConsistentInputs(t *testing.T) {
	// A known 3-attribute Bernoulli distribution: P(x) with independent-ish
	// structure. Compute exact pair answers; Algorithm 2 must reproduce the
	// triple with small error.
	lambda := 3
	// p(x) over 8 outcomes (bit ϕ = predicate ϕ holds).
	p := []float64{0.05, 0.05, 0.1, 0.1, 0.1, 0.15, 0.15, 0.3}
	pairAnswer := func(i, j int) float64 {
		need := (1 << i) | (1 << j)
		f := 0.0
		for msk := 0; msk < 8; msk++ {
			if msk&need == need {
				f += p[msk]
			}
		}
		return f
	}
	answers := []PairAnswer{
		{I: 0, J: 1, F: pairAnswer(0, 1)},
		{I: 0, J: 2, F: pairAnswer(0, 2)},
		{I: 1, J: 2, F: pairAnswer(1, 2)},
	}
	z, trace, err := EstimateVector(lambda, answers, Options{MaxIters: 500, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) == 0 {
		t.Fatal("no trace")
	}
	// The 2-D moments must be matched exactly at convergence.
	for _, a := range answers {
		need := (1 << a.I) | (1 << a.J)
		got := 0.0
		for msk := 0; msk < 8; msk++ {
			if msk&need == need {
				got += z[msk]
			}
		}
		if math.Abs(got-a.F) > 1e-6 {
			t.Errorf("pair (%d,%d): moment %g, want %g", a.I, a.J, got, a.F)
		}
	}
	// The triple estimate is the max-entropy-style reconstruction; it will
	// not equal p[7] exactly but must be a sane probability near it.
	if z[7] < 0 || z[7] > 1 {
		t.Errorf("triple estimate %g outside [0,1]", z[7])
	}
	if math.Abs(z[7]-p[7]) > 0.1 {
		t.Errorf("triple estimate %g too far from truth %g", z[7], p[7])
	}
}

func TestEstimateVectorIndependentProduct(t *testing.T) {
	// For truly independent predicates with marginals m0,m1,m2 the product
	// distribution satisfies all pairwise both-inside moments. Algorithm 2
	// only constrains those moments (not the quadrant complements), so its
	// fixed point approximates — but does not exactly equal — the product;
	// the paper's own estimation-error analysis (§4.5) acknowledges this
	// residual. Assert the moments are met exactly and the conjunction is
	// close to the product.
	m := []float64{0.3, 0.6, 0.5}
	answers := []PairAnswer{
		{I: 0, J: 1, F: m[0] * m[1]},
		{I: 0, J: 2, F: m[0] * m[2]},
		{I: 1, J: 2, F: m[1] * m[2]},
	}
	z, _, err := EstimateVector(3, answers, Options{MaxIters: 1000, Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range answers {
		need := (1 << a.I) | (1 << a.J)
		got := 0.0
		for msk := 0; msk < 8; msk++ {
			if msk&need == need {
				got += z[msk]
			}
		}
		if math.Abs(got-a.F) > 1e-6 {
			t.Errorf("pair (%d,%d) moment %g, want %g", a.I, a.J, got, a.F)
		}
	}
	want := m[0] * m[1] * m[2]
	if math.Abs(z[7]-want) > 0.02 {
		t.Errorf("independent conjunction = %g, want ≈ %g", z[7], want)
	}
}

func TestEstimateVectorSumStaysOne(t *testing.T) {
	answers := []PairAnswer{
		{I: 0, J: 1, F: 0.25},
		{I: 0, J: 2, F: 0.2},
		{I: 1, J: 2, F: 0.3},
	}
	z, _, err := EstimateVector(3, answers, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range z {
		sum += v
	}
	// The updates rescale only subsets, but the complement masks absorb the
	// residual; total should stay near 1 for consistent inputs.
	if math.Abs(sum-1) > 0.05 {
		t.Errorf("z sums to %g", sum)
	}
}

func TestEstimateVectorErrors(t *testing.T) {
	if _, _, err := EstimateVector(1, nil, Options{}); err == nil {
		t.Error("lambda 1 should fail")
	}
	if _, _, err := EstimateVector(3, []PairAnswer{{I: 0, J: 0, F: 0.5}}, Options{}); err == nil {
		t.Error("degenerate pair should fail")
	}
	if _, _, err := EstimateVector(3, []PairAnswer{{I: 0, J: 5, F: 0.5}}, Options{}); err == nil {
		t.Error("out-of-range pair should fail")
	}
}

func TestMaxEntAgreesWithWeightedUpdate(t *testing.T) {
	// Section 4.4's claim: the two estimators agree in accuracy on
	// consistent inputs.
	m := []float64{0.4, 0.5, 0.35, 0.6}
	var answers []PairAnswer
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			answers = append(answers, PairAnswer{I: i, J: j, F: m[i] * m[j]})
		}
	}
	zw, _, err := EstimateVector(4, answers, Options{MaxIters: 1000, Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	zm, _, err := MaxEntVector(4, answers, Options{MaxIters: 3000, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	full := 1<<4 - 1
	want := m[0] * m[1] * m[2] * m[3]
	// Both reconstructions are under-determined by pairwise moments alone
	// (§4.5 calls this estimation error); they must land near the truth and
	// near each other.
	if math.Abs(zw[full]-want) > 0.03 {
		t.Errorf("weighted update conjunction %g, want ≈ %g", zw[full], want)
	}
	if math.Abs(zm[full]-want) > 0.03 {
		t.Errorf("max-entropy conjunction %g, want ≈ %g", zm[full], want)
	}
	if math.Abs(zw[full]-zm[full]) > 0.03 {
		t.Errorf("estimators disagree: WU %g vs ME %g", zw[full], zm[full])
	}
}

func TestMaxEntErrors(t *testing.T) {
	if _, _, err := MaxEntVector(0, nil, Options{}); err == nil {
		t.Error("lambda 0 should fail")
	}
	if _, _, err := MaxEntVector(3, []PairAnswer{{I: 2, J: 2, F: 0.5}}, Options{}); err == nil {
		t.Error("degenerate pair should fail")
	}
}

func TestAnswerRangeLambda2Passthrough(t *testing.T) {
	q := query.Query{{Attr: 3, Lo: 0, Hi: 5}, {Attr: 1, Lo: 2, Hi: 7}}
	called := false
	f, trace, err := AnswerRange(q, func(a, b int, pa, pb query.Pred) (float64, error) {
		called = true
		if a != 1 || b != 3 {
			t.Errorf("pair (%d,%d), want sorted (1,3)", a, b)
		}
		if pa.Lo != 2 || pb.Lo != 0 {
			t.Errorf("predicates not matched to attributes: %v %v", pa, pb)
		}
		return 0.42, nil
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !called || f != 0.42 || trace != nil {
		t.Errorf("passthrough broken: f=%g trace=%v", f, trace)
	}
}

func TestAnswerRangeLambda3(t *testing.T) {
	// Independent product pair answers: conjunction should be the product.
	marg := map[int]float64{0: 0.5, 1: 0.4, 2: 0.25}
	q := query.Query{{Attr: 0, Lo: 0, Hi: 1}, {Attr: 1, Lo: 0, Hi: 1}, {Attr: 2, Lo: 0, Hi: 1}}
	f, trace, err := AnswerRange(q, func(a, b int, pa, pb query.Pred) (float64, error) {
		return marg[a] * marg[b], nil
	}, Options{MaxIters: 500, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if trace == nil {
		t.Error("lambda>2 should return an Algorithm 2 trace")
	}
	want := 0.5 * 0.4 * 0.25
	if math.Abs(f-want) > 0.02 {
		t.Errorf("conjunction %g, want ≈ %g", f, want)
	}
}

func TestAnswerRangeLambda1Error(t *testing.T) {
	q := query.Query{{Attr: 0, Lo: 0, Hi: 1}}
	if _, _, err := AnswerRange(q, nil, Options{}); err == nil {
		t.Error("lambda 1 should fail (callers handle it)")
	}
}

// TestAnswerOneD checks Answer's 1-D dispatch: without oneD a query on
// attribute a is the marginal of the pair (a, a+1 mod d) over the partner's
// full range, with the pair in attribute order; oneD takes over when given;
// an invalid query fails before any lookup.
func TestAnswerOneD(t *testing.T) {
	const d, c = 3, 8
	for a, want := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		q := query.Query{{Attr: a, Lo: 2, Hi: 5}}
		full := query.Pred{Attr: want[0] + want[1] - a, Lo: 0, Hi: c - 1}
		wantPreds := [2]query.Pred{q[0], full}
		if a != want[0] {
			wantPreds = [2]query.Pred{full, q[0]}
		}
		f, trace, err := Answer(q, d, c, nil, func(x, y int, px, py query.Pred) (float64, error) {
			if [2]int{x, y} != want || [2]query.Pred{px, py} != wantPreds {
				t.Errorf("attribute %d: pair2D(%d, %d, %v, %v), want %v %v", a, x, y, px, py, want, wantPreds)
			}
			return 0.25, nil
		}, Options{})
		if err != nil || f != 0.25 || trace != nil {
			t.Errorf("attribute %d: got (%g, %v, %v)", a, f, trace, err)
		}
	}
	oneD := func(p query.Pred) float64 { return float64(p.Hi - p.Lo) }
	if f, _, err := Answer(query.Query{{Attr: 2, Lo: 1, Hi: 4}}, d, c, oneD, nil, Options{}); err != nil || f != 3 {
		t.Errorf("oneD path: got (%g, %v), want 3", f, err)
	}
	if _, _, err := Answer(query.Query{{Attr: 0, Lo: 0, Hi: c}}, d, c, oneD, nil, Options{}); err == nil {
		t.Error("out-of-domain query should fail")
	}
}

func TestAnswerRangeMaxEntMethod(t *testing.T) {
	marg := map[int]float64{0: 0.5, 1: 0.4, 2: 0.25}
	q := query.Query{{Attr: 0, Lo: 0, Hi: 1}, {Attr: 1, Lo: 0, Hi: 1}, {Attr: 2, Lo: 0, Hi: 1}}
	pair := func(a, b int, pa, pb query.Pred) (float64, error) {
		return marg[a] * marg[b], nil
	}
	fw, _, err := AnswerRange(q, pair, Options{MaxIters: 500, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	fm, _, err := AnswerRange(q, pair, Options{MaxIters: 2000, Tol: 1e-8, Method: MethodMaxEntropy})
	if err != nil {
		t.Fatal(err)
	}
	if d := fw - fm; d > 0.02 || d < -0.02 {
		t.Errorf("methods disagree: WU %g vs MaxEnt %g", fw, fm)
	}
}
