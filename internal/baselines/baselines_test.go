package baselines

import (
	"math"
	"strings"
	"testing"

	"privmdr/internal/core"
	"privmdr/internal/dataset"
	"privmdr/internal/ldprand"
	"privmdr/internal/mech"
	"privmdr/internal/query"
)

func uniformDS(t *testing.T, n, d, c int) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Uniform(dataset.GenOptions{N: n, D: d, C: c, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func correlatedDS(t *testing.T, n, d, c int) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Normal(dataset.GenOptions{N: n, D: d, C: c, Seed: 32, Rho: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func answerAll(t *testing.T, est mech.Estimator, qs []query.Query) []float64 {
	t.Helper()
	out := make([]float64, len(qs))
	for i, q := range qs {
		a, err := est.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = a
	}
	return out
}

func TestUniExactVolume(t *testing.T) {
	ds := uniformDS(t, 100, 3, 16)
	est, err := NewUni().Fit(ds, 1.0, ldprand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{{Attr: 0, Lo: 0, Hi: 7}, {Attr: 2, Lo: 4, Hi: 7}}
	got, err := est.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.5*0.25 {
		t.Errorf("Uni answer %g, want 0.125", got)
	}
	if _, err := est.Answer(query.Query{{Attr: 9, Lo: 0, Hi: 1}}); err == nil {
		t.Error("Uni should validate queries")
	}
}

func TestMSWOnIndependentData(t *testing.T) {
	// MSW's independence assumption is exactly right on uniform data.
	ds := uniformDS(t, 60000, 3, 32)
	est, err := NewMSW().Fit(ds, 1.0, ldprand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	qs, _ := query.RandomWorkload(ldprand.New(3), 50, 2, 3, 32, 0.5)
	truth := query.TrueAnswers(ds, qs)
	mae := query.MAE(answerAll(t, est, qs), truth)
	if mae > 0.05 {
		t.Errorf("MSW MAE %g on independent data, want small", mae)
	}
}

func TestMSWLosesCorrelations(t *testing.T) {
	// On strongly correlated data MSW's product assumption must leave a
	// visible bias even at high epsilon (the paper's first challenge).
	ds := correlatedDS(t, 60000, 3, 32)
	est, err := NewMSW().Fit(ds, 4.0, ldprand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	// A diagonal-aligned query where correlation matters: both attributes
	// in their bottom half. Under ρ=0.8, truth ≫ product of marginals.
	q := query.Query{{Attr: 0, Lo: 0, Hi: 15}, {Attr: 1, Lo: 0, Hi: 15}}
	truth := query.TrueAnswer(ds, q)
	got, err := est.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-truth) < 0.05 {
		t.Errorf("MSW should miss correlated mass: got %g, truth %g", got, truth)
	}
}

func TestCALMMarginalAccuracy(t *testing.T) {
	// At a generous epsilon CALM's post-processed marginals answer 2-D
	// queries well.
	ds := correlatedDS(t, 60000, 3, 16)
	est, err := NewCALM().Fit(ds, 4.0, ldprand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	qs, _ := query.RandomWorkload(ldprand.New(6), 50, 2, 3, 16, 0.5)
	truth := query.TrueAnswers(ds, qs)
	mae := query.MAE(answerAll(t, est, qs), truth)
	if mae > 0.05 {
		t.Errorf("CALM MAE %g at eps=4, want small", mae)
	}
}

func TestCALMOneDimensional(t *testing.T) {
	ds := correlatedDS(t, 40000, 3, 16)
	est, err := NewCALM().Fit(ds, 4.0, ldprand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{{Attr: 2, Lo: 4, Hi: 11}}
	truth := query.TrueAnswer(ds, q)
	got, err := est.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-truth) > 0.05 {
		t.Errorf("CALM 1-D answer %g, truth %g", got, truth)
	}
}

func TestCALMHigherLambda(t *testing.T) {
	ds := correlatedDS(t, 60000, 4, 16)
	est, err := NewCALM().Fit(ds, 4.0, ldprand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{
		{Attr: 0, Lo: 0, Hi: 7}, {Attr: 1, Lo: 0, Hi: 7}, {Attr: 2, Lo: 0, Hi: 7},
	}
	truth := query.TrueAnswer(ds, q)
	got, err := est.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	uniErr := math.Abs(q.Volume(16) - truth)
	if math.Abs(got-truth) >= uniErr {
		t.Errorf("CALM λ=3 answer %g (truth %g) no better than uniform", got, truth)
	}
}

func TestHIOInfeasibleGroups(t *testing.T) {
	// d=6, c=64 needs 4096 groups; 1000 users cannot fill them.
	ds := uniformDS(t, 1000, 6, 64)
	if _, err := NewHIO().Fit(ds, 1.0, ldprand.New(9)); err == nil {
		t.Error("HIO with too few users should fail")
	}
}

func TestHIOSmallCase(t *testing.T) {
	// d=2, c=16: 3 levels → 9 groups. With a huge epsilon HIO is nearly
	// noiseless; answers should be close to truth.
	ds := correlatedDS(t, 40000, 2, 16)
	est, err := NewHIO().Fit(ds, 6.0, ldprand.New(10))
	if err != nil {
		t.Fatal(err)
	}
	qs, _ := query.RandomWorkload(ldprand.New(11), 30, 2, 2, 16, 0.5)
	truth := query.TrueAnswers(ds, qs)
	mae := query.MAE(answerAll(t, est, qs), truth)
	if mae > 0.05 {
		t.Errorf("HIO MAE %g at eps=6, want small", mae)
	}
}

func TestHIOExpansionGuard(t *testing.T) {
	ds := correlatedDS(t, 8192, 6, 64)
	est, err := NewHIO().Fit(ds, 1.0, ldprand.New(12))
	if err != nil {
		t.Fatal(err)
	}
	// [1,62] decomposes into 14 pieces per attribute, so on all six
	// attributes 14⁶ ≈ 7.5M intervals exceed the 2²¹ guard (14⁵ would not).
	q := make(query.Query, 6)
	for a := range q {
		q[a] = query.Pred{Attr: a, Lo: 1, Hi: 62}
	}
	if _, err := est.Answer(q); err == nil || !strings.Contains(err.Error(), "expands to more than") {
		t.Errorf("expansion above hioMaxCombos: %v, want the guard's error", err)
	}
}

func TestHIOPoorAtRealisticScale(t *testing.T) {
	// The paper's finding: at realistic group counts HIO is worse than the
	// uniform guess. d=4, c=16 → 81 groups with only 8000 users.
	ds := correlatedDS(t, 8000, 4, 16)
	est, err := NewHIO().Fit(ds, 1.0, ldprand.New(13))
	if err != nil {
		t.Fatal(err)
	}
	qs, _ := query.RandomWorkload(ldprand.New(14), 30, 3, 4, 16, 0.5)
	truth := query.TrueAnswers(ds, qs)
	hio := query.MAE(answerAll(t, est, qs), truth)
	uni := 0.0
	for i, q := range qs {
		uni += math.Abs(q.Volume(16) - truth[i])
	}
	uni /= float64(len(qs))
	if hio < uni {
		t.Logf("note: HIO MAE %g beat Uni %g at this seed (possible but unusual)", hio, uni)
	}
	if hio < 0.01 {
		t.Errorf("HIO MAE %g suspiciously good for 98 users/group", hio)
	}
}

func TestLHIOAccuracyAtHighEps(t *testing.T) {
	ds := correlatedDS(t, 60000, 3, 16)
	est, err := NewLHIO().Fit(ds, 6.0, ldprand.New(15))
	if err != nil {
		t.Fatal(err)
	}
	qs, _ := query.RandomWorkload(ldprand.New(16), 50, 2, 3, 16, 0.5)
	truth := query.TrueAnswers(ds, qs)
	mae := query.MAE(answerAll(t, est, qs), truth)
	if mae > 0.05 {
		t.Errorf("LHIO MAE %g at eps=6, want small", mae)
	}
}

func TestLHIOConsistentLevels(t *testing.T) {
	// After fitting, every level table must be a distribution and the root
	// must equal 1 (it is exact); parent/child consistency holds along both
	// axes thanks to constrained inference.
	ds := correlatedDS(t, 30000, 3, 16)
	m := NewLHIO()
	estI, err := m.Fit(ds, 1.0, ldprand.New(17))
	if err != nil {
		t.Fatal(err)
	}
	est := estI.(*lhioEstimator)
	for pi := range est.freq {
		for ti, table := range est.freq[pi] {
			sum := 0.0
			for _, f := range table {
				if f < -1e-9 {
					t.Errorf("pair %d table %d has negative %g", pi, ti, f)
				}
				sum += f
			}
			if math.Abs(sum-1) > 1e-6 {
				t.Errorf("pair %d table %d sums to %g", pi, ti, sum)
			}
		}
	}
}

func TestLHIOGroupError(t *testing.T) {
	// d=3, c=16 needs (3 pairs)·(3 levels)² = 27 groups; 20 users are not
	// enough.
	ds := uniformDS(t, 20, 3, 16)
	if _, err := NewLHIO().Fit(ds, 1.0, ldprand.New(18)); err == nil {
		t.Error("LHIO with too few users should fail")
	}
}

func TestLHIOOneDimensional(t *testing.T) {
	ds := correlatedDS(t, 40000, 3, 16)
	est, err := NewLHIO().Fit(ds, 6.0, ldprand.New(19))
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{{Attr: 0, Lo: 2, Hi: 12}}
	truth := query.TrueAnswer(ds, q)
	got, err := est.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-truth) > 0.05 {
		t.Errorf("LHIO 1-D answer %g, truth %g", got, truth)
	}
}

// TestAnswerZeroAlloc pins the λ ≤ 2 answers of all seven mechanisms at
// zero heap allocations: the four that answer through mwem.Answer (TDG,
// HDG, CALM, LHIO), HIO, Uni and MSW. A two-predicate query runs in
// attribute order and reversed, and the two orders must answer
// bit-identically. LHIO decomposes both axes into arrays on pair2D's stack
// and HIO every attribute into one array on Answer's; HDG is warmed first,
// since its response matrices build lazily. At d = 3, c = 64 these queries
// reach only HIO's streamed groups; a retained group's first memo fill may
// allocate. λ ≥ 3 runs Algorithm 2, whose own allocations stay.
func TestAnswerZeroAlloc(t *testing.T) {
	ds := correlatedDS(t, 20000, 3, 64)
	inOrder := query.Query{{Attr: 0, Lo: 7, Hi: 40}, {Attr: 2, Lo: 1, Hi: 62}}
	reversed := query.Query{inOrder[1], inOrder[0]}
	for _, m := range []mech.Mechanism{core.NewTDG(core.Options{}), core.NewHDG(core.Options{}), NewCALM(), NewLHIO(), NewHIO(), NewUni(), NewMSW()} {
		est, err := m.Fit(ds, 1.0, ldprand.New(22))
		if err != nil {
			t.Fatal(err)
		}
		if warm, ok := est.(interface{ PrecomputeMatrices() error }); ok {
			if err := warm.PrecomputeMatrices(); err != nil {
				t.Fatal(err)
			}
		}
		answers := map[string]float64{}
		for _, tc := range []struct {
			name string
			q    query.Query
		}{
			{"λ = 1", query.Query{{Attr: 2, Lo: 5, Hi: 50}}},
			{"λ = 2 in order", inOrder},
			{"λ = 2 reversed", reversed},
		} {
			allocs := testing.AllocsPerRun(100, func() {
				a, err := est.Answer(tc.q)
				if err != nil {
					t.Fatal(err)
				}
				answers[tc.name] = a
			})
			if allocs != 0 {
				t.Errorf("%s %s: Answer allocates %g objects/op, want 0", m.Name(), tc.name, allocs)
			}
		}
		if a, b := answers["λ = 2 in order"], answers["λ = 2 reversed"]; math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%s: λ = 2 answers %v in attribute order, %v reversed", m.Name(), a, b)
		}
	}
}

func TestLHIOBeatsHIO(t *testing.T) {
	// Section 3.4's claim, reproduced at small scale with a fixed seed.
	ds := correlatedDS(t, 30000, 3, 16)
	qs, _ := query.RandomWorkload(ldprand.New(20), 40, 2, 3, 16, 0.5)
	truth := query.TrueAnswers(ds, qs)
	maeOf := func(m mech.Mechanism) float64 {
		est, err := m.Fit(ds, 0.5, ldprand.New(21))
		if err != nil {
			t.Fatal(err)
		}
		return query.MAE(answerAll(t, est, qs), truth)
	}
	lhio := maeOf(NewLHIO())
	hio := maeOf(NewHIO())
	if lhio >= hio {
		t.Errorf("LHIO MAE %g should beat HIO MAE %g", lhio, hio)
	}
}

func TestBaselineNames(t *testing.T) {
	names := map[mech.Mechanism]string{
		NewUni():  "Uni",
		NewMSW():  "MSW",
		NewCALM(): "CALM",
		NewHIO():  "HIO",
		NewLHIO(): "LHIO",
	}
	for m, want := range names {
		if m.Name() != want {
			t.Errorf("Name() = %q, want %q", m.Name(), want)
		}
	}
}

func TestBaselineFitValidation(t *testing.T) {
	ds := uniformDS(t, 1000, 3, 16)
	for _, m := range []mech.Mechanism{NewUni(), NewMSW(), NewCALM(), NewHIO(), NewLHIO()} {
		if _, err := m.Fit(ds, 0, ldprand.New(22)); err == nil {
			t.Errorf("%s accepted eps=0", m.Name())
		}
	}
	single := &dataset.Dataset{C: 16, Cols: [][]uint16{make([]uint16, 500)}}
	for _, m := range []mech.Mechanism{NewCALM(), NewLHIO()} {
		if _, err := m.Fit(single, 1, ldprand.New(23)); err == nil {
			t.Errorf("%s accepted a single-attribute dataset", m.Name())
		}
	}
}

func TestAllBaselinesAnswerWorkload(t *testing.T) {
	// Every baseline must answer a mixed-λ workload without error.
	ds := correlatedDS(t, 20000, 4, 16)
	var qs []query.Query
	for lambda := 1; lambda <= 4; lambda++ {
		batch, _ := query.RandomWorkload(ldprand.New(uint64(lambda)), 5, lambda, 4, 16, 0.5)
		qs = append(qs, batch...)
	}
	for _, m := range []mech.Mechanism{NewUni(), NewMSW(), NewCALM(), NewHIO(), NewLHIO()} {
		est, err := m.Fit(ds, 1.0, ldprand.New(24))
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		for _, q := range qs {
			if _, err := est.Answer(q); err != nil {
				t.Fatalf("%s failed on %v: %v", m.Name(), q, err)
			}
		}
	}
}

func TestLHIOParentChildConsistency(t *testing.T) {
	// Constrained inference guarantees every node equals the sum of its
	// children along both axes; cross-pair consistency preserves it and the
	// final Norm-Sub perturbs it only slightly.
	ds := correlatedDS(t, 40000, 3, 16)
	estI, err := NewLHIO().Fit(ds, 2.0, ldprand.New(30))
	if err != nil {
		t.Fatal(err)
	}
	est := estI.(*lhioEstimator)
	tree := est.tree
	levels := est.levels
	for pi := range est.freq {
		// Check along attribute 1: node (l1, i1) at level (l1, l2) vs the sum
		// of its attr-1 children at (l1+1, l2).
		for l1 := 0; l1 < levels-1; l1++ {
			f := tree.ChildFactor(l1)
			for l2 := 0; l2 < levels; l2++ {
				k1, k2 := tree.CountAt(l1), tree.CountAt(l2)
				parent := est.freq[pi][l1*levels+l2]
				child := est.freq[pi][(l1+1)*levels+l2]
				for i1 := 0; i1 < k1; i1++ {
					for i2 := 0; i2 < k2; i2++ {
						sum := 0.0
						for ch := 0; ch < f; ch++ {
							sum += child[(i1*f+ch)*k2+i2]
						}
						// The final Norm-Sub perturbs the exact CI invariant by
						// up to ≈ 0.06 at this n and ε (across seeds); 0.08
						// leaves headroom without masking real breakage.
						if math.Abs(sum-parent[i1*k2+i2]) > 0.08 {
							t.Fatalf("pair %d level (%d,%d) node (%d,%d): children %g vs parent %g",
								pi, l1, l2, i1, i2, sum, parent[i1*k2+i2])
						}
					}
				}
			}
		}
	}
}

func TestLHIOLeafMarginalsAgreeAcrossPairs(t *testing.T) {
	// Cross-pair consistency: attribute 0's leaf marginal from pair (0,1)
	// and pair (0,2) should be close after Phase 2.
	ds := correlatedDS(t, 40000, 3, 16)
	estI, err := NewLHIO().Fit(ds, 1.0, ldprand.New(31))
	if err != nil {
		t.Fatal(err)
	}
	est := estI.(*lhioEstimator)
	h := est.tree.H()
	m01 := est.freq[0][h*est.levels+0] // pair (0,1), level (leaf, root)
	m02 := est.freq[1][h*est.levels+0] // pair (0,2)
	for v := 0; v < 16; v++ {
		if math.Abs(m01[v]-m02[v]) > 0.05 {
			t.Errorf("leaf marginal of a0 disagrees at %d: %g vs %g", v, m01[v], m02[v])
		}
	}
}

func TestHIOFullRangeQuery(t *testing.T) {
	// The all-root query decomposes to a single d-dim interval whose true
	// frequency is 1.
	ds := uniformDS(t, 20000, 2, 16)
	est, err := NewHIO().Fit(ds, 4.0, ldprand.New(33))
	if err != nil {
		t.Fatal(err)
	}
	got, err := est.Answer(query.Query{{Attr: 0, Lo: 0, Hi: 15}, {Attr: 1, Lo: 0, Hi: 15}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 0.15 {
		t.Errorf("full-range HIO answer %g, want ≈ 1", got)
	}
}
