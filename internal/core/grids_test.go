package core

import (
	"math"
	"testing"

	"privmdr/internal/dataset"
	"privmdr/internal/ldprand"
	"privmdr/internal/mech"
	"privmdr/internal/mwem"
	"privmdr/internal/query"
)

func fitOn(t *testing.T, m mech.Mechanism, ds *dataset.Dataset, eps float64, seed uint64) mech.Estimator {
	t.Helper()
	est, err := m.Fit(ds, eps, ldprand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func uniformDS(t *testing.T, n, d, c int) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Uniform(dataset.GenOptions{N: n, D: d, C: c, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func correlatedDS(t *testing.T, n, d, c int) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Normal(dataset.GenOptions{N: n, D: d, C: c, Seed: 78, Rho: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestNames(t *testing.T) {
	if NewTDG(Options{}).Name() != "TDG" || NewHDG(Options{}).Name() != "HDG" {
		t.Error("base names wrong")
	}
	if NewTDG(Options{SkipPostProcess: true}).Name() != "ITDG" {
		t.Error("ablation TDG name wrong")
	}
	if NewHDG(Options{SkipPostProcess: true}).Name() != "IHDG" {
		t.Error("ablation HDG name wrong")
	}
}

func TestFitValidation(t *testing.T) {
	ds := uniformDS(t, 1000, 3, 16)
	rng := ldprand.New(1)
	if _, err := NewTDG(Options{}).Fit(ds, 0, rng); err == nil {
		t.Error("eps 0 should fail")
	}
	odd := &dataset.Dataset{C: 48, Cols: make([][]uint16, 3)}
	for i := range odd.Cols {
		odd.Cols[i] = make([]uint16, 100)
	}
	if _, err := NewTDG(Options{}).Fit(odd, 1, rng); err == nil {
		t.Error("non-power-of-two domain should fail")
	}
	if _, err := NewHDG(Options{}).Fit(odd, 1, rng); err == nil {
		t.Error("non-power-of-two domain should fail for HDG")
	}
	one := &dataset.Dataset{C: 16, Cols: [][]uint16{make([]uint16, 100)}}
	if _, err := NewHDG(Options{}).Fit(one, 1, rng); err == nil {
		t.Error("single attribute should fail")
	}
}

func TestHDGSigmaValidation(t *testing.T) {
	ds := uniformDS(t, 1000, 3, 16)
	rng := ldprand.New(2)
	if _, err := NewHDG(Options{Sigma: 1.5}).Fit(ds, 1, rng); err == nil {
		t.Error("sigma > 1 should fail")
	}
	if _, err := NewHDG(Options{Sigma: 0.999}).Fit(ds, 1, rng); err == nil {
		t.Error("sigma starving 2-D groups should fail")
	}
}

func TestGranularityOverrides(t *testing.T) {
	ds := uniformDS(t, 4000, 3, 32)
	h := NewHDG(Options{G1: 16, G2: 4})
	est, err := h.fit(ds, 1, ldprand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if est.G1 != 16 || est.G2 != 4 {
		t.Errorf("overrides ignored: (%d,%d)", est.G1, est.G2)
	}
	// g1 < g2 gets lifted to g2.
	est, err = NewHDG(Options{G1: 2, G2: 8}).fit(ds, 1, ldprand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if est.G1 != 8 {
		t.Errorf("g1 not lifted to g2: %d", est.G1)
	}
	// Non-divisor granularity fails.
	if _, err := NewHDG(Options{G1: 12, G2: 4}).Fit(ds, 1, ldprand.New(5)); err == nil {
		t.Error("non-power granularity should fail")
	}
}

func TestGridsSumToOneAfterPostProcess(t *testing.T) {
	ds := correlatedDS(t, 20000, 4, 32)
	h := NewHDG(Options{})
	est, err := h.fit(ds, 1.0, ldprand.New(6))
	if err != nil {
		t.Fatal(err)
	}
	for a, g := range est.grids1 {
		sum := 0.0
		for _, f := range g.Freq {
			if f < -1e-9 {
				t.Errorf("1-D grid %d has negative cell %g", a, f)
			}
			sum += f
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("1-D grid %d sums to %g", a, sum)
		}
	}
	for pi, g := range est.grids2 {
		sum := 0.0
		for _, f := range g.Freq {
			if f < -1e-9 {
				t.Errorf("2-D grid %d has negative cell %g", pi, f)
			}
			sum += f
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("2-D grid %d sums to %g", pi, sum)
		}
	}
}

func TestConsistencyAcrossGrids(t *testing.T) {
	// After Phase 2 the coarse marginal of an attribute must agree between
	// its 1-D grid and every 2-D grid containing it (up to the final
	// Norm-Sub's tiny residual).
	ds := correlatedDS(t, 20000, 3, 32)
	est, err := NewHDG(Options{}).fit(ds, 1.0, ldprand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	g2 := est.G2
	ratio := est.G1 / g2
	for a := 0; a < 3; a++ {
		var sums [][]float64
		one := make([]float64, g2)
		for j := 0; j < g2; j++ {
			for i := j * ratio; i < (j+1)*ratio; i++ {
				one[j] += est.grids1[a].Freq[i]
			}
		}
		sums = append(sums, one)
		for pi, pair := range mech.AllPairs(3) {
			if pair[0] != a && pair[1] != a {
				continue
			}
			m := make([]float64, g2)
			for j := 0; j < g2; j++ {
				for k := 0; k < g2; k++ {
					if pair[0] == a {
						m[j] += est.grids2[pi].Freq[j*g2+k]
					} else {
						m[j] += est.grids2[pi].Freq[k*g2+j]
					}
				}
			}
			sums = append(sums, m)
		}
		for j := 0; j < g2; j++ {
			for s := 1; s < len(sums); s++ {
				if math.Abs(sums[s][j]-sums[0][j]) > 0.02 {
					t.Errorf("attr %d bucket %d: view %d sum %g vs 1-D %g", a, j, s, sums[s][j], sums[0][j])
				}
			}
		}
	}
}

func TestUniformDataAnswers(t *testing.T) {
	// On uniform data every mechanism should answer ≈ the query volume.
	ds := uniformDS(t, 40000, 3, 32)
	for _, m := range []mech.Mechanism{NewTDG(Options{}), NewHDG(Options{})} {
		est := fitOn(t, m, ds, 2.0, 8)
		for _, q := range []query.Query{
			{{Attr: 0, Lo: 0, Hi: 15}, {Attr: 1, Lo: 0, Hi: 15}},
			{{Attr: 0, Lo: 8, Hi: 23}, {Attr: 2, Lo: 4, Hi: 27}},
			{{Attr: 0, Lo: 0, Hi: 15}, {Attr: 1, Lo: 0, Hi: 15}, {Attr: 2, Lo: 0, Hi: 15}},
		} {
			got, err := est.Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			want := q.Volume(32)
			if math.Abs(got-want) > 0.08 {
				t.Errorf("%s on uniform: query %v = %g, want ≈ %g", m.Name(), q, got, want)
			}
		}
	}
}

func TestOneDimensionalQueries(t *testing.T) {
	ds := correlatedDS(t, 40000, 3, 32)
	truth := query.TrueAnswer(ds, query.Query{{Attr: 1, Lo: 8, Hi: 23}})
	for _, m := range []mech.Mechanism{NewTDG(Options{}), NewHDG(Options{})} {
		est := fitOn(t, m, ds, 2.0, 9)
		got, err := est.Answer(query.Query{{Attr: 1, Lo: 8, Hi: 23}})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-truth) > 0.1 {
			t.Errorf("%s 1-D answer %g, truth %g", m.Name(), got, truth)
		}
	}
}

func TestAnswerValidation(t *testing.T) {
	ds := uniformDS(t, 5000, 3, 16)
	for _, m := range []mech.Mechanism{NewTDG(Options{}), NewHDG(Options{})} {
		est := fitOn(t, m, ds, 1.0, 10)
		if _, err := est.Answer(query.Query{{Attr: 5, Lo: 0, Hi: 3}}); err == nil {
			t.Errorf("%s accepted out-of-range attribute", m.Name())
		}
		if _, err := est.Answer(query.Query{}); err == nil {
			t.Errorf("%s accepted empty query", m.Name())
		}
		if _, err := est.Answer(query.Query{{Attr: 0, Lo: 9, Hi: 2}}); err == nil {
			t.Errorf("%s accepted inverted interval", m.Name())
		}
	}
}

func TestHDGBeatsTDGOnCorrelatedData(t *testing.T) {
	// The paper's headline comparison at a deterministic seed: the response
	// matrices should cut the uniformity error of partially covered cells.
	ds := correlatedDS(t, 60000, 4, 64)
	qs, err := query.RandomWorkload(ldprand.New(11), 80, 2, 4, 64, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	truth := query.TrueAnswers(ds, qs)
	maeOf := func(m mech.Mechanism) float64 {
		est := fitOn(t, m, ds, 1.0, 12)
		answers := make([]float64, len(qs))
		for i, q := range qs {
			a, err := est.Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			answers[i] = a
		}
		return query.MAE(answers, truth)
	}
	tdg := maeOf(NewTDG(Options{}))
	hdg := maeOf(NewHDG(Options{}))
	if hdg >= tdg {
		t.Errorf("HDG MAE %g should beat TDG MAE %g on correlated data", hdg, tdg)
	}
}

func TestPostProcessImprovesHDG(t *testing.T) {
	// Appendix A.1: HDG should (at this seed) do at least as well as IHDG,
	// whose negative inputs destabilize the weighted update.
	ds := correlatedDS(t, 30000, 4, 32)
	qs, _ := query.RandomWorkload(ldprand.New(13), 60, 2, 4, 32, 0.5)
	truth := query.TrueAnswers(ds, qs)
	maeOf := func(m mech.Mechanism) float64 {
		est := fitOn(t, m, ds, 0.5, 18)
		answers := make([]float64, len(qs))
		for i, q := range qs {
			a, err := est.Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			answers[i] = a
		}
		return query.MAE(answers, truth)
	}
	hdg := maeOf(NewHDG(Options{}))
	ihdg := maeOf(NewHDG(Options{SkipPostProcess: true}))
	if hdg > ihdg*1.5 {
		t.Errorf("HDG MAE %g much worse than IHDG %g; post-process regressed", hdg, ihdg)
	}
}

func TestTracesCollected(t *testing.T) {
	ds := correlatedDS(t, 10000, 3, 32)
	h := NewHDG(Options{CollectTraces: true})
	est, err := h.fit(ds, 1.0, ldprand.New(15))
	if err != nil {
		t.Fatal(err)
	}
	// Answer a 2-D query (forces one response matrix) and a 3-D query
	// (forces Algorithm 2).
	if _, err := est.Answer(query.Query{{Attr: 0, Lo: 1, Hi: 17}, {Attr: 1, Lo: 3, Hi: 21}}); err != nil {
		t.Fatal(err)
	}
	if len(est.Alg1Traces) == 0 {
		t.Error("no Algorithm 1 trace collected")
	}
	if _, err := est.Answer(query.Query{{Attr: 0, Lo: 1, Hi: 17}, {Attr: 1, Lo: 3, Hi: 21}, {Attr: 2, Lo: 0, Hi: 15}}); err != nil {
		t.Fatal(err)
	}
	if len(est.LastAlg2Trace) == 0 {
		t.Error("no Algorithm 2 trace collected")
	}
}

func TestResponseMatrixCached(t *testing.T) {
	ds := correlatedDS(t, 10000, 3, 32)
	est, err := NewHDG(Options{CollectTraces: true}).fit(ds, 1.0, ldprand.New(16))
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{{Attr: 0, Lo: 1, Hi: 17}, {Attr: 1, Lo: 3, Hi: 21}}
	if _, err := est.Answer(q); err != nil {
		t.Fatal(err)
	}
	if _, err := est.Answer(q); err != nil {
		t.Fatal(err)
	}
	if len(est.Alg1Traces) != 1 {
		t.Errorf("matrix rebuilt: %d traces, want 1 (cached)", len(est.Alg1Traces))
	}
}

func TestFitDeterminism(t *testing.T) {
	ds := correlatedDS(t, 8000, 3, 16)
	q := query.Query{{Attr: 0, Lo: 2, Hi: 9}, {Attr: 2, Lo: 0, Hi: 7}}
	a1, err := NewHDG(Options{}).Fit(ds, 1.0, ldprand.New(99))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := NewHDG(Options{}).Fit(ds, 1.0, ldprand.New(99))
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := a1.Answer(q)
	v2, _ := a2.Answer(q)
	if v1 != v2 {
		t.Errorf("same seed gave different answers: %g vs %g", v1, v2)
	}
}

func TestHigherLambda(t *testing.T) {
	ds := correlatedDS(t, 40000, 5, 16)
	est := fitOn(t, NewHDG(Options{}), ds, 2.0, 17)
	q := query.Query{
		{Attr: 0, Lo: 0, Hi: 7}, {Attr: 1, Lo: 4, Hi: 11},
		{Attr: 2, Lo: 0, Hi: 11}, {Attr: 3, Lo: 2, Hi: 9}, {Attr: 4, Lo: 0, Hi: 7},
	}
	got, err := est.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	truth := query.TrueAnswer(ds, q)
	// At λ = 5 on strongly correlated data the pairwise decomposition
	// under-determines the joint (the paper's "estimation error", §4.5), so
	// only a loose bound holds — but HDG must still beat the uniform guess.
	uniErr := math.Abs(q.Volume(16) - truth)
	if math.Abs(got-truth) >= uniErr {
		t.Errorf("lambda=5 answer %g (truth %g) no better than uniform guess (err %g)", got, truth, uniErr)
	}
}

func TestTDGGranularityReported(t *testing.T) {
	ds := uniformDS(t, 20000, 3, 64)
	est, err := NewTDG(Options{}).fit(ds, 1.0, ldprand.New(18))
	if err != nil {
		t.Fatal(err)
	}
	g2 := est.grids[0].G
	want, _ := TDGGranularity(1.0, 20000, 3, 64, 0)
	if g2 != want {
		t.Errorf("reported g2 %d, want %d", g2, want)
	}
}

func TestMaxEntEstimationOption(t *testing.T) {
	// Appendix A.8: HDG can estimate λ-D answers with maximum entropy
	// instead of Algorithm 2; the two must roughly agree (§4.4).
	ds := correlatedDS(t, 20000, 4, 16)
	q := query.Query{{Attr: 0, Lo: 0, Hi: 7}, {Attr: 1, Lo: 4, Hi: 11}, {Attr: 2, Lo: 0, Hi: 11}}
	wu := fitOn(t, NewHDG(Options{}), ds, 2.0, 19)
	me := fitOn(t, NewHDG(Options{WU: mwem.Options{Method: mwem.MethodMaxEntropy}}), ds, 2.0, 19)
	aw, err := wu.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	am, err := me.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	// On strongly correlated data the two under-determined reconstructions
	// can differ; the §4.4 claim is about *accuracy*, so check both beat the
	// uniform guess by a wide margin (truth ≈ 0.477 here, volume ≈ 0.19).
	truth := query.TrueAnswer(ds, q)
	uniErr := math.Abs(q.Volume(ds.C) - truth)
	if math.Abs(aw-truth) > uniErr/2 {
		t.Errorf("WU answer %g too far from truth %g (uniform err %g)", aw, truth, uniErr)
	}
	if math.Abs(am-truth) > uniErr/2 {
		t.Errorf("MaxEnt answer %g too far from truth %g (uniform err %g)", am, truth, uniErr)
	}
}

func TestHDGFullResolutionGrids(t *testing.T) {
	// G1 = G2 = c degenerates every cell to a single value: no partial
	// cells, no uniformity error, pure frequency-oracle noise. Must still
	// work end to end.
	ds := correlatedDS(t, 30000, 3, 16)
	est := fitOn(t, NewHDG(Options{G1: 16, G2: 16}), ds, 4.0, 21)
	q := query.Query{{Attr: 0, Lo: 3, Hi: 11}, {Attr: 2, Lo: 0, Hi: 8}}
	got, err := est.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	truth := query.TrueAnswer(ds, q)
	if math.Abs(got-truth) > 0.08 {
		t.Errorf("full-resolution HDG answer %g, truth %g", got, truth)
	}
}

func TestTinyDomain(t *testing.T) {
	// The minimal legal configuration: c = 2.
	ds := uniformDS(t, 5000, 2, 2)
	for _, m := range []mech.Mechanism{NewTDG(Options{}), NewHDG(Options{})} {
		est := fitOn(t, m, ds, 2.0, 22)
		got, err := est.Answer(query.Query{{Attr: 0, Lo: 0, Hi: 0}, {Attr: 1, Lo: 0, Hi: 0}})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-0.25) > 0.1 {
			t.Errorf("%s on c=2 uniform: %g, want ≈ 0.25", m.Name(), got)
		}
	}
}
