package query

import (
	"math"
	"testing"
	"testing/quick"

	"privmdr/internal/dataset"
	"privmdr/internal/ldprand"
)

func smallDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.IpumsLike(dataset.GenOptions{N: 3000, D: 4, C: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestValidate(t *testing.T) {
	good := Query{{Attr: 0, Lo: 0, Hi: 5}, {Attr: 2, Lo: 3, Hi: 3}}
	if err := good.Validate(4, 16); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	cases := []Query{
		{},
		{{Attr: -1, Lo: 0, Hi: 5}},
		{{Attr: 4, Lo: 0, Hi: 5}},
		{{Attr: 0, Lo: 0, Hi: 5}, {Attr: 0, Lo: 1, Hi: 2}},
		{{Attr: 0, Lo: -1, Hi: 5}},
		{{Attr: 0, Lo: 0, Hi: 16}},
		{{Attr: 0, Lo: 5, Hi: 2}},
	}
	for i, q := range cases {
		if err := q.Validate(4, 16); err == nil {
			t.Errorf("case %d: invalid query accepted: %v", i, q)
		}
	}
}

func TestVolume(t *testing.T) {
	q := Query{{Attr: 0, Lo: 0, Hi: 7}, {Attr: 1, Lo: 4, Hi: 11}}
	if v := q.Volume(16); math.Abs(v-0.25) > 1e-12 {
		t.Errorf("Volume = %g, want 0.25", v)
	}
	if v := (Query{{Attr: 0, Lo: 0, Hi: 15}}).Volume(16); v != 1 {
		t.Errorf("full-range volume = %g", v)
	}
}

func TestSorted(t *testing.T) {
	q := Query{{Attr: 3, Lo: 1, Hi: 2}, {Attr: 0, Lo: 0, Hi: 1}, {Attr: 2, Lo: 5, Hi: 9}}
	s := q.Sorted()
	if s[0].Attr != 0 || s[1].Attr != 2 || s[2].Attr != 3 {
		t.Errorf("Sorted = %v", s)
	}
	// Original untouched.
	if q[0].Attr != 3 {
		t.Error("Sorted mutated its receiver")
	}
}

func TestRandomRespectsParameters(t *testing.T) {
	rng := ldprand.New(1)
	f := func(lRaw, oRaw uint8) bool {
		lambda := int(lRaw%4) + 1
		omega := 0.1 + 0.8*float64(oRaw)/255
		q, err := Random(rng, lambda, 6, 64, omega)
		if err != nil {
			return false
		}
		if len(q) != lambda {
			return false
		}
		if err := q.Validate(6, 64); err != nil {
			return false
		}
		wantLen := int(64*omega + 0.5)
		for _, p := range q {
			if p.Hi-p.Lo+1 != wantLen {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomErrors(t *testing.T) {
	rng := ldprand.New(2)
	if _, err := Random(rng, 0, 4, 16, 0.5); err == nil {
		t.Error("lambda 0 should fail")
	}
	if _, err := Random(rng, 5, 4, 16, 0.5); err == nil {
		t.Error("lambda > d should fail")
	}
	if _, err := Random(rng, 2, 4, 16, 0); err == nil {
		t.Error("omega 0 should fail")
	}
	if _, err := Random(rng, 2, 4, 16, 1.5); err == nil {
		t.Error("omega > 1 should fail")
	}
}

func TestRandomWorkloadSize(t *testing.T) {
	rng := ldprand.New(3)
	qs, err := RandomWorkload(rng, 50, 2, 6, 64, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 50 {
		t.Errorf("workload size %d", len(qs))
	}
}

func TestTrueAnswerHandComputed(t *testing.T) {
	ds := &dataset.Dataset{C: 8, Cols: [][]uint16{
		{0, 1, 2, 3, 4, 5, 6, 7},
		{7, 6, 5, 4, 3, 2, 1, 0},
	}}
	// a0 in [0,3] AND a1 in [4,7] selects rows 0..3.
	q := Query{{Attr: 0, Lo: 0, Hi: 3}, {Attr: 1, Lo: 4, Hi: 7}}
	if got := TrueAnswer(ds, q); got != 0.5 {
		t.Errorf("TrueAnswer = %g, want 0.5", got)
	}
	// Empty selection.
	q2 := Query{{Attr: 0, Lo: 0, Hi: 0}, {Attr: 1, Lo: 0, Hi: 0}}
	if got := TrueAnswer(ds, q2); got != 0 {
		t.Errorf("TrueAnswer = %g, want 0", got)
	}
}

func TestTrueAnswersParallelMatchesSerial(t *testing.T) {
	ds := smallDataset(t)
	rng := ldprand.New(4)
	qs, _ := RandomWorkload(rng, 40, 3, 4, 16, 0.4)
	parallel := TrueAnswers(ds, qs)
	for i, q := range qs {
		if serial := TrueAnswer(ds, q); serial != parallel[i] {
			t.Fatalf("query %d: parallel %g != serial %g", i, parallel[i], serial)
		}
	}
}

func TestTrueAnswerMatchesHistogram(t *testing.T) {
	ds := smallDataset(t)
	h := ds.Histogram2D(1, 3)
	q := Query{{Attr: 1, Lo: 2, Hi: 9}, {Attr: 3, Lo: 0, Hi: 7}}
	want := 0.0
	for v1 := 2; v1 <= 9; v1++ {
		for v2 := 0; v2 <= 7; v2++ {
			want += h[v1*16+v2]
		}
	}
	if got := TrueAnswer(ds, q); math.Abs(got-want) > 1e-9 {
		t.Errorf("TrueAnswer %g vs histogram %g", got, want)
	}
}

func TestFullWorkloads(t *testing.T) {
	qs := Full2DMarginals(4, 8)
	if len(qs) != 6*64 {
		t.Errorf("Full2DMarginals size %d, want %d", len(qs), 6*64)
	}
	for _, q := range qs[:20] {
		if err := q.Validate(4, 8); err != nil {
			t.Fatal(err)
		}
		if q[0].Lo != q[0].Hi || q[1].Lo != q[1].Hi {
			t.Fatal("marginal query should be single-cell")
		}
	}
	r := Full2DRange(3, 8, 0.5)
	// length 4, placements 5 per axis, 3 pairs.
	if len(r) != 3*5*5 {
		t.Errorf("Full2DRange size %d, want 75", len(r))
	}
}

func TestFilteredWorkload(t *testing.T) {
	ds := smallDataset(t)
	rng := ldprand.New(5)
	qs, truth, err := FilteredWorkload(rng, ds, 20, 3, 0.2, Zero, 100000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if truth[i] != 0 {
			t.Errorf("Zero filter returned truth %g", truth[i])
		}
	}
	qs, truth, err = FilteredWorkload(rng, ds, 20, 2, 0.7, NonZero, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 20 {
		t.Fatalf("NonZero workload found only %d queries", len(qs))
	}
	for i := range qs {
		if truth[i] == 0 {
			t.Errorf("NonZero filter returned a zero-count query")
		}
	}
}

func TestMAE(t *testing.T) {
	est := []float64{0.1, 0.3, 0.5}
	truth := []float64{0.2, 0.3, 0.4}
	if got := MAE(est, truth); math.Abs(got-0.2/3) > 1e-12 {
		t.Errorf("MAE = %g", got)
	}
	if MAE(nil, nil) != 0 {
		t.Error("MAE of empty should be 0")
	}
	if MAE([]float64{1}, []float64{1, 2}) != 0 {
		t.Error("MAE of mismatched lengths should be 0")
	}
}

func TestMatches(t *testing.T) {
	ds := &dataset.Dataset{C: 8, Cols: [][]uint16{{3}, {5}}}
	if !(Query{{Attr: 0, Lo: 3, Hi: 3}}).Matches(ds, 0) {
		t.Error("exact match failed")
	}
	if (Query{{Attr: 0, Lo: 3, Hi: 3}, {Attr: 1, Lo: 0, Hi: 4}}).Matches(ds, 0) {
		t.Error("conjunct should have failed")
	}
}

func TestTrueAnswersSingleQuery(t *testing.T) {
	// The single-worker path.
	ds := smallDataset(t)
	qs := []Query{{{Attr: 0, Lo: 0, Hi: 7}}}
	got := TrueAnswers(ds, qs)
	if got[0] != TrueAnswer(ds, qs[0]) {
		t.Error("single-query TrueAnswers mismatch")
	}
}

func TestFullRangeVolumeOne(t *testing.T) {
	qs := Full2DRange(3, 8, 1.0)
	// length 8 → one placement per axis → 3 queries.
	if len(qs) != 3 {
		t.Errorf("Full2DRange(omega=1) size %d, want 3", len(qs))
	}
	// Tiny omega clamps to length 1.
	qs = Full2DRange(3, 8, 0.01)
	if len(qs) != 3*64 {
		t.Errorf("Full2DRange(omega=0.01) size %d, want 192", len(qs))
	}
}

func TestFilteredWorkloadGivesUp(t *testing.T) {
	// Zero-count queries are impossible on a uniform full-coverage dataset
	// with omega=1; the search must terminate and return what it found.
	ds := &dataset.Dataset{C: 4, Cols: [][]uint16{{0, 1, 2, 3}, {0, 1, 2, 3}}}
	rng := ldprand.New(12)
	qs, _, err := FilteredWorkload(rng, ds, 5, 2, 1.0, Zero, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 0 {
		t.Errorf("impossible filter returned %d queries", len(qs))
	}
}
