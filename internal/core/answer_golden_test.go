package core

import (
	"math"
	"testing"

	"privmdr/internal/dataset"
	"privmdr/internal/grid"
	"privmdr/internal/ldprand"
	"privmdr/internal/mathx"
	"privmdr/internal/mech"
	"privmdr/internal/query"
)

// seedHDGPair2D is the seed implementation of hdgEstimator.pair2D: classify
// every cell of the pair grid, summing grid frequencies for complete cells
// and response-matrix mass for partial ones, the latter from the c×c
// reference form of Algorithm 1. Kept as the golden reference for the
// complete-block rewrite and the atom-grid response matrices alike.
func seedHDGPair2D(ref *cxcReference, a, b int, pa, pb query.Pred) (float64, error) {
	e := ref.e
	pi, err := mech.PairIndex(e.d, a, b)
	if err != nil {
		return 0, err
	}
	g := e.grids2[pi]
	ans := 0.0
	var pf *mathx.Prefix2D
	for i := range g.Freq {
		class, ir0, ir1, ic0, ic1 := g.Classify(i, pa.Lo, pa.Hi, pb.Lo, pb.Hi)
		switch class {
		case grid.Complete:
			ans += g.Freq[i]
		case grid.Partial:
			if pf == nil {
				pf, err = ref.matrix(pi, a, b)
				if err != nil {
					return 0, err
				}
			}
			ans += pf.RangeSum(ir0, ir1, ic0, ic1)
		}
	}
	return ans, nil
}

// TestHDGPair2DGolden pins pair2D to the seed's per-cell scan over the c×c
// reference matrices on a fitted estimator, across a fixed random 2-D
// workload (cell-aligned and cutting queries alike).
func TestHDGPair2DGolden(t *testing.T) {
	ds, err := dataset.ByName("normal", dataset.GenOptions{N: 20_000, D: 3, C: 64, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	est, err := NewHDG(Options{}).fit(ds, 1.0, ldprand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	ref := newCxCReference(est)
	rng := ldprand.New(9)
	pairs := mech.AllPairs(3)
	for trial := 0; trial < 400; trial++ {
		pair := pairs[rng.IntN(len(pairs))]
		a, b := pair[0], pair[1]
		lo1 := rng.IntN(64)
		hi1 := lo1 + rng.IntN(64-lo1)
		lo2 := rng.IntN(64)
		hi2 := lo2 + rng.IntN(64-lo2)
		pa := query.Pred{Attr: a, Lo: lo1, Hi: hi1}
		pb := query.Pred{Attr: b, Lo: lo2, Hi: hi2}
		want, err := seedHDGPair2D(ref, a, b, pa, pb)
		if err != nil {
			t.Fatal(err)
		}
		got, err := est.pair2D(a, b, pa, pb)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("pair (%d,%d) query [%d,%d]×[%d,%d]: pair2D %g, seed scan %g",
				a, b, lo1, hi1, lo2, hi2, got, want)
		}
	}
}

// TestHDGPrecomputeMatrices checks the warm-up: PrecomputeMatrices builds
// every response matrix, and answers match the lazy path exactly.
func TestHDGPrecomputeMatrices(t *testing.T) {
	ds, err := dataset.ByName("normal", dataset.GenOptions{N: 10_000, D: 3, C: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := NewHDG(Options{}).fit(ds, 1.0, ldprand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	eager, err := NewHDG(Options{}).fit(ds, 1.0, ldprand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := eager.PrecomputeMatrices(); err != nil {
		t.Fatal(err)
	}
	for pi := range eager.atoms {
		if eager.atoms[pi] == nil {
			t.Fatalf("pair %d response matrix not built by PrecomputeMatrices", pi)
		}
	}
	rng := ldprand.New(6)
	qs, err := query.RandomWorkload(rng, 50, 2, 3, 32, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		a, err := lazy.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := eager.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("query %v: lazy %g vs eager %g", q, a, b)
		}
	}
}
