package fo

import (
	"math/rand/v2"
	"testing"

	"privmdr/internal/ldprand"
)

// foldAll folds reports into a fresh statistic as one run.
func foldAll(f *Folder, reports []Report) []int64 {
	counts := make([]int64, f.StatLen())
	f.FoldBatch(reports, counts)
	return counts
}

// foldRuns folds reports into counts cut into consecutive runs whose
// lengths runLen draws from the number of reports left.
func foldRuns(f *Folder, reports []Report, counts []int64, runLen func(left int) int) {
	for len(reports) > 0 {
		k := runLen(len(reports))
		f.FoldBatch(reports[:k], counts)
		reports = reports[k:]
	}
}

// perturbed draws n honest reports of o over a skewed distribution.
func perturbed(o Oracle, n int, rng *rand.Rand) []Report {
	c := o.Domain()
	reports := make([]Report, n)
	for i := range reports {
		v := rng.IntN(c)
		if i%3 == 0 {
			v = 0 // skew so the statistic is not uniform
		}
		reports[i] = o.Perturb(v, rng)
	}
	return reports
}

// TestFolderMatchesEstimateAll is the streaming golden contract: for every
// counting oracle, folding the reports in runs of random length (one-report
// runs included) and estimating from the statistic is bit-identical to
// EstimateAll over the whole multiset. This is the lemma the
// mechanism-level streaming collectors rest on.
func TestFolderMatchesEstimateAll(t *testing.T) {
	cases := []struct {
		name string
		mk   func() (Oracle, error)
	}{
		{"grr", func() (Oracle, error) { return NewGRR(1.0, 16) }},
		{"olh", func() (Oracle, error) { return NewOLH(0.8, 64) }},
		{"hadamard", func() (Oracle, error) { return NewHadamard(1.2, 100) }},
		{"auto-large", func() (Oracle, error) { return NewAuto(1.0, 1<<14) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			f, err := NewFolder(o)
			if err != nil {
				t.Fatal(err)
			}
			reports := perturbed(o, 5000, ldprand.New(7))
			rng := ldprand.New(8)
			counts := make([]int64, f.StatLen())
			foldRuns(f, reports, counts, func(left int) int { return 1 + rng.IntN(min(left, 32)) })
			want := o.EstimateAll(reports)
			got := f.Estimate(counts, len(reports))
			if len(got) != len(want) {
				t.Fatalf("estimate length %d, want %d", len(got), len(want))
			}
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("value %d: folded estimate %v != EstimateAll %v", v, got[v], want[v])
				}
			}
			// The statistic is mergeable: folding two halves separately and
			// adding the vectors matches folding everything into one.
			left := foldAll(f, reports[:len(reports)/2])
			right := foldAll(f, reports[len(reports)/2:])
			for i := range left {
				if left[i]+right[i] != counts[i] {
					t.Fatalf("slot %d: %d + %d != %d after split fold", i, left[i], right[i], counts[i])
				}
			}
		})
	}
}

// TestFoldBatchMatchesFold is the run-fold property: for every counting
// oracle, FoldBatch over ANY partition of a shuffled report multiset into
// runs — one-report runs, as Submit folds them, included — is bit-identical
// to folding the whole multiset as one run. This is the lemma CountIngest's
// one fold path rests on — the statistic is a vector of commuting integer
// adds, so chunking and reordering cannot change it.
func TestFoldBatchMatchesFold(t *testing.T) {
	cases := []struct {
		name string
		mk   func() (Oracle, error)
	}{
		{"grr", func() (Oracle, error) { return NewGRR(1.0, 16) }},
		{"olh", func() (Oracle, error) { return NewOLH(0.8, 64) }},
		{"hadamard", func() (Oracle, error) { return NewHadamard(1.2, 100) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			f, err := NewFolder(o)
			if err != nil {
				t.Fatal(err)
			}
			rng := ldprand.New(21)
			reports := perturbed(o, 3000, rng)
			want := foldAll(f, reports)
			for trial := 0; trial < 6; trial++ {
				shuffled := append([]Report(nil), reports...)
				rng.Shuffle(len(shuffled), func(i, j int) {
					shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
				})
				runLen := func(left int) int { return 1 + rng.IntN(left) } // random run, incl. whole rest
				if trial == 0 {
					runLen = func(int) int { return 1 }
				}
				got := make([]int64, f.StatLen())
				foldRuns(f, shuffled, got, runLen)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d slot %d: run-partitioned fold %d != whole-run fold %d", trial, i, got[i], want[i])
					}
				}
			}
			// Empty runs are no-ops.
			got := foldAll(f, reports)
			f.FoldBatch(nil, got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("slot %d changed by empty FoldBatch", i)
				}
			}
		})
	}
}

// TestOLHSupportMatchesFold pins the shared inner-hash table: the integer
// support tallies the finalize-time Support scan computes must equal the
// counts the streaming folder accumulates (and Fold-then-Estimate must
// equal the Support-based EstimateAll), so the two readers of the oracle's
// valueHashes cannot drift apart.
func TestOLHSupportMatchesFold(t *testing.T) {
	o, err := NewOLH(1.0, 128)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFolder(o)
	if err != nil {
		t.Fatal(err)
	}
	reports := perturbed(o, 4000, ldprand.New(31))
	support := o.Support(reports)
	folded := make([]int64, f.StatLen())
	f.FoldBatch(reports, folded)
	for v := range support {
		if support[v] != float64(folded[v]) {
			t.Fatalf("value %d: Support tally %v != folded count %d", v, support[v], folded[v])
		}
	}
	wantEst := o.EstimateAll(reports)
	gotEst := f.Estimate(folded, len(reports))
	for v := range wantEst {
		if gotEst[v] != wantEst[v] {
			t.Fatalf("value %d: folded estimate %v != Support estimate %v", v, gotEst[v], wantEst[v])
		}
	}
}

// TestFolderEmpty pins the n = 0 convention: all-zero estimates, exactly
// like EstimateAll over no reports.
func TestFolderEmpty(t *testing.T) {
	o, _ := NewOLH(1.0, 32)
	f, err := NewFolder(o)
	if err != nil {
		t.Fatal(err)
	}
	got := f.Estimate(make([]int64, f.StatLen()), 0)
	for v, e := range got {
		if e != 0 {
			t.Fatalf("value %d: empty estimate %v, want 0", v, e)
		}
	}
}

// TestFolderRejectsForeignOracle pins the capability split: an oracle from
// outside the package cannot stream and must keep its reports.
func TestFolderRejectsForeignOracle(t *testing.T) {
	if _, err := NewFolder(foreignOracle{}); err == nil {
		t.Fatal("foreign oracle should have no folder")
	}
}

type foreignOracle struct{}

func (foreignOracle) Name() string                         { return "foreign" }
func (foreignOracle) Domain() int                          { return 2 }
func (foreignOracle) Perturb(v int, rng *rand.Rand) Report { return Report{} }
func (foreignOracle) CheckReport(r Report) error           { return nil }
func (foreignOracle) EstimateAll(reports []Report) []float64 {
	return make([]float64, 2)
}
func (foreignOracle) Var(n int) float64 { return 0 }

// hashModulo is the pre-Lemire OLH reduction, kept here as the benchmark
// baseline for the multiply-shift rewrite.
func hashModulo(seed, v, g uint64) int {
	return int(ldprand.SplitMix64(seed^ldprand.SplitMix64(v+0x9e3779b97f4a7c15)) % g)
}

// BenchmarkOLHReduction compares the hot OLH inner loop — one hash
// evaluation per (report, value) pair — under the old modulo reduction and
// the Lemire multiply-shift that replaced it.
func BenchmarkOLHReduction(b *testing.B) {
	o, err := NewOLH(1.0, 1024)
	if err != nil {
		b.Fatal(err)
	}
	g := uint64(o.HashRange())
	b.Run("modulo", func(b *testing.B) {
		acc := 0
		for i := 0; i < b.N; i++ {
			acc += hashModulo(uint64(i), uint64(i%1024), g)
		}
		sinkInt = acc
	})
	b.Run("lemire", func(b *testing.B) {
		acc := 0
		for i := 0; i < b.N; i++ {
			acc += o.Hash(uint64(i), uint64(i%1024))
		}
		sinkInt = acc
	})
}

// BenchmarkOLHSupport measures the finalize-time support scan (which the
// streaming path amortizes across ingest); the Lemire reduction speeds up
// both paths identically since they share the predicate.
func BenchmarkOLHSupport(b *testing.B) {
	o, err := NewOLH(1.0, 256)
	if err != nil {
		b.Fatal(err)
	}
	reports := perturbed(o, 10000, ldprand.New(11))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFloats = o.Support(reports)
	}
}

// BenchmarkFolderFold measures the streaming fold cost per report for each
// counting oracle, in one-report runs ("seq", what each Submit pays) versus
// whole 1024-report runs ("batch") — the ≥1.5x claim on the same-group
// batched ingest path lives here for OLH, whose Θ(c)-per-report fold
// dominates real ingest.
func BenchmarkFolderFold(b *testing.B) {
	oracles := []struct {
		name string
		mk   func() (Oracle, error)
	}{
		{"olh256", func() (Oracle, error) { return NewOLH(1.0, 256) }},
		{"grr16", func() (Oracle, error) { return NewGRR(1.0, 16) }},
		{"hadamard1024", func() (Oracle, error) { return NewHadamard(1.0, 1000) }},
	}
	const batch = 1024
	for _, oc := range oracles {
		o, err := oc.mk()
		if err != nil {
			b.Fatal(err)
		}
		f, err := NewFolder(o)
		if err != nil {
			b.Fatal(err)
		}
		reports := perturbed(o, batch, ldprand.New(12))
		counts := make([]int64, f.StatLen())
		b.Run(oc.name+"/seq", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % batch
				f.FoldBatch(reports[j:j+1], counts)
			}
		})
		b.Run(oc.name+"/batch", func(b *testing.B) {
			// Whole-run folds, normalized to per-report cost via b.N.
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += batch {
				k := batch
				if rem := b.N - done; rem < k {
					k = rem
				}
				f.FoldBatch(reports[:k], counts)
			}
		})
	}
}

var (
	sinkInt    int
	sinkFloats []float64
)
