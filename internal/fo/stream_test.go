package fo

import (
	"math/rand/v2"
	"sync"
	"testing"

	"privmdr/internal/ldprand"
)

// foldAll folds reports into a fresh statistic as one run.
func foldAll(o Oracle, reports []Report) []int64 {
	counts := make([]int64, o.StatLen())
	o.Fold(reports, counts)
	return counts
}

// foldRuns folds reports into counts cut into consecutive runs whose
// lengths runLen draws from the number of reports left.
func foldRuns(o Oracle, reports []Report, counts []int64, runLen func(left int) int) {
	for len(reports) > 0 {
		k := runLen(len(reports))
		o.Fold(reports[:k], counts)
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

// scanCounts computes the sufficient statistic one report at a time,
// without the fold kernels: GRR bucket counts, OLH support through the
// clients' Hash, and Hadamard signed row counts.
func scanCounts(o Oracle, reports []Report) []int64 {
	switch o := o.(type) {
	case *GRR:
		counts := make([]int64, o.Domain())
		for _, r := range reports {
			counts[r.Value]++
		}
		return counts
	case *OLH:
		counts := make([]int64, o.Domain())
		for _, r := range reports {
			for v := range counts {
				if o.Hash(r.Seed, uint64(v)) == r.Value {
					counts[v]++
				}
			}
		}
		return counts
	case *Hadamard:
		counts := make([]int64, o.Order())
		for _, r := range reports {
			counts[r.Seed] += int64(1 - 2*r.Value)
		}
		return counts
	}
	panic("scanCounts: unknown oracle " + o.Name())
}

// TestFoldMatchesScan is the fold contract: for every oracle, folding the
// reports in runs of random length (one-report runs included) yields
// exactly the statistic a one-report-at-a-time scan computes. This is the
// lemma the mechanism-level streaming collectors rest on.
func TestFoldMatchesScan(t *testing.T) {
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
			reports := perturbed(o, 5000, ldprand.New(7))
			rng := ldprand.New(8)
			counts := make([]int64, o.StatLen())
			foldRuns(o, reports, counts, func(left int) int { return 1 + rng.IntN(min(left, 32)) })
			want := scanCounts(o, reports)
			if len(counts) != len(want) {
				t.Fatalf("statistic length %d, want %d", len(counts), len(want))
			}
			for i := range want {
				if counts[i] != want[i] {
					t.Fatalf("slot %d: folded count %d != scanned count %d", i, counts[i], want[i])
				}
			}
			// The statistic is mergeable: folding two halves separately and
			// adding the vectors matches folding everything into one.
			left := foldAll(o, reports[:len(reports)/2])
			right := foldAll(o, reports[len(reports)/2:])
			for i := range left {
				if left[i]+right[i] != counts[i] {
					t.Fatalf("slot %d: %d + %d != %d after split fold", i, left[i], right[i], counts[i])
				}
			}
		})
	}
}

// TestFoldBatchMatchesFold is the run-fold property: for every oracle, Fold
// over ANY partition of a shuffled report multiset into runs — one-report
// runs, as Submit folds them, included — is bit-identical to folding the
// whole multiset as one run. This is the lemma CountIngest's one fold path
// rests on — the statistic is a vector of commuting integer adds, so
// chunking and reordering cannot change it.
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
			rng := ldprand.New(21)
			reports := perturbed(o, 3000, rng)
			want := foldAll(o, reports)
			for trial := 0; trial < 6; trial++ {
				shuffled := append([]Report(nil), reports...)
				rng.Shuffle(len(shuffled), func(i, j int) {
					shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
				})
				runLen := func(left int) int { return 1 + rng.IntN(left) } // random run, incl. whole rest
				if trial == 0 {
					runLen = func(int) int { return 1 }
				}
				got := make([]int64, o.StatLen())
				foldRuns(o, shuffled, got, runLen)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d slot %d: run-partitioned fold %d != whole-run fold %d", trial, i, got[i], want[i])
					}
				}
			}
			// Empty runs are no-ops.
			got := foldAll(o, reports)
			o.Fold(nil, got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("slot %d changed by empty Fold", i)
				}
			}
		})
	}
}

// TestFolderEmpty pins the n = 0 convention of the oracle's own fold: a
// fresh statistic that folded no reports (or only an empty run) estimates
// exactly 0 for every value, with no NaN from the division by n.
func TestFolderEmpty(t *testing.T) {
	o, _ := NewOLH(1.0, 32)
	counts := make([]int64, o.StatLen())
	o.Fold(nil, counts)
	got := o.EstimateCounts(counts, 0)
	if len(got) != o.Domain() {
		t.Fatalf("empty estimate has %d values, want %d", len(got), o.Domain())
	}
	for v, e := range got {
		if e != 0 {
			t.Fatalf("value %d: empty estimate %v, want 0", v, e)
		}
	}
}

// TestOLHFoldConcurrentFirstUse folds through a fresh OLH oracle from
// four goroutines at once, so they race to build its value-hash table on
// their first Fold; every vector must still equal the scan.
func TestOLHFoldConcurrentFirstUse(t *testing.T) {
	o, err := NewOLH(1, 256)
	if err != nil {
		t.Fatal(err)
	}
	reports := perturbed(o, 2000, ldprand.New(41))
	want := scanCounts(o, reports)
	got := make([][]int64, 4)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := range got {
		got[w] = make([]int64, o.StatLen())
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			o.Fold(reports, got[w])
		}()
	}
	close(start)
	wg.Wait()
	for w := range got {
		for v := range want {
			if got[w][v] != want[v] {
				t.Fatalf("goroutine %d, value %d: folded count %d != scanned count %d", w, v, got[w][v], want[v])
			}
		}
	}
}

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

// BenchmarkOracleFold measures the fold cost per report for each oracle,
// in one-report runs ("seq", what each Submit pays) versus whole
// 1024-report runs ("batch") — the ≥1.5x claim on the same-group batched
// ingest path lives here for OLH, whose Θ(c)-per-report fold dominates real
// ingest.
func BenchmarkOracleFold(b *testing.B) {
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
		reports := perturbed(o, batch, ldprand.New(12))
		counts := make([]int64, o.StatLen())
		o.Fold(reports, counts) // OLH builds its value-hash table on the first Fold
		b.Run(oc.name+"/seq", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % batch
				o.Fold(reports[j:j+1], counts)
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
				o.Fold(reports[:k], counts)
			}
		})
	}
}

var sinkInt int
