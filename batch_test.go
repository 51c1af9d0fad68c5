// batch_test.go covers the concurrent answering layer: AnswerBatch must
// return exactly the answers sequential Answer calls produce, and every
// finalized estimator must survive concurrent Answer traffic under -race
// (the regression tests for the HDG response-matrix memoization and HIO
// memo races).
package privmdr_test

import (
	"sync"
	"testing"

	"privmdr"
)

// batchWorkload mixes 1-D, 2-D, and 3-D queries — enough to exercise the
// 1-D grids, the pairwise decomposition, and Algorithm 2 (with its lazy
// response-matrix builds) in every mechanism.
func batchWorkload(t *testing.T, d, c int) []privmdr.Query {
	t.Helper()
	var qs []privmdr.Query
	for lambda := 1; lambda <= min(3, d); lambda++ {
		w, err := privmdr.RandomWorkload(20, lambda, d, c, 0.5, uint64(40+lambda))
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, w...)
	}
	return qs
}

// batchMechanisms is every mechanism the package ships, plus the
// trace-collecting variants whose bookkeeping rides the Answer path.
func batchMechanisms() map[string]privmdr.Mechanism {
	ms := map[string]privmdr.Mechanism{}
	for _, m := range privmdr.Mechanisms() {
		ms[m.Name()] = m
	}
	ms["HDG-traces"] = privmdr.NewHDGWithOptions(privmdr.Options{CollectTraces: true})
	ms["TDG-traces"] = privmdr.NewTDGWithOptions(privmdr.Options{CollectTraces: true})
	return ms
}

// TestAnswerBatchMatchesSequential fits every mechanism once and asserts
// the parallel batch path returns bit-identical answers to sequential
// Answer calls. Run under -race (as CI does) this is also the concurrency
// regression test: the batch workers race on the lazily built HDG response
// matrices, the HIO estimate memo, and the trace collection.
func TestAnswerBatchMatchesSequential(t *testing.T) {
	const (
		n, d, c = 6000, 3, 16
		eps     = 1.0
	)
	ds, err := privmdr.GenerateDataset("normal", privmdr.GenOptions{N: n, D: d, C: c, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	qs := batchWorkload(t, d, c)
	for name, m := range batchMechanisms() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			est, err := privmdr.Fit(m, ds, eps, 23)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]float64, len(qs))
			for i, q := range qs {
				if want[i], err = est.Answer(q); err != nil {
					t.Fatalf("sequential query %d: %v", i, err)
				}
			}
			// A fresh fit, so the batch workers — not the sequential loop
			// above — trigger the lazy response-matrix builds concurrently.
			fresh, err := privmdr.Fit(m, ds, eps, 23)
			if err != nil {
				t.Fatal(err)
			}
			got, err := privmdr.AnswerBatch(fresh, qs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range qs {
				if got[i] != want[i] {
					t.Fatalf("query %d (%v): batch %g, sequential %g", i, qs[i], got[i], want[i])
				}
			}
			if _, ok := est.(privmdr.BatchEstimator); !ok {
				t.Fatalf("%s estimator does not implement BatchEstimator", name)
			}
		})
	}
}

// TestConcurrentAnswerAllMechanisms hammers each finalized estimator with
// raw concurrent Answer calls (no batch pool in between) and checks every
// goroutine sees the sequential answers — the direct regression for the
// data race in hdgEstimator's response-matrix memoization.
func TestConcurrentAnswerAllMechanisms(t *testing.T) {
	const (
		n, d, c = 6000, 3, 16
		workers = 8
	)
	ds, err := privmdr.GenerateDataset("normal", privmdr.GenOptions{N: n, D: d, C: c, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	qs := batchWorkload(t, d, c)
	for name, m := range batchMechanisms() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			est, err := privmdr.Fit(m, ds, 1.0, 29)
			if err != nil {
				t.Fatal(err)
			}
			results := make([][]float64, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					out := make([]float64, len(qs))
					// Stagger the start index so goroutines race on
					// different lazily built pairs.
					for k := range qs {
						i := (k + w*len(qs)/workers) % len(qs)
						a, err := est.Answer(qs[i])
						if err != nil {
							t.Errorf("worker %d query %d: %v", w, i, err)
							return
						}
						out[i] = a
					}
					results[w] = out
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			for w := 1; w < workers; w++ {
				for i := range qs {
					if results[w][i] != results[0][i] {
						t.Fatalf("worker %d query %d: %g, worker 0 saw %g", w, i, results[w][i], results[0][i])
					}
				}
			}
		})
	}
}

// TestAnswerBatchError checks the batch path reports the same error a
// sequential scan would: the lowest-indexed failing query's.
func TestAnswerBatchError(t *testing.T) {
	ds, err := privmdr.GenerateDataset("uniform", privmdr.GenOptions{N: 2000, D: 3, C: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	est, err := privmdr.Fit(privmdr.NewTDG(), ds, 1.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	qs := batchWorkload(t, 3, 16)
	qs[3] = privmdr.Query{{Attr: 99, Lo: 0, Hi: 1}} // invalid
	qs[7] = privmdr.Query{{Attr: 0, Lo: 5, Hi: 2}}  // also invalid, later
	_, batchErr := privmdr.AnswerBatch(est, qs)
	if batchErr == nil {
		t.Fatal("batch with invalid query succeeded")
	}
	var seqErr error
	for _, q := range qs {
		if _, err := est.Answer(q); err != nil {
			seqErr = err
			break
		}
	}
	if seqErr == nil || batchErr.Error() != seqErr.Error() {
		t.Fatalf("batch error %q, sequential error %q", batchErr, seqErr)
	}
}
