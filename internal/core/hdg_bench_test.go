package core

import (
	"fmt"
	"testing"

	"privmdr/internal/dataset"
	"privmdr/internal/ldprand"
)

// BenchmarkHDGWarm times the warm-up a live server runs before it installs
// an epoch: building every pair's Algorithm 1 response matrix. One HDG
// estimator (d = 3, n = 2¹⁷, ε = 1) is fitted per domain size; each
// iteration warms a fresh cold copy over the same sealed grids.
func BenchmarkHDGWarm(b *testing.B) {
	for _, c := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("c=%d", c), func(b *testing.B) {
			ds, err := dataset.ByName("normal", dataset.GenOptions{N: 1 << 17, D: 3, C: c, Seed: 21})
			if err != nil {
				b.Fatal(err)
			}
			est, err := NewHDG(Options{}).fit(ds, 1.0, ldprand.New(22))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cold := newHDGEstimator(est.c, est.d, est.G1, est.G2, est.grids1, est.grids2, est.wu, false)
				b.StartTimer()
				if err := cold.PrecomputeMatrices(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
