// bench_test.go wires every table and figure of the paper to a testing.B
// target, so `go test -bench=.` regenerates a smoke-scale version of the
// entire evaluation and reports headline MAEs as benchmark metrics.
// Full-scale runs go through cmd/privmdr-bench (`privmdr-bench -list`
// names every experiment; internal/bench holds their definitions).
package privmdr_test

import (
	"fmt"
	"testing"

	"privmdr"
	"privmdr/internal/bench"
	"privmdr/internal/ldprand"
)

// runExperiment executes one registered experiment per benchmark iteration
// at smoke scale and reports the HDG (or first-series) MAE of the first
// panel as a metric.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := bench.RunConfig{Scale: bench.Smoke, N: 10_000, Reps: 1, Queries: 30, Seed: 2020}
	for i := 0; i < b.N; i++ {
		results, err := e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) == 0 {
			b.Fatal("experiment produced no results")
		}
		if i == b.N-1 {
			r := results[0]
			series := "HDG"
			found := false
			for _, s := range r.Series {
				if s == series {
					found = true
					break
				}
			}
			if !found && len(r.Series) > 0 {
				series = r.Series[0]
			}
			for xi := range r.Xs {
				if st := r.Get(series, xi); st.OK {
					b.ReportMetric(st.Mean, series+"_mae")
					break
				}
			}
		}
	}
}

func BenchmarkFig1VaryEpsilon(b *testing.B)      { runExperiment(b, "fig1") }
func BenchmarkFig2VaryVolume(b *testing.B)       { runExperiment(b, "fig2") }
func BenchmarkFig3VaryDomain(b *testing.B)       { runExperiment(b, "fig3") }
func BenchmarkFig4VaryAttrs(b *testing.B)        { runExperiment(b, "fig4") }
func BenchmarkFig5VaryLambda(b *testing.B)       { runExperiment(b, "fig5") }
func BenchmarkFig6VaryUsers(b *testing.B)        { runExperiment(b, "fig6") }
func BenchmarkFig7Guideline(b *testing.B)        { runExperiment(b, "fig7") }
func BenchmarkFig8ComponentWise(b *testing.B)    { runExperiment(b, "fig8") }
func BenchmarkFig9TDGErrDist(b *testing.B)       { runExperiment(b, "fig9") }
func BenchmarkFig10HDGErrDist(b *testing.B)      { runExperiment(b, "fig10") }
func BenchmarkFig11FullMarginals(b *testing.B)   { runExperiment(b, "fig11") }
func BenchmarkFig12Full2DRange(b *testing.B)     { runExperiment(b, "fig12") }
func BenchmarkFig13ZeroCount(b *testing.B)       { runExperiment(b, "fig13") }
func BenchmarkFig14NonZeroCount(b *testing.B)    { runExperiment(b, "fig14") }
func BenchmarkFig15UserSplit(b *testing.B)       { runExperiment(b, "fig15") }
func BenchmarkFig16GuidelineD(b *testing.B)      { runExperiment(b, "fig16") }
func BenchmarkFig17Alg1Convergence(b *testing.B) { runExperiment(b, "fig17") }
func BenchmarkFig18Alg2Convergence(b *testing.B) { runExperiment(b, "fig18") }
func BenchmarkFig19NewDataEps(b *testing.B)      { runExperiment(b, "fig19") }
func BenchmarkFig20NewDataVolume(b *testing.B)   { runExperiment(b, "fig20") }
func BenchmarkFig21NewDataAttrs(b *testing.B)    { runExperiment(b, "fig21") }
func BenchmarkFig23Lambda6Eps(b *testing.B)      { runExperiment(b, "fig23") }
func BenchmarkFig24Lambda6Volume(b *testing.B)   { runExperiment(b, "fig24") }
func BenchmarkFig25Lambda6Domain(b *testing.B)   { runExperiment(b, "fig25") }
func BenchmarkFig26Lambda6Attrs(b *testing.B)    { runExperiment(b, "fig26") }
func BenchmarkFig27Lambda6Users(b *testing.B)    { runExperiment(b, "fig27") }
func BenchmarkFig28Covariance(b *testing.B)      { runExperiment(b, "fig28") }
func BenchmarkTable2Guideline(b *testing.B)      { runExperiment(b, "table2") }

func BenchmarkAblationMaxEntVsWU(b *testing.B)        { runExperiment(b, "ablation-maxent") }
func BenchmarkAblationFOCrossover(b *testing.B)       { runExperiment(b, "ablation-fo") }
func BenchmarkAblationPostProcessRounds(b *testing.B) { runExperiment(b, "ablation-postprocess") }

// --- substrate micro-benchmarks ---

func benchDataset(b *testing.B, n int) *privmdr.Dataset {
	b.Helper()
	ds, err := privmdr.GenerateDataset("normal", privmdr.GenOptions{N: n, D: 6, C: 64, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// BenchmarkHDGFit measures the full HDG pipeline (perturb + aggregate +
// post-process) for 50k users.
func BenchmarkHDGFit(b *testing.B) {
	ds := benchDataset(b, 50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := privmdr.FitWithRand(privmdr.NewHDG(), ds, 1.0, ldprand.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHDGAnswer2D measures 2-D answering (including lazy response
// matrix construction amortized across queries).
func BenchmarkHDGAnswer2D(b *testing.B) {
	ds := benchDataset(b, 50_000)
	est, err := privmdr.Fit(privmdr.NewHDG(), ds, 1.0, 5)
	if err != nil {
		b.Fatal(err)
	}
	qs, err := privmdr.RandomWorkload(256, 2, 6, 64, 0.5, 6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Answer(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHDGAnswer6D measures Algorithm 2 estimation cost.
func BenchmarkHDGAnswer6D(b *testing.B) {
	ds := benchDataset(b, 50_000)
	est, err := privmdr.Fit(privmdr.NewHDG(), ds, 1.0, 7)
	if err != nil {
		b.Fatal(err)
	}
	qs, err := privmdr.RandomWorkload(64, 6, 6, 64, 0.5, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Answer(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTDGFit is the TDG counterpart of BenchmarkHDGFit.
func BenchmarkTDGFit(b *testing.B) {
	ds := benchDataset(b, 50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := privmdr.FitWithRand(privmdr.NewTDG(), ds, 1.0, ldprand.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMSWFit covers the Square Wave + EM path.
func BenchmarkMSWFit(b *testing.B) {
	ds := benchDataset(b, 50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := privmdr.FitWithRand(privmdr.NewMSW(), ds, 1.0, ldprand.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkAnswer fits one mechanism and measures steady-state single-query
// answering, sequentially and under parallel load (the query-server
// traffic shape). The estimator is warmed on the whole workload first so
// lazy one-time work (HDG response matrices, HIO memo entries) is not
// billed to the timed loop.
func benchmarkAnswer(b *testing.B, m privmdr.Mechanism, n, d, c, lambda int) {
	b.Helper()
	ds, err := privmdr.GenerateDataset("normal", privmdr.GenOptions{N: n, D: d, C: c, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	est, err := privmdr.Fit(m, ds, 1.0, 5)
	if err != nil {
		b.Fatal(err)
	}
	qs, err := privmdr.RandomWorkload(256, lambda, d, c, 0.5, 6)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := privmdr.AnswerBatch(est, qs); err != nil {
		b.Fatal(err)
	}
	b.Run("seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := est.Answer(qs[i%len(qs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("par", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, err := est.Answer(qs[i%len(qs)]); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	})
}

// BenchmarkAnswerHDG / TDG / CALM / LHIO / HIO measure per-query answering
// for the headline mechanisms and the baselines with nontrivial answer
// paths; the first four answer through the shared mwem.Answer. (HIO runs at
// d=4 so its 4^d hierarchy groups stay feasible.)
func BenchmarkAnswerHDG(b *testing.B)  { benchmarkAnswer(b, privmdr.NewHDG(), 50_000, 6, 64, 2) }
func BenchmarkAnswerTDG(b *testing.B)  { benchmarkAnswer(b, privmdr.NewTDG(), 50_000, 6, 64, 2) }
func BenchmarkAnswerCALM(b *testing.B) { benchmarkAnswer(b, privmdr.NewCALM(), 50_000, 6, 64, 2) }
func BenchmarkAnswerLHIO(b *testing.B) { benchmarkAnswer(b, privmdr.NewLHIO(), 50_000, 6, 64, 2) }
func BenchmarkAnswerHIO(b *testing.B)  { benchmarkAnswer(b, privmdr.NewHIO(), 20_000, 4, 64, 2) }

// BenchmarkAnswerBatchHDG measures whole-workload throughput through the
// bounded worker pool — the unit of work one POST /query performs.
func BenchmarkAnswerBatchHDG(b *testing.B) {
	ds, err := privmdr.GenerateDataset("normal", privmdr.GenOptions{N: 50_000, D: 6, C: 64, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	est, err := privmdr.Fit(privmdr.NewHDG(), ds, 1.0, 5)
	if err != nil {
		b.Fatal(err)
	}
	qs, err := privmdr.RandomWorkload(256, 2, 6, 64, 0.5, 6)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := privmdr.AnswerBatch(est, qs); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := privmdr.AnswerBatch(est, qs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrueAnswers measures the exact-answer scan the harness uses.
func BenchmarkTrueAnswers(b *testing.B) {
	ds := benchDataset(b, 50_000)
	qs, err := privmdr.RandomWorkload(100, 4, 6, 64, 0.5, 9)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		privmdr.TrueAnswers(ds, qs)
	}
}

// --- streaming collector benchmarks (PR-4) ---

// benchReports runs the client side of an HDG deployment once and returns
// the reports plus their protocol.
func benchReports(b *testing.B, n int) (privmdr.Protocol, []privmdr.Report) {
	b.Helper()
	ds := benchDataset(b, n)
	p := privmdr.Params{N: n, D: 6, C: 64, Eps: 1.0, Seed: 17}
	proto, err := privmdr.NewHDG().Protocol(p)
	if err != nil {
		b.Fatal(err)
	}
	reports := make([]privmdr.Report, n)
	record := make([]int, p.D)
	for u := 0; u < n; u++ {
		a, err := proto.Assignment(u)
		if err != nil {
			b.Fatal(err)
		}
		for i := range record {
			record[i] = ds.Value(i, u)
		}
		reports[u], err = proto.ClientReport(a, record, privmdr.ClientRand(p, u))
		if err != nil {
			b.Fatal(err)
		}
	}
	return proto, reports
}

// BenchmarkCollectorIngest measures streaming ingestion: reports fold into
// count vectors as they arrive, so bytes of collector state stay O(domain).
func BenchmarkCollectorIngest(b *testing.B) {
	proto, reports := benchReports(b, 50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coll, err := proto.NewCollector()
		if err != nil {
			b.Fatal(err)
		}
		if err := coll.SubmitBatch(reports); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(reports))*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
}

// BenchmarkEpochRefresh measures the live-serving refresh per mechanism:
// one new report submitted, then QueryServer.Refresh — a non-destructive
// Estimate snapshot, the estimator build (with HDG's eager-matrix warm-up),
// and the atomic epoch swap. This is the steady-state cost `privmdr serve
// -refresh` pays per interval. Each mechanism serves one deployment
// (Params.N = 80 000), refreshed after a quarter and after all of its
// reports: a refresh reads count vectors, not reports, so the two cases
// should read alike. Params stay fixed across the cases because the grid
// guideline picks finer grids at a larger N, which would move the cost for
// a reason other than the reports ingested.
func BenchmarkEpochRefresh(b *testing.B) {
	const n = 80_000
	ds, err := privmdr.GenerateDataset("normal", privmdr.GenOptions{N: n, D: 3, C: 16, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range privmdr.Mechanisms() {
		b.Run(m.Name(), func(b *testing.B) {
			p := privmdr.Params{N: n, D: ds.D(), C: ds.C, Eps: 1.0, Seed: 19}
			proto, err := m.Protocol(p)
			if err != nil {
				b.Fatal(err)
			}
			record := make([]int, p.D)
			reports := make([]privmdr.Report, p.N)
			for u := 0; u < p.N; u++ {
				a, err := proto.Assignment(u)
				if err != nil {
					b.Fatal(err)
				}
				for i := range record {
					record[i] = ds.Value(i, u)
				}
				reports[u], err = proto.ClientReport(a, record, privmdr.ClientRand(p, u))
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, ingested := range []int{n / 4, n} {
				b.Run(fmt.Sprintf("n=%d", ingested), func(b *testing.B) {
					srv, err := privmdr.NewLiveQueryServer(proto, privmdr.LiveOptions{})
					if err != nil {
						b.Fatal(err)
					}
					defer srv.Close()
					if err := srv.SubmitBatch(reports[:ingested]); err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						// One fresh report per iteration so the swap is never
						// skipped as idle (duplicates are legal — reports are
						// anonymous).
						if err := srv.Submit(reports[i%ingested]); err != nil {
							b.Fatal(err)
						}
						if _, swapped, err := srv.Refresh(); err != nil {
							b.Fatal(err)
						} else if !swapped {
							b.Fatal("refresh skipped despite a fresh report")
						}
					}
				})
			}
		})
	}
}

// BenchmarkCollectorFinalize measures finalize latency at increasing n —
// the headline streaming win: estimation reads O(domain) counts, so the
// latency no longer grows with the user count. Each iteration is Finalize
// plus WarmEstimator, the work a QueryServer does before it serves: HDG
// builds its Algorithm 1 response matrices only when warmed, and that is
// most of its finalize.
func BenchmarkCollectorFinalize(b *testing.B) {
	for _, n := range []int{20_000, 80_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			proto, reports := benchReports(b, n)
			colls := make([]privmdr.Collector, b.N)
			for i := range colls {
				coll, err := proto.NewCollector()
				if err != nil {
					b.Fatal(err)
				}
				if err := coll.SubmitBatch(reports); err != nil {
					b.Fatal(err)
				}
				colls[i] = coll
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				est, err := colls[i].Finalize()
				if err != nil {
					b.Fatal(err)
				}
				if err := privmdr.WarmEstimator(est); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
