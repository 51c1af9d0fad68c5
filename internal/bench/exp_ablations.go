package bench

import (
	"fmt"
	"math"

	"privmdr/internal/core"
	"privmdr/internal/fo"
	"privmdr/internal/ldprand"
	"privmdr/internal/mwem"
	"privmdr/internal/query"
)

func init() {
	register(Experiment{
		ID:    "ablation-maxent",
		Paper: "Section 4.4 / Appendix A.8",
		Title: "Algorithm 2 weighted update vs maximum-entropy estimation",
		Run:   runAblationMaxEnt,
	})
	register(Experiment{
		ID:    "ablation-fo",
		Paper: "Section 2.2",
		Title: "Frequency oracle variance: GRR vs OLH vs Hadamard",
		Run:   runAblationFO,
	})
	register(Experiment{
		ID:    "ablation-postprocess",
		Paper: "Section 4.2",
		Title: "HDG accuracy vs post-processing rounds",
		Run:   runAblationPostProcess,
	})
}

// runAblationMaxEnt isolates the λ-D estimation step: it feeds both
// estimators exact (noise-free) pairwise answers computed from the data, so
// any error is pure estimation error, and reports accuracy and iteration
// counts. This substantiates the §4.4 claim that weighted update matches
// maximum entropy in accuracy while converging faster.
func runAblationMaxEnt(cfg RunConfig) ([]*Result, error) {
	lambdas := []int{3, 4, 5, 6}
	if cfg.scale() == Smoke {
		lambdas = []int{3, 4}
	}
	cache := make(dsCache)
	ds, err := cache.get("normal", getOpts(cfg, cfg.n(), 6, paperC), defaultRho)
	if err != nil {
		return nil, err
	}
	acc := &Result{ID: "ablation-maxent", Title: "WU vs MaxEnt: MAE on exact pairwise inputs (normal)", XLabel: "lambda",
		Series: []string{"WU", "MaxEnt"}}
	iters := &Result{ID: "ablation-maxent", Title: "WU vs MaxEnt: iterations to converge", XLabel: "lambda",
		Series: []string{"WU", "MaxEnt"}}
	for _, l := range lambdas {
		acc.Xs = append(acc.Xs, fmt.Sprintf("%d", l))
		iters.Xs = append(iters.Xs, fmt.Sprintf("%d", l))
	}
	for xi, lambda := range lambdas {
		rng := ldprand.New(hashSeed(cfg.Seed, fmt.Sprintf("maxent|l%d", lambda)))
		qs, err := query.RandomWorkload(rng, cfg.queries()/2+1, lambda, ds.D(), ds.C, paperOmega)
		if err != nil {
			return nil, err
		}
		truth := query.TrueAnswers(ds, qs)
		var wuErr, meErr, wuIt, meIt []float64
		for qi, q := range qs {
			sorted := q.Sorted()
			var answers []mwem.PairAnswer
			for i := 0; i < lambda; i++ {
				for j := i + 1; j < lambda; j++ {
					pair := query.Query{sorted[i], sorted[j]}
					answers = append(answers, mwem.PairAnswer{I: i, J: j, F: query.TrueAnswer(ds, pair)})
				}
			}
			zw, tw, err := mwem.EstimateVector(lambda, answers, mwem.Options{MaxIters: 100, Tol: 1e-9})
			if err != nil {
				return nil, err
			}
			zm, tm, err := mwem.MaxEntVector(lambda, answers, mwem.Options{MaxIters: 2000, Tol: 1e-6})
			if err != nil {
				return nil, err
			}
			full := 1<<lambda - 1
			wuErr = append(wuErr, math.Abs(zw[full]-truth[qi]))
			meErr = append(meErr, math.Abs(zm[full]-truth[qi]))
			wuIt = append(wuIt, float64(len(tw)))
			meIt = append(meIt, float64(len(tm)))
		}
		acc.Set("WU", xi, meanStd(wuErr))
		acc.Set("MaxEnt", xi, meanStd(meErr))
		iters.Set("WU", xi, meanStd(wuIt))
		iters.Set("MaxEnt", xi, meanStd(meIt))
	}
	acc.AddNote("inputs are exact pairwise answers; differences are pure estimation error (§4.5)")
	return []*Result{acc, iters}, nil
}

// runAblationFO measures the empirical per-value estimation variance of the
// three oracles across domain sizes at ε = 1, against their closed forms.
// It demonstrates the GRR/OLH crossover at c ≈ 3e^ε + 2 and that the
// Hadamard substitute stays within a small constant of OLH.
func runAblationFO(cfg RunConfig) ([]*Result, error) {
	eps := 1.0
	domains := []int{4, 8, 16, 64, 256}
	trials := 200
	nPer := 2000
	if cfg.scale() == Smoke {
		domains = []int{4, 16, 64}
		trials = 80
	}
	r := &Result{
		ID:     "ablation-fo",
		Title:  fmt.Sprintf("Empirical oracle variance x n (eps=%g, %d trials)", eps, trials),
		XLabel: "c",
		Series: []string{"GRR", "OLH", "Hadamard", "GRR-formula", "OLH-formula"},
	}
	for _, c := range domains {
		r.Xs = append(r.Xs, fmt.Sprintf("%d", c))
	}
	rng := ldprand.New(hashSeed(cfg.Seed, "ablation-fo"))
	for xi, c := range domains {
		grr, err := fo.NewGRR(eps, c)
		if err != nil {
			return nil, err
		}
		olh, err := fo.NewOLH(eps, c)
		if err != nil {
			return nil, err
		}
		had, err := fo.NewHadamard(eps, c)
		if err != nil {
			return nil, err
		}
		for si, oracle := range []fo.Oracle{grr, olh, had} {
			ests := make([]float64, trials)
			for tr := 0; tr < trials; tr++ {
				reports := make([]fo.Report, nPer)
				for i := range reports {
					reports[i] = oracle.Perturb(0, rng)
				}
				counts := make([]int64, oracle.StatLen())
				oracle.Fold(reports, counts)
				ests[tr] = oracle.EstimateCounts(counts, nPer)[c/2]
			}
			st := meanStd(ests)
			// Variance scaled by n so numbers are comparable across rows.
			r.Set(r.Series[si], xi, Stat{Mean: st.Std * st.Std * float64(nPer), OK: true})
		}
		r.Set("GRR-formula", xi, Stat{Mean: grr.Var(nPer) * float64(nPer), OK: true})
		r.Set("OLH-formula", xi, Stat{Mean: olh.Var(nPer) * float64(nPer), OK: true})
	}
	r.AddNote("GRR beats OLH below c = 3e^eps + 2 = %.1f and loses above", 3*math.Exp(eps)+2)
	return []*Result{r}, nil
}

// runAblationPostProcess sweeps the number of Phase 2 rounds, with the
// no-post-processing ablation (IHDG) as round 0.
func runAblationPostProcess(cfg RunConfig) ([]*Result, error) {
	rounds := []int{0, 1, 2, 3, 5, 8}
	datasets := []string{"ipums", "normal"}
	if cfg.scale() == Smoke {
		rounds = []int{0, 1, 3}
		datasets = []string{"normal"}
	}
	cache := make(dsCache)
	var results []*Result
	for _, dsName := range datasets {
		ds, err := cache.get(dsName, getOpts(cfg, cfg.n(), paperD, paperC), defaultRho)
		if err != nil {
			return nil, err
		}
		r := &Result{
			ID:     "ablation-postprocess",
			Title:  fmt.Sprintf("HDG MAE vs post-process rounds: %s, lambda=2, eps=%g", dsName, paperEps),
			XLabel: "rounds",
			Series: []string{"HDG"},
		}
		for _, rd := range rounds {
			r.Xs = append(r.Xs, fmt.Sprintf("%d", rd))
		}
		wl, err := makeWorkload(cfg, ds, 2, paperOmega, "ablation-pp|"+dsName)
		if err != nil {
			return nil, err
		}
		for xi, rd := range rounds {
			opts := core.Options{Rounds: rd}
			if rd == 0 {
				opts = core.Options{SkipPostProcess: true}
			}
			mechs := []namedMech{{name: "HDG", m: core.NewHDG(opts)}}
			label := fmt.Sprintf("ablation-pp|%s|r%d", dsName, rd)
			stats, notes := evalPoint(cfg, ds, paperEps, []workload{wl}, mechs, label)
			r.Set("HDG", xi, stats["HDG"][0])
			for _, n := range notes {
				r.AddNote("%s", n)
			}
		}
		results = append(results, r)
	}
	return results, nil
}
