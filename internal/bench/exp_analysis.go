package bench

import (
	"fmt"
	"sort"

	"privmdr/internal/core"
	"privmdr/internal/ldprand"
	"privmdr/internal/query"
)

func init() {
	register(Experiment{
		ID:    "fig8",
		Paper: "Figure 8",
		Title: "Component-wise analysis: ITDG/IHDG vs TDG/HDG",
		Run: func(cfg RunConfig) ([]*Result, error) {
			return maePanels(cfg, "fig8", "Figure 8", mainDatasets, []int{2, 4},
				[]string{"ITDG", "IHDG", "TDG", "HDG"},
				"epsilon", epsPoints(cfg, paperD, paperC, paperOmega))
		},
	})

	register(Experiment{
		ID:    "fig9",
		Paper: "Figure 9",
		Title: "TDG per-query standard error distribution",
		Run: func(cfg RunConfig) ([]*Result, error) {
			return runErrDist(cfg, "fig9", "Figure 9", "TDG")
		},
	})

	register(Experiment{
		ID:    "fig10",
		Paper: "Figure 10",
		Title: "HDG per-query standard error distribution",
		Run: func(cfg RunConfig) ([]*Result, error) {
			return runErrDist(cfg, "fig10", "Figure 10", "HDG")
		},
	})

	register(Experiment{
		ID:    "fig11",
		Paper: "Figure 11",
		Title: "Full 2-D marginal query workload vs epsilon",
		Run: func(cfg RunConfig) ([]*Result, error) {
			return runFullWorkload(cfg, "fig11", "Figure 11", true)
		},
	})

	register(Experiment{
		ID:    "fig12",
		Paper: "Figure 12",
		Title: "Full 2-D range query workload (omega = 0.5) vs epsilon",
		Run: func(cfg RunConfig) ([]*Result, error) {
			return runFullWorkload(cfg, "fig12", "Figure 12", false)
		},
	})

	register(Experiment{
		ID:    "fig13",
		Paper: "Figure 13",
		Title: "0-count high-dimensional queries (omega = 0.3)",
		Run: func(cfg RunConfig) ([]*Result, error) {
			return runCountFiltered(cfg, "fig13", "Figure 13", query.Zero, 0.3)
		},
	})

	register(Experiment{
		ID:    "fig14",
		Paper: "Figure 14",
		Title: "Non-0-count high-dimensional queries (omega = 0.7)",
		Run: func(cfg RunConfig) ([]*Result, error) {
			return runCountFiltered(cfg, "fig14", "Figure 14", query.NonZero, 0.7)
		},
	})

	register(Experiment{
		ID:    "fig17",
		Paper: "Figure 17",
		Title: "Algorithm 1 (response matrix) convergence rate",
		Run: func(cfg RunConfig) ([]*Result, error) {
			return runConvergence(cfg, "fig17", "Figure 17", 2)
		},
	})

	register(Experiment{
		ID:    "fig18",
		Paper: "Figure 18",
		Title: "Algorithm 2 (lambda-D estimation) convergence rate",
		Run: func(cfg RunConfig) ([]*Result, error) {
			return runConvergence(cfg, "fig18", "Figure 18", 4)
		},
	})
}

// runErrDist reproduces the Appendix A.2 histograms: the distribution of
// per-query absolute error for one mechanism at the default setting.
func runErrDist(cfg RunConfig, id, paperRef, mechName string) ([]*Result, error) {
	mechs, err := standardMechs([]string{mechName})
	if err != nil {
		return nil, err
	}
	cache := make(dsCache)
	const bins = 12
	var results []*Result
	for _, dsName := range mainDatasets {
		for _, lambda := range []int{2, 4} {
			ds, err := cache.get(dsName, getOpts(cfg, cfg.n(), paperD, paperC), defaultRho)
			if err != nil {
				return nil, err
			}
			wl, err := makeWorkload(cfg, ds, lambda, paperOmega, fmt.Sprintf("%s|%s|l%d", id, dsName, lambda))
			if err != nil {
				return nil, err
			}
			// Mean per-query |error| across repetitions.
			errsum := make([]float64, len(wl.queries))
			reps := cfg.reps()
			for rep := 0; rep < reps; rep++ {
				seed := hashSeed(cfg.Seed, fmt.Sprintf("%s|%s|l%d|rep%d", id, dsName, lambda, rep))
				est, err := mechs[0].m.Fit(ds, paperEps, ldprand.New(seed))
				if err != nil {
					return nil, err
				}
				for qi, q := range wl.queries {
					a, err := est.Answer(q)
					if err != nil {
						return nil, err
					}
					d := a - wl.truth[qi]
					if d < 0 {
						d = -d
					}
					errsum[qi] += d
				}
			}
			maxErr := 0.0
			for qi := range errsum {
				errsum[qi] /= float64(reps)
				if errsum[qi] > maxErr {
					maxErr = errsum[qi]
				}
			}
			if maxErr == 0 {
				maxErr = 1e-9
			}
			r := &Result{
				ID:     id,
				Title:  fmt.Sprintf("%s: %s, lambda=%d (%s standard errors)", paperRef, dsName, lambda, mechName),
				XLabel: "error bin",
				Series: []string{"queries"},
			}
			width := maxErr / bins
			counts := make([]float64, bins)
			for _, e := range errsum {
				b := int(e / width)
				if b >= bins {
					b = bins - 1
				}
				counts[b]++
			}
			for b := 0; b < bins; b++ {
				r.Xs = append(r.Xs, fmt.Sprintf("%.4f-%.4f", float64(b)*width, float64(b+1)*width))
			}
			for b, c := range counts {
				r.Set("queries", b, Stat{Mean: c, OK: true})
			}
			results = append(results, r)
		}
	}
	return results, nil
}

// runFullWorkload reproduces Appendix A.3: the exhaustive 2-D marginal
// (marginals=true) or 2-D range workload, swept over epsilon. The workload
// is subsampled at non-paper scales to keep runtimes sane; the subsample is
// seeded and identical across mechanisms.
func runFullWorkload(cfg RunConfig, id, paperRef string, marginals bool) ([]*Result, error) {
	mechNames := noHIONames
	if !marginals {
		mechNames = allMechNames
	}
	mechs, err := cfg.selectMechs(mechNames)
	if err != nil {
		return nil, err
	}
	cache := make(dsCache)
	var results []*Result
	for _, dsName := range mainDatasets {
		ds, err := cache.get(dsName, getOpts(cfg, cfg.n(), paperD, paperC), defaultRho)
		if err != nil {
			return nil, err
		}
		var qs []query.Query
		if marginals {
			qs = query.Full2DMarginals(paperD, paperC)
		} else {
			qs = query.Full2DRange(paperD, paperC, paperOmega)
		}
		full := len(qs)
		if limit := 40 * cfg.queries(); cfg.scale() != Paper && len(qs) > limit {
			rng := ldprand.New(hashSeed(cfg.Seed, id+"|sample|"+dsName))
			rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
			qs = qs[:limit]
		}
		truth, ok := truth2D(ds, qs)
		if !ok {
			truth = query.TrueAnswers(ds, qs)
		}
		wl := workload{key: "full2d", queries: qs, truth: truth}
		r := &Result{
			ID:     id,
			Title:  fmt.Sprintf("%s: %s", paperRef, dsName),
			XLabel: "epsilon",
		}
		for _, nm := range mechs {
			r.Series = append(r.Series, nm.name)
		}
		for _, eps := range cfg.epsilons() {
			r.Xs = append(r.Xs, fmt.Sprintf("%.1f", eps))
		}
		if len(qs) < full {
			r.AddNote("workload subsampled to %d of %d queries", len(qs), full)
		}
		for xi, eps := range cfg.epsilons() {
			label := fmt.Sprintf("%s|%s|e%.1f", id, dsName, eps)
			stats, notes := evalPoint(cfg, ds, eps, []workload{wl}, mechs, label)
			for _, nm := range mechs {
				r.Set(nm.name, xi, stats[nm.name][0])
			}
			for _, n := range notes {
				r.AddNote("%s", n)
			}
		}
		results = append(results, r)
	}
	return results, nil
}

// runCountFiltered reproduces Appendix A.4: high-dimensional queries
// filtered by true count, λ swept on the x-axis at d = 10.
func runCountFiltered(cfg RunConfig, id, paperRef string, filter query.CountFilter, omega float64) ([]*Result, error) {
	d := 10
	lambdas := []int{6, 7, 8, 9, 10}
	if cfg.scale() != Paper {
		lambdas = []int{6, 8, 10}
	}
	mechs, err := cfg.selectMechs(noHIONames)
	if err != nil {
		return nil, err
	}
	cache := make(dsCache)
	var results []*Result
	for _, dsName := range mainDatasets {
		r := &Result{ID: id, Title: fmt.Sprintf("%s: %s", paperRef, dsName), XLabel: "lambda"}
		for _, l := range lambdas {
			r.Xs = append(r.Xs, fmt.Sprintf("%d", l))
		}
		for _, nm := range mechs {
			r.Series = append(r.Series, nm.name)
		}
		ds, err := cache.get(dsName, getOpts(cfg, cfg.n(), d, paperC), defaultRho)
		if err != nil {
			return nil, err
		}
		for xi, lambda := range lambdas {
			rng := ldprand.New(hashSeed(cfg.Seed, fmt.Sprintf("%s|%s|l%d", id, dsName, lambda)))
			qs, truth, err := query.FilteredWorkload(rng, ds, cfg.queries(), lambda, omega, filter, 0)
			if err != nil {
				return nil, err
			}
			if len(qs) == 0 {
				r.AddNote("no queries pass the filter at lambda=%d", lambda)
				continue
			}
			if len(qs) < cfg.queries() {
				r.AddNote("only %d/%d queries pass the filter at lambda=%d", len(qs), cfg.queries(), lambda)
			}
			wl := workload{key: "filtered", queries: qs, truth: truth}
			label := fmt.Sprintf("%s|%s|l%d", id, dsName, lambda)
			stats, notes := evalPoint(cfg, ds, paperEps, []workload{wl}, mechs, label)
			for _, nm := range mechs {
				r.Set(nm.name, xi, stats[nm.name][0])
			}
			for _, n := range notes {
				r.AddNote("%s", n)
			}
		}
		results = append(results, r)
	}
	return results, nil
}

// runConvergence reproduces Appendix A.6: per-sweep change traces of
// Algorithm 1 (lambda = 2 answering builds the response matrices) or
// Algorithm 2 (lambda = 4 estimation), one series per epsilon.
func runConvergence(cfg RunConfig, id, paperRef string, lambda int) ([]*Result, error) {
	epsList := []float64{0.2, 0.6, 1.0, 1.4, 1.8}
	if cfg.scale() == Smoke {
		epsList = []float64{1.0}
	}
	cache := make(dsCache)
	var results []*Result
	for _, dsName := range mainDatasets {
		ds, err := cache.get(dsName, getOpts(cfg, cfg.n(), paperD, paperC), defaultRho)
		if err != nil {
			return nil, err
		}
		r := &Result{
			ID:     id,
			Title:  fmt.Sprintf("%s: %s (mean change per step)", paperRef, dsName),
			XLabel: "step",
		}
		traces := make(map[string][]float64, len(epsList))
		maxLen := 0
		for _, eps := range epsList {
			series := fmt.Sprintf("eps=%.1f", eps)
			r.Series = append(r.Series, series)
			seed := hashSeed(cfg.Seed, fmt.Sprintf("%s|%s|e%.1f", id, dsName, eps))
			m := core.NewHDG(core.Options{CollectTraces: true})
			est, err := m.Fit(ds, eps, ldprand.New(seed))
			if err != nil {
				return nil, err
			}
			wl, err := makeWorkload(cfg, ds, lambda, paperOmega, fmt.Sprintf("%s|%s|e%.1f", id, dsName, eps))
			if err != nil {
				return nil, err
			}
			var collected [][]float64
			for _, q := range wl.queries {
				if _, err := est.Answer(q); err != nil {
					return nil, err
				}
				if lambda > 2 {
					ts := est.(core.TraceSource)
					if tr := ts.LastAlg2ConvergenceTrace(); tr != nil {
						collected = append(collected, append([]float64(nil), tr...))
					}
				}
			}
			if lambda == 2 {
				collected = est.(core.TraceSource).Alg1ConvergenceTraces()
			}
			avg := averageTraces(collected)
			traces[series] = avg
			if len(avg) > maxLen {
				maxLen = len(avg)
			}
		}
		const displaySteps = 50
		if maxLen > displaySteps {
			maxLen = displaySteps
		}
		for step := 0; step < maxLen; step++ {
			r.Xs = append(r.Xs, fmt.Sprintf("%d", step+1))
		}
		for series, tr := range traces {
			for step := 0; step < maxLen; step++ {
				if step < len(tr) {
					r.Set(series, step, Stat{Mean: tr[step], OK: true})
				}
			}
		}
		sort.Strings(r.Series)
		results = append(results, r)
	}
	return results, nil
}

// averageTraces averages ragged traces position-wise (shorter traces have
// converged; they stop contributing past their end).
func averageTraces(traces [][]float64) []float64 {
	maxLen := 0
	for _, t := range traces {
		if len(t) > maxLen {
			maxLen = len(t)
		}
	}
	out := make([]float64, maxLen)
	for step := 0; step < maxLen; step++ {
		sum, n := 0.0, 0
		for _, t := range traces {
			if step < len(t) {
				sum += t[step]
				n++
			}
		}
		if n > 0 {
			out[step] = sum / float64(n)
		}
	}
	return out
}
