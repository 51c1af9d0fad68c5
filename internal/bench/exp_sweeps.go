package bench

import (
	"fmt"
	"math"

	"privmdr/internal/dataset"
)

// Paper defaults shared by the sweeps (Section 5.1).
const (
	paperD     = 6
	paperC     = 64
	paperEps   = 1.0
	paperOmega = 0.5
)

var realDatasets = []string{"ipums", "bfive"}
var synthDatasets = []string{"normal", "laplace"}
var mainDatasets = []string{"ipums", "bfive", "normal", "laplace"}
var newDatasets = []string{"loan", "acs"}

// epsPoints builds an epsilon-sweep point list at fixed other parameters.
func epsPoints(cfg RunConfig, d, c int, omega float64) []sweepPoint {
	var pts []sweepPoint
	for _, eps := range cfg.epsilons() {
		pts = append(pts, sweepPoint{
			X: fmt.Sprintf("%.1f", eps),
			N: cfg.n(), D: d, C: c, Eps: eps, Omega: omega, Rho: defaultRho,
		})
	}
	return pts
}

// omegaPoints builds a query-volume sweep at the paper's other defaults.
func omegaPoints(cfg RunConfig) []sweepPoint {
	var pts []sweepPoint
	for _, omega := range cfg.omegas() {
		pts = append(pts, sweepPoint{
			X: fmt.Sprintf("%.1f", omega),
			N: cfg.n(), D: paperD, C: paperC, Eps: paperEps, Omega: omega, Rho: defaultRho,
		})
	}
	return pts
}

// domainPoints builds a domain-size sweep at the paper's other defaults.
func domainPoints(cfg RunConfig) []sweepPoint {
	var pts []sweepPoint
	for _, c := range cfg.domains() {
		pts = append(pts, sweepPoint{
			X: fmt.Sprintf("%d", c),
			N: cfg.n(), D: paperD, C: c, Eps: paperEps, Omega: paperOmega, Rho: defaultRho,
		})
	}
	return pts
}

// attrPoints builds an attribute-count sweep at the paper's other defaults,
// over the counts d ≥ minD; when the scale has none, the sweep is the
// single point d = minD.
func attrPoints(cfg RunConfig, minD int) []sweepPoint {
	var pts []sweepPoint
	for _, d := range cfg.attrCounts() {
		if d < minD {
			continue
		}
		pts = append(pts, sweepPoint{
			X: fmt.Sprintf("%d", d),
			N: cfg.n(), D: d, C: paperC, Eps: paperEps, Omega: paperOmega, Rho: defaultRho,
		})
	}
	if len(pts) == 0 {
		pts = append(pts, sweepPoint{X: fmt.Sprintf("%d", minD), N: cfg.n(), D: minD, C: paperC, Eps: paperEps, Omega: paperOmega, Rho: defaultRho})
	}
	return pts
}

// userPoints builds a population sweep, labelled lg(n), at the paper's
// other defaults.
func userPoints(cfg RunConfig) []sweepPoint {
	var pts []sweepPoint
	for _, n := range cfg.userCounts() {
		pts = append(pts, sweepPoint{
			X: fmt.Sprintf("%.1f", math.Log10(float64(n))),
			N: n, D: paperD, C: paperC, Eps: paperEps, Omega: paperOmega, Rho: defaultRho,
		})
	}
	return pts
}

func (c RunConfig) omegas() []float64 {
	switch c.scale() {
	case Smoke:
		return []float64{0.3, 0.7}
	case Paper:
		return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	default:
		return []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	}
}

func (c RunConfig) domains() []int {
	switch c.scale() {
	case Smoke:
		return []int{16, 64}
	case Paper:
		return []int{16, 32, 64, 128, 256, 512, 1024}
	default:
		return []int{16, 64, 256}
	}
}

func (c RunConfig) attrCounts() []int {
	switch c.scale() {
	case Smoke:
		return []int{4, 6}
	case Paper:
		return []int{3, 4, 5, 6, 7, 8, 9, 10}
	default:
		return []int{4, 6, 8}
	}
}

func (c RunConfig) userCounts() []int {
	switch c.scale() {
	case Smoke:
		return []int{10_000, 30_000}
	case Paper:
		return []int{100_000, 316_228, 1_000_000, 3_162_278, 10_000_000}
	default:
		return []int{20_000, 50_000, 100_000, 200_000}
	}
}

func init() {
	register(Experiment{
		ID:    "fig1",
		Paper: "Figure 1",
		Title: "MAE vs epsilon on all four datasets (lambda = 2, 4)",
		Run: func(cfg RunConfig) ([]*Result, error) {
			return maePanels(cfg, "fig1", "Figure 1", mainDatasets, []int{2, 4}, allMechNames,
				"epsilon", epsPoints(cfg, paperD, paperC, paperOmega))
		},
	})

	register(Experiment{
		ID:    "fig2",
		Paper: "Figure 2",
		Title: "MAE vs query volume omega (lambda = 2, 4)",
		Run: func(cfg RunConfig) ([]*Result, error) {
			return maePanels(cfg, "fig2", "Figure 2", mainDatasets, []int{2, 4}, allMechNames, "omega", omegaPoints(cfg))
		},
	})

	register(Experiment{
		ID:    "fig3",
		Paper: "Figure 3",
		Title: "MAE vs domain size c on synthetic datasets (lambda = 2, 4)",
		Run: func(cfg RunConfig) ([]*Result, error) {
			return maePanels(cfg, "fig3", "Figure 3", synthDatasets, []int{2, 4}, noHIONames, "c", domainPoints(cfg))
		},
	})

	register(Experiment{
		ID:    "fig4",
		Paper: "Figure 4",
		Title: "MAE vs number of attributes d (lambda = 2, 4)",
		Run: func(cfg RunConfig) ([]*Result, error) {
			return maePanels(cfg, "fig4", "Figure 4", mainDatasets, []int{2, 4}, noHIONames, "d", attrPoints(cfg, 0))
		},
	})

	register(Experiment{
		ID:    "fig5",
		Paper: "Figure 5",
		Title: "MAE vs query dimension lambda",
		Run:   runFig5,
	})

	register(Experiment{
		ID:    "fig6",
		Paper: "Figure 6",
		Title: "MAE vs population n on synthetic datasets (lambda = 2, 4)",
		Run: func(cfg RunConfig) ([]*Result, error) {
			return maePanels(cfg, "fig6", "Figure 6", synthDatasets, []int{2, 4}, allMechNames, "lg(n)", userPoints(cfg))
		},
	})

	register(Experiment{
		ID:    "fig19",
		Paper: "Figure 19",
		Title: "MAE vs epsilon on Loan and Acs (lambda = 2, 4)",
		Run: func(cfg RunConfig) ([]*Result, error) {
			return maePanels(cfg, "fig19", "Figure 19", newDatasets, []int{2, 4}, allMechNames,
				"epsilon", epsPoints(cfg, paperD, paperC, paperOmega))
		},
	})

	register(Experiment{
		ID:    "fig20",
		Paper: "Figure 20",
		Title: "MAE vs omega on Loan and Acs (lambda = 2, 4)",
		Run: func(cfg RunConfig) ([]*Result, error) {
			return maePanels(cfg, "fig20", "Figure 20", newDatasets, []int{2, 4}, allMechNames, "omega", omegaPoints(cfg))
		},
	})

	register(Experiment{
		ID:    "fig21",
		Paper: "Figure 21",
		Title: "MAE vs d on Loan and Acs (lambda = 2, 4)",
		Run: func(cfg RunConfig) ([]*Result, error) {
			return maePanels(cfg, "fig21", "Figure 21", newDatasets, []int{2, 4}, noHIONames, "d", attrPoints(cfg, 0))
		},
	})

	register(Experiment{
		ID:    "fig23",
		Paper: "Figure 23",
		Title: "MAE vs epsilon, lambda = 6",
		Run: func(cfg RunConfig) ([]*Result, error) {
			return maePanels(cfg, "fig23", "Figure 23", mainDatasets, []int{6}, allMechNames,
				"epsilon", epsPoints(cfg, paperD, paperC, paperOmega))
		},
	})

	register(Experiment{
		ID:    "fig24",
		Paper: "Figure 24",
		Title: "MAE vs omega, lambda = 6",
		Run: func(cfg RunConfig) ([]*Result, error) {
			return maePanels(cfg, "fig24", "Figure 24", mainDatasets, []int{6}, allMechNames, "omega", omegaPoints(cfg))
		},
	})

	register(Experiment{
		ID:    "fig25",
		Paper: "Figure 25",
		Title: "MAE vs domain size c, lambda = 6",
		Run: func(cfg RunConfig) ([]*Result, error) {
			return maePanels(cfg, "fig25", "Figure 25", synthDatasets, []int{6}, noHIONames, "c", domainPoints(cfg))
		},
	})

	register(Experiment{
		ID:    "fig26",
		Paper: "Figure 26",
		Title: "MAE vs d, lambda = 6",
		Run: func(cfg RunConfig) ([]*Result, error) {
			// lambda = 6 needs at least 6 attributes.
			return maePanels(cfg, "fig26", "Figure 26", mainDatasets, []int{6}, noHIONames, "d", attrPoints(cfg, 6))
		},
	})

	register(Experiment{
		ID:    "fig27",
		Paper: "Figure 27",
		Title: "MAE vs n on synthetic datasets, lambda = 6",
		Run: func(cfg RunConfig) ([]*Result, error) {
			return maePanels(cfg, "fig27", "Figure 27", synthDatasets, []int{6}, allMechNames, "lg(n)", userPoints(cfg))
		},
	})

	register(Experiment{
		ID:    "fig28",
		Paper: "Figure 28",
		Title: "MAE vs epsilon at covariances 0..1 (lambda = 2, 4, 6)",
		Run:   runFig28,
	})
}

// runFig5 sweeps the query dimension; it needs d = 10 so λ can reach 10
// (the paper's Figure 5 plots λ up to 10).
func runFig5(cfg RunConfig) ([]*Result, error) {
	d := 10
	lambdas := []int{2, 3, 4, 5, 6, 7, 8, 9, 10}
	if cfg.scale() == Smoke {
		lambdas = []int{2, 4, 6}
	}
	mechs, err := cfg.selectMechs(noHIONames)
	if err != nil {
		return nil, err
	}
	cache := make(dsCache)
	var results []*Result
	for _, dsName := range mainDatasets {
		r := &Result{ID: "fig5", Title: fmt.Sprintf("Figure 5: %s", dsName), XLabel: "lambda"}
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
			wl, err := makeWorkload(cfg, ds, lambda, paperOmega, fmt.Sprintf("fig5|%s|l%d", dsName, lambda))
			if err != nil {
				return nil, err
			}
			label := fmt.Sprintf("fig5|%s|l%d", dsName, lambda)
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

// runFig28 sweeps pairwise covariance on the synthetic generators.
func runFig28(cfg RunConfig) ([]*Result, error) {
	covs := []float64{0, 0.2, 0.6, 1.0}
	lambdas := []int{2, 4, 6}
	if cfg.scale() == Smoke {
		covs = []float64{0, 0.6}
		lambdas = []int{2}
	}
	var results []*Result
	for _, dsName := range synthDatasets {
		for _, cov := range covs {
			var pts []sweepPoint
			for _, eps := range cfg.epsilons() {
				pts = append(pts, sweepPoint{
					X: fmt.Sprintf("%.1f", eps),
					N: cfg.n(), D: paperD, C: paperC, Eps: eps, Omega: paperOmega, Rho: cov,
				})
			}
			rs, err := maePanels(cfg, "fig28", fmt.Sprintf("Figure 28 (cov=%.1f)", cov),
				[]string{dsName}, lambdas, allMechNames, "epsilon", pts)
			if err != nil {
				return nil, err
			}
			results = append(results, rs...)
		}
	}
	return results, nil
}

// getOpts builds GenOptions with the run's dataset seed convention.
func getOpts(cfg RunConfig, n, d, c int) dataset.GenOptions {
	return dataset.GenOptions{N: n, D: d, C: c, Seed: cfg.Seed + 1}
}
