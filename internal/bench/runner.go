package bench

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"sync"

	"privmdr/internal/baselines"
	"privmdr/internal/core"
	"privmdr/internal/dataset"
	"privmdr/internal/ldprand"
	"privmdr/internal/mathx"
	"privmdr/internal/mech"
	"privmdr/internal/query"
)

// allMechNames is the paper's plotting order.
var allMechNames = []string{"Uni", "MSW", "CALM", "HIO", "LHIO", "TDG", "HDG"}

// noHIONames is the order used by the figures that omit HIO for its
// off-the-chart errors.
var noHIONames = []string{"Uni", "MSW", "CALM", "LHIO", "TDG", "HDG"}

// newMech instantiates a mechanism by paper name.
func newMech(name string) (mech.Mechanism, error) {
	switch name {
	case "Uni":
		return baselines.NewUni(), nil
	case "MSW":
		return baselines.NewMSW(), nil
	case "CALM":
		return baselines.NewCALM(), nil
	case "HIO":
		return baselines.NewHIO(), nil
	case "LHIO":
		return baselines.NewLHIO(), nil
	case "TDG":
		return core.NewTDG(core.Options{}), nil
	case "HDG":
		return core.NewHDG(core.Options{}), nil
	case "ITDG":
		return core.NewTDG(core.Options{SkipPostProcess: true}), nil
	case "IHDG":
		return core.NewHDG(core.Options{SkipPostProcess: true}), nil
	default:
		return nil, fmt.Errorf("bench: unknown mechanism %q (known: %s, ITDG, IHDG)", name, strings.Join(allMechNames, ", "))
	}
}

// filterMechs intersects the experiment's default mechanism list with the
// user's -mechs restriction.
func (c RunConfig) filterMechs(defaults []string) []string {
	if len(c.Mechs) == 0 {
		return defaults
	}
	allowed := make(map[string]bool, len(c.Mechs))
	for _, m := range c.Mechs {
		allowed[m] = true
	}
	var out []string
	for _, m := range defaults {
		if allowed[m] {
			out = append(out, m)
		}
	}
	return out
}

// hashSeed derives a deterministic sub-seed from the run seed and a label.
func hashSeed(base uint64, label string) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, label)
	return ldprand.SplitMix64(base ^ h.Sum64())
}

// workload couples a query set with its exact answers.
type workload struct {
	key     string
	queries []query.Query
	truth   []float64
}

// namedMech pairs a display name with a mechanism (the name can carry
// parameters, e.g. "HDG(16,4)").
type namedMech struct {
	name string
	m    mech.Mechanism
}

// selectMechs builds the experiment's default mechanisms that pass the
// user's -mechs restriction, and fails when none does: an experiment left
// with no mechanism would print tables without a single series.
func (c RunConfig) selectMechs(defaults []string) ([]namedMech, error) {
	names := c.filterMechs(defaults)
	if len(names) == 0 {
		return nil, fmt.Errorf("bench: mechanism filter %s selects none of this experiment's mechanisms (%s)",
			strings.Join(c.Mechs, ","), strings.Join(defaults, ", "))
	}
	return standardMechs(names)
}

// standardMechs resolves paper names into namedMechs.
func standardMechs(names []string) ([]namedMech, error) {
	out := make([]namedMech, 0, len(names))
	for _, n := range names {
		m, err := newMech(n)
		if err != nil {
			return nil, err
		}
		out = append(out, namedMech{name: n, m: m})
	}
	return out, nil
}

// evalPoint fits every mechanism cfg.reps() times on ds at eps and
// evaluates every workload, returning series → per-workload Stats (indexed
// like wls) plus notes about skipped mechanisms.
//
// The (mechanism × repetition) jobs run on a worker pool: every job derives
// its own seed from (pointLabel, mechanism, rep), so the results are
// bit-identical to a sequential run regardless of scheduling.
func evalPoint(cfg RunConfig, ds *dataset.Dataset, eps float64, wls []workload, mechs []namedMech, pointLabel string) (map[string][]Stat, []string) {
	reps := cfg.reps()
	type job struct{ mi, rep int }
	type outcome struct {
		maes []float64 // per workload; nil on failure
		err  error
	}
	outcomes := make([][]outcome, len(mechs))
	for mi := range outcomes {
		outcomes[mi] = make([]outcome, reps)
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers > len(mechs)*reps {
		workers = len(mechs) * reps
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				nm := mechs[j.mi]
				seed := hashSeed(cfg.Seed, fmt.Sprintf("%s|%s|rep%d", pointLabel, nm.name, j.rep))
				est, err := nm.m.Fit(ds, eps, ldprand.New(seed))
				if err != nil {
					outcomes[j.mi][j.rep] = outcome{err: err}
					continue
				}
				maes := make([]float64, len(wls))
				for wi, wl := range wls {
					answers := make([]float64, len(wl.queries))
					for qi, q := range wl.queries {
						a, err := est.Answer(q)
						if err != nil {
							outcomes[j.mi][j.rep] = outcome{err: err}
							maes = nil
							break
						}
						answers[qi] = a
					}
					if maes == nil {
						break
					}
					maes[wi] = query.MAE(answers, wl.truth)
				}
				if maes != nil {
					outcomes[j.mi][j.rep] = outcome{maes: maes}
				}
			}
		}()
	}
	for mi := range mechs {
		for rep := 0; rep < reps; rep++ {
			jobs <- job{mi, rep}
		}
	}
	close(jobs)
	wg.Wait()

	stats := make(map[string][]Stat, len(mechs))
	var notes []string
	for mi, nm := range mechs {
		col := make([]Stat, len(wls))
		perWL := make([][]float64, len(wls))
		failed := false
		for rep := 0; rep < reps; rep++ {
			o := outcomes[mi][rep]
			if o.err != nil {
				if !failed {
					notes = append(notes, fmt.Sprintf("%s skipped at %s: %v", nm.name, pointLabel, o.err))
				}
				failed = true
				continue
			}
			for wi := range wls {
				perWL[wi] = append(perWL[wi], o.maes[wi])
			}
		}
		if !failed {
			for wi := range wls {
				col[wi] = meanStd(perWL[wi])
			}
		}
		stats[nm.name] = col
	}
	return stats, notes
}

// dsCache avoids regenerating identical datasets across sweep points.
type dsCache map[string]*dataset.Dataset

func (c dsCache) get(name string, opt dataset.GenOptions, rho float64) (*dataset.Dataset, error) {
	key := fmt.Sprintf("%s|%d|%d|%d|%d|%g", name, opt.N, opt.D, opt.C, opt.Seed, rho)
	if ds, ok := c[key]; ok {
		return ds, nil
	}
	opt.Rho = rho
	var ds *dataset.Dataset
	var err error
	switch {
	case name == "normal" && rho >= 0:
		ds, err = dataset.NormalCov(opt, rho)
	case name == "laplace" && rho >= 0:
		ds, err = dataset.LaplaceCov(opt, rho)
	default:
		opt.Rho = 0
		ds, err = dataset.ByName(name, opt)
	}
	if err != nil {
		return nil, err
	}
	c[key] = ds
	return ds, nil
}

// defaultRho marks "use the generator's own correlation" in cache lookups.
const defaultRho = -1

// truth2D computes exact answers for an all-2-D workload through per-pair
// joint histograms and prefix sums — O(n·pairs + |Q|) instead of O(n·|Q|),
// which makes the full-enumeration workloads of Appendix A.3 tractable.
func truth2D(ds *dataset.Dataset, qs []query.Query) ([]float64, bool) {
	type pairKey struct{ a, b int }
	prefixes := make(map[pairKey]*mathx.Prefix2D)
	out := make([]float64, len(qs))
	for i, q := range qs {
		if len(q) != 2 {
			return nil, false
		}
		s := q.Sorted()
		key := pairKey{s[0].Attr, s[1].Attr}
		p, ok := prefixes[key]
		if !ok {
			var err error
			p, err = mathx.NewPrefix2D(ds.Histogram2D(key.a, key.b), ds.C, ds.C)
			if err != nil {
				return nil, false
			}
			prefixes[key] = p
		}
		out[i] = p.RangeSum(s[0].Lo, s[0].Hi, s[1].Lo, s[1].Hi)
	}
	return out, true
}

// makeWorkload draws a random λ-D workload with exact answers.
func makeWorkload(cfg RunConfig, ds *dataset.Dataset, lambda int, omega float64, label string) (workload, error) {
	rng := ldprand.New(hashSeed(cfg.Seed, "workload|"+label))
	qs, err := query.RandomWorkload(rng, cfg.queries(), lambda, ds.D(), ds.C, omega)
	if err != nil {
		return workload{}, err
	}
	truth, ok := truth2D(ds, qs)
	if !ok {
		truth = query.TrueAnswers(ds, qs)
	}
	return workload{key: fmt.Sprintf("lambda=%d", lambda), queries: qs, truth: truth}, nil
}

// sweepPoint is one x-axis position of an MAE sweep.
type sweepPoint struct {
	X     string
	N     int
	D     int
	C     int
	Eps   float64
	Omega float64
	Rho   float64 // defaultRho → generator default
}

// maePanels runs the standard sweep shape shared by most figures: for every
// dataset, one Result panel per λ, sweeping the given points on the x-axis.
func maePanels(cfg RunConfig, id, paperRef string, datasets []string, lambdas []int, mechNames []string, xlabel string, points []sweepPoint) ([]*Result, error) {
	mechs, err := cfg.selectMechs(mechNames)
	if err != nil {
		return nil, err
	}
	cache := make(dsCache)
	var results []*Result
	for _, dsName := range datasets {
		panels := make(map[int]*Result, len(lambdas))
		for _, lambda := range lambdas {
			r := &Result{
				ID:     id,
				Title:  fmt.Sprintf("%s: %s, lambda=%d", paperRef, dsName, lambda),
				XLabel: xlabel,
			}
			for _, p := range points {
				r.Xs = append(r.Xs, p.X)
			}
			for _, nm := range mechs {
				r.Series = append(r.Series, nm.name)
			}
			panels[lambda] = r
			results = append(results, r)
		}
		for xi, p := range points {
			ds, err := cache.get(dsName, dataset.GenOptions{N: p.N, D: p.D, C: p.C, Seed: cfg.Seed + 1}, p.Rho)
			if err != nil {
				return nil, err
			}
			var wls []workload
			for _, lambda := range lambdas {
				if lambda > p.D {
					wls = append(wls, workload{key: fmt.Sprintf("lambda=%d", lambda)})
					continue
				}
				wl, err := makeWorkload(cfg, ds, lambda, p.Omega, fmt.Sprintf("%s|%s|%s|l%d", id, dsName, p.X, lambda))
				if err != nil {
					return nil, err
				}
				wls = append(wls, wl)
			}
			label := fmt.Sprintf("%s|%s|%s", id, dsName, p.X)
			stats, notes := evalPoint(cfg, ds, p.Eps, wls, mechs, label)
			for li, lambda := range lambdas {
				r := panels[lambda]
				if len(wls[li].queries) == 0 {
					continue
				}
				for _, nm := range mechs {
					r.Set(nm.name, xi, stats[nm.name][li])
				}
				for _, n := range notes {
					r.AddNote("%s", n)
				}
				notes = nil // attach notes to the first panel only
			}
		}
	}
	return results, nil
}
