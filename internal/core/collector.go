package core

import (
	"fmt"
	"math/rand/v2"

	"privmdr/internal/fo"
	"privmdr/internal/grid"
	"privmdr/internal/mathx"
	"privmdr/internal/mech"
)

// This file implements HDG's side of the protocol API: Fit simulates both
// sides in one call, but a real rollout separates them —
//
//	aggregator                          client i
//	----------                          --------
//	pr, _ := NewHDG(opts).Protocol(p)    pr, _ := NewHDG(opts).Protocol(p)
//	coll, _ := pr.NewCollector()         a, _ := pr.Assignment(i)
//	                              ◀────── rep, _ := pr.ClientReport(a, record, rng)
//	coll.Submit(rep)
//	est, _ := coll.Finalize()
//
// Both sides build the identical protocol from the public Params; the only
// user-derived message is the ε-LDP Report from ClientReport.

// hdgProtocol is the deployment-shaped face of HDG: d fine-grained 1-D
// grids plus (d choose 2) coarse 2-D grids, one user group each.
type hdgProtocol struct {
	mechName string
	p        mech.Params
	opts     Options
	g1, g2   int
	n1       int // users assigned to 1-D grids
	pairs    [][2]int
	as       *mech.Assigner
	o1, o2   *fo.OLH // shared oracles: domain g1 (1-D) and g2² (2-D)
}

// Protocol implements mech.Mechanism for HDG.
func (h *HDG) Protocol(p mech.Params) (mech.Protocol, error) {
	return newHDGProtocol(h.Name(), p, h.opts)
}

// newHDGProtocol resolves the public parameters exactly the way Fit always
// did: guideline granularities from the per-group populations of the
// σ-split, with option overrides layered on top.
func newHDGProtocol(name string, p mech.Params, opts Options) (*hdgProtocol, error) {
	if err := p.Validate(2); err != nil {
		return nil, err
	}
	if !mathx.IsPow2(p.C) {
		return nil, fmt.Errorf("core: domain size %d must be a power of two", p.C)
	}
	opts = opts.withDefaults()
	n, d, c := p.N, p.D, p.C
	m1, m2 := HDGGroups(d)

	sigma := opts.Sigma
	if sigma <= 0 {
		sigma = float64(m1) / float64(m1+m2)
	}
	if sigma >= 1 {
		return nil, fmt.Errorf("core: sigma %g must be in (0,1)", sigma)
	}
	n1 := int(sigma * float64(n))
	if n1 < m1 {
		n1 = m1
	}
	if n-n1 < m2 {
		return nil, fmt.Errorf("core: %d users cannot populate %d 2-D groups with sigma=%g", n, m2, sigma)
	}

	g1, g2 := opts.G1, opts.G2
	if g1 == 0 || g2 == 0 {
		gg1, _ := Granularities(p.Eps, float64(n1)/float64(m1), c, opts.Alpha1, opts.Alpha2)
		_, gg2 := Granularities(p.Eps, float64(n-n1)/float64(m2), c, opts.Alpha1, opts.Alpha2)
		if g1 == 0 {
			g1 = gg1
		}
		if g2 == 0 {
			g2 = gg2
		}
	}
	if g1 < g2 {
		g1 = g2
	}
	if c%g1 != 0 || c%g2 != 0 || g1%g2 != 0 {
		return nil, fmt.Errorf("core: granularities (g1=%d, g2=%d) must divide domain %d and each other", g1, g2, c)
	}

	// Permutation positions [0, n1) feed the m1 1-D grids, the rest the m2
	// 2-D grids, each side cut evenly.
	bounds := make([]int, 0, m1+m2+1)
	for g := 0; g <= m1; g++ {
		bounds = append(bounds, g*n1/m1)
	}
	for g := 1; g <= m2; g++ {
		bounds = append(bounds, n1+g*(n-n1)/m2)
	}
	as, err := mech.NewAssigner(p.Seed, bounds)
	if err != nil {
		return nil, err
	}
	o1, err := fo.NewOLH(p.Eps, g1)
	if err != nil {
		return nil, err
	}
	o2, err := fo.NewOLH(p.Eps, g2*g2)
	if err != nil {
		return nil, err
	}
	return &hdgProtocol{
		mechName: name,
		p:        p, opts: opts,
		g1: g1, g2: g2, n1: n1,
		pairs: mech.AllPairs(d),
		as:    as, o1: o1, o2: o2,
	}, nil
}

// Name implements mech.Protocol.
func (pr *hdgProtocol) Name() string { return pr.mechName }

// Params implements mech.Protocol.
func (pr *hdgProtocol) Params() mech.Params { return pr.p }

// NumGroups implements mech.Protocol.
func (pr *hdgProtocol) NumGroups() int { return pr.as.NumGroups() }

// Granularities returns the resolved grid granularities (g₁, g₂).
func (pr *hdgProtocol) Granularities() (g1, g2 int) { return pr.g1, pr.g2 }

// Assignment implements mech.Protocol.
func (pr *hdgProtocol) Assignment(user int) (mech.Assignment, error) {
	g, err := pr.as.GroupOf(user)
	if err != nil {
		return mech.Assignment{}, err
	}
	return pr.groupAssignment(g), nil
}

func (pr *hdgProtocol) groupAssignment(g int) mech.Assignment {
	if g < pr.p.D {
		return mech.Assignment{Group: g, Attr1: g, Attr2: -1, Domain: pr.g1}
	}
	pair := pr.pairs[g-pr.p.D]
	return mech.Assignment{Group: g, Attr1: pair[0], Attr2: pair[1], Domain: pr.g2 * pr.g2}
}

// ClientReport implements mech.Protocol: encode the record's value (or
// value pair) as a grid cell and perturb it through OLH.
func (pr *hdgProtocol) ClientReport(a mech.Assignment, record []int, rng *rand.Rand) (mech.Report, error) {
	if a.Group < 0 || a.Group >= pr.NumGroups() {
		return mech.Report{}, fmt.Errorf("core: assignment group %d outside [0,%d)", a.Group, pr.NumGroups())
	}
	if err := mech.CheckRecord(pr.p, record); err != nil {
		return mech.Report{}, err
	}
	a = pr.groupAssignment(a.Group) // Group is authoritative
	var cell int
	oracle := pr.o1
	if a.Attr2 < 0 {
		cell = record[a.Attr1] / (pr.p.C / pr.g1)
	} else {
		w := pr.p.C / pr.g2
		cell = (record[a.Attr1]/w)*pr.g2 + record[a.Attr2]/w
		oracle = pr.o2
	}
	return mech.FromFO(a.Group, oracle.Perturb(cell, rng)), nil
}

// NewCollector implements mech.Protocol. The collector streams: each report
// folds into its group's OLH support vector on arrival (see mech.CountIngest),
// so memory stays O(groups × granularity) and Finalize reads count vectors
// instead of rescanning O(n) reports.
func (pr *hdgProtocol) NewCollector() (mech.Collector, error) {
	check := func(r mech.Report) error {
		if r.Group < pr.p.D {
			return pr.o1.CheckReport(r.FO())
		}
		return pr.o2.CheckReport(r.FO())
	}
	f1, err := fo.NewFolder(pr.o1)
	if err != nil {
		return nil, err
	}
	f2, err := fo.NewFolder(pr.o2)
	if err != nil {
		return nil, err
	}
	spec1, spec2 := mech.FolderSpec(f1), mech.FolderSpec(f2)
	specs := make([]mech.GroupSpec, pr.NumGroups())
	for g := range specs {
		if g < pr.p.D {
			specs[g] = spec1
		} else {
			specs[g] = spec2
		}
	}
	return mech.NewCountCollector(pr, check, specs, func(byGroup []mech.GroupCounts) (mech.Estimator, error) {
		return pr.estimate(f1, f2, byGroup)
	})
}

// estimate turns one snapshot of per-group statistics into the query-time
// estimator: estimate every grid from its group's folded statistic (f1 for
// the 1-D groups, f2 for the 2-D ones), post-process, and wrap. The
// estimates are bit-identical to the former report-multiset path
// (EstimateAll over the group's reports) because the folded counts are the
// exact integers that scan would tally — and because the whole pipeline is
// a pure function of the counts, an Estimate over a report prefix matches a
// one-shot Finalize over the same prefix bit for bit.
func (pr *hdgProtocol) estimate(f1, f2 *fo.Folder, byGroup []mech.GroupCounts) (mech.Estimator, error) {
	d, cc := pr.p.D, pr.p.C
	grids1 := make([]*grid.Grid1D, d)
	for a := 0; a < d; a++ {
		g, err := grid.NewGrid1D(cc, pr.g1)
		if err != nil {
			return nil, err
		}
		copy(g.Freq, f1.Estimate(byGroup[a].Counts, int(byGroup[a].N)))
		grids1[a] = g
	}
	grids2 := make([]*grid.Grid2D, len(pr.pairs))
	for pi := range pr.pairs {
		g, err := grid.NewGrid2D(cc, pr.g2)
		if err != nil {
			return nil, err
		}
		copy(g.Freq, f2.Estimate(byGroup[d+pi].Counts, int(byGroup[d+pi].N)))
		grids2[pi] = g
	}
	if !pr.opts.SkipPostProcess {
		if err := postProcessHybrid(d, grids1, grids2, pr.opts.Rounds); err != nil {
			return nil, err
		}
	}
	wu := pr.opts.WU
	if wu.Tol <= 0 {
		wu.Tol = 1 / float64(max(pr.p.N, 1))
	}
	return newHDGEstimator(cc, d, pr.g1, pr.g2, grids1, grids2, wu, pr.opts.CollectTraces), nil
}
