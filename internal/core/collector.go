package core

import (
	"fmt"
	"math/rand/v2"

	"privmdr/internal/consistency"
	"privmdr/internal/fo"
	"privmdr/internal/grid"
	"privmdr/internal/mathx"
	"privmdr/internal/mech"
)

// This file implements the grid protocol TDG, HDG and CALM share: Fit
// simulates both sides in one call, but a real rollout separates them —
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
// user-derived message is the ε-LDP Report from ClientReport. HDG is TDG
// plus one finer 1-D grid per attribute, so the mechanisms differ only in
// their granularities, their oracle and whether the 1-D groups exist.

// gridProtocol is the deployment-shaped face of the grid mechanisms: m₁
// fine-grained 1-D grids, one per attribute, followed by one coarse g₂×g₂
// grid per attribute pair, one user group each. HDG and IHDG have m₁ = d;
// TDG, ITDG and CALM have no 1-D grids.
type gridProtocol struct {
	mechName string
	p        mech.Params
	opts     Options
	m1       int // 1-D groups: d, or 0 without 1-D grids
	g1, g2   int
	pairs    [][2]int
	as       *mech.Assigner
	o1       *fo.OLH   // shared 1-D oracle, domain g1; nil when m1 = 0
	o2       fo.Oracle // shared 2-D oracle, domain g2²
}

// validateGridParams checks the params TDG and HDG accept: at least two
// attributes and a power-of-two domain.
func validateGridParams(p mech.Params) error {
	if err := p.Validate(2); err != nil {
		return err
	}
	if !mathx.IsPow2(p.C) {
		return fmt.Errorf("core: domain size %d must be a power of two", p.C)
	}
	return nil
}

// newGridProtocol builds the grid protocol over validated params. With
// n1 > 0, the first n1 positions of the assignment permutation feed d 1-D
// groups, cut evenly, each reporting its g₁-cell through OLH; otherwise
// there are no 1-D groups. The remaining positions are cut evenly over the
// pair groups, each reporting its g₂×g₂ cell through o2, whose domain must
// be g₂² (nil selects OLH). At n1 = 0 the cut is mech.EvenBounds(n, pairs).
func newGridProtocol(name string, p mech.Params, opts Options, n1, g1, g2 int, o2 fo.Oracle) (*gridProtocol, error) {
	if g2 < 2 || p.C%g2 != 0 {
		return nil, fmt.Errorf("core: granularity g2=%d must be at least 2 and divide domain %d", g2, p.C)
	}
	pr := &gridProtocol{mechName: name, p: p, opts: opts.withDefaults(), g1: g1, g2: g2, pairs: mech.AllPairs(p.D), o2: o2}
	var err error
	if n1 > 0 {
		if p.C%g1 != 0 || g1%g2 != 0 {
			return nil, fmt.Errorf("core: granularities (g1=%d, g2=%d) must divide domain %d and each other", g1, g2, p.C)
		}
		pr.m1 = p.D
		if pr.o1, err = fo.NewOLH(p.Eps, g1); err != nil {
			return nil, err
		}
	}
	if pr.o2 == nil {
		if pr.o2, err = fo.NewOLH(p.Eps, g2*g2); err != nil {
			return nil, err
		}
	}
	m2 := len(pr.pairs)
	bounds := make([]int, 1, pr.m1+m2+1)
	for g := 1; g <= pr.m1; g++ {
		bounds = append(bounds, g*n1/pr.m1)
	}
	for g := 1; g <= m2; g++ {
		bounds = append(bounds, n1+g*(p.N-n1)/m2)
	}
	if pr.as, err = mech.NewAssigner(p.Seed, bounds); err != nil {
		return nil, err
	}
	return pr, nil
}

// Name implements mech.Protocol.
func (pr *gridProtocol) Name() string { return pr.mechName }

// Params implements mech.Protocol.
func (pr *gridProtocol) Params() mech.Params { return pr.p }

// NumGroups implements mech.Protocol.
func (pr *gridProtocol) NumGroups() int { return pr.as.NumGroups() }

// Granularities returns the resolved grid granularities (g₁, g₂).
func (pr *gridProtocol) Granularities() (g1, g2 int) { return pr.g1, pr.g2 }

// Assignment implements mech.Protocol.
func (pr *gridProtocol) Assignment(user int) (mech.Assignment, error) {
	g, err := pr.as.GroupOf(user)
	if err != nil {
		return mech.Assignment{}, err
	}
	if g < pr.m1 {
		return mech.Assignment{Group: g, Attr1: g, Attr2: -1, Domain: pr.g1}, nil
	}
	pair := pr.pairs[g-pr.m1]
	return mech.Assignment{Group: g, Attr1: pair[0], Attr2: pair[1], Domain: pr.g2 * pr.g2}, nil
}

// ClientReport implements mech.Protocol: encode the record's value (or
// value pair) as a grid cell and perturb it through the group's oracle.
// The assignment's Group is authoritative.
func (pr *gridProtocol) ClientReport(a mech.Assignment, record []int, rng *rand.Rand) (mech.Report, error) {
	if a.Group < 0 || a.Group >= pr.NumGroups() {
		return mech.Report{}, fmt.Errorf("core: assignment group %d outside [0,%d)", a.Group, pr.NumGroups())
	}
	if err := mech.CheckRecord(pr.p, record); err != nil {
		return mech.Report{}, err
	}
	if a.Group < pr.m1 {
		cell := record[a.Group] / (pr.p.C / pr.g1)
		return mech.FromFO(a.Group, pr.o1.Perturb(cell, rng)), nil
	}
	pair := pr.pairs[a.Group-pr.m1]
	w := pr.p.C / pr.g2
	cell := (record[pair[0]]/w)*pr.g2 + record[pair[1]]/w
	return mech.FromFO(a.Group, pr.o2.Perturb(cell, rng)), nil
}

// NewCollector implements mech.Protocol. The collector streams: each report
// folds into its group's oracle statistic on arrival (see mech.CountIngest),
// so memory stays O(groups × granularity) and Finalize reads count vectors
// instead of rescanning O(n) reports.
func (pr *gridProtocol) NewCollector() (mech.Collector, error) {
	specs := make([]mech.GroupSpec, pr.NumGroups())
	for g := range specs {
		specs[g] = mech.OracleSpec(pr.oracle(g))
	}
	check := func(r mech.Report) error { return pr.oracle(r.Group).CheckReport(r.FO()) }
	return mech.NewCountCollector(pr, check, specs, pr.estimate)
}

// oracle returns group g's oracle: o1 for the 1-D groups, o2 for the pairs.
func (pr *gridProtocol) oracle(g int) fo.Oracle {
	if g < pr.m1 {
		return pr.o1
	}
	return pr.o2
}

// estimate turns one snapshot of per-group statistics into the query-time
// estimator: estimate every grid from its group's folded statistic,
// post-process, and wrap — in tdgEstimator's uniformity rule without 1-D
// grids, in hdgEstimator's Algorithm 1 with them. The whole pipeline is a
// pure function of the counts, so an Estimate over a report prefix matches
// a one-shot Finalize over the same prefix bit for bit.
func (pr *gridProtocol) estimate(byGroup []mech.GroupCounts) (mech.Estimator, error) {
	d, c := pr.p.D, pr.p.C
	var grids1 []*grid.Grid1D
	for a := 0; a < pr.m1; a++ {
		g, err := grid.NewGrid1D(c, pr.g1)
		if err != nil {
			return nil, err
		}
		copy(g.Freq, pr.o1.EstimateCounts(byGroup[a].Counts, int(byGroup[a].N)))
		grids1 = append(grids1, g)
	}
	grids2 := make([]*grid.Grid2D, len(pr.pairs))
	for pi := range pr.pairs {
		g, err := grid.NewGrid2D(c, pr.g2)
		if err != nil {
			return nil, err
		}
		gc := byGroup[pr.m1+pi]
		copy(g.Freq, pr.o2.EstimateCounts(gc.Counts, int(gc.N)))
		grids2[pi] = g
	}
	if !pr.opts.SkipPostProcess {
		if err := postProcessHybrid(d, grids1, grids2, pr.opts.Rounds); err != nil {
			return nil, err
		}
	}
	wu := pr.opts.WU
	if wu.Tol <= 0 {
		wu.Tol = 1 / float64(pr.p.N)
	}
	if pr.m1 == 0 {
		for _, g := range grids2 {
			g.Seal()
		}
		return &tdgEstimator{c: c, d: d, grids: grids2, wu: wu, traces: pr.opts.CollectTraces}, nil
	}
	return newHDGEstimator(c, d, pr.g1, pr.g2, grids1, grids2, wu, pr.opts.CollectTraces), nil
}

// postProcessHybrid runs Phase 2 over the grid protocol's grids: each
// attribute's views are its 1-D grid (|S| = g₁/g₂ cells per coarse bucket),
// when grids1 is non-nil, and its d−1 2-D footprints (|S| = g₂ each).
func postProcessHybrid(d int, grids1 []*grid.Grid1D, grids2 []*grid.Grid2D, rounds int) error {
	pairs := mech.AllPairs(d)
	pipeline := &consistency.Pipeline{
		Attrs: d,
		NormSubAll: func() {
			for _, g := range grids1 {
				consistency.NormSub(g.Freq, 1)
			}
			for _, g := range grids2 {
				consistency.NormSub(g.Freq, 1)
			}
		},
		AttrViews: func(a int) []consistency.View {
			var views []consistency.View
			if grids1 != nil {
				views = append(views, consistency.Grid1DView(grids1[a], grids2[0].G))
			}
			for pi, pair := range pairs {
				g := grids2[pi]
				switch a {
				case pair[0]:
					views = append(views, consistency.GridRowView(g))
				case pair[1]:
					views = append(views, consistency.GridColView(g))
				}
			}
			return views
		},
	}
	return pipeline.Run(rounds)
}
