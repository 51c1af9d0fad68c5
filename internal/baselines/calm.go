package baselines

import (
	"fmt"
	"math/rand/v2"

	"privmdr/internal/consistency"
	"privmdr/internal/dataset"
	"privmdr/internal/fo"
	"privmdr/internal/grid"
	"privmdr/internal/mathx"
	"privmdr/internal/mech"
	"privmdr/internal/mwem"
	"privmdr/internal/query"
)

// CALM adapts the marginal-release mechanism of Zhang et al. (CCS 2018) to
// range queries (Section 3.2): users are divided into (d choose 2) groups,
// each reporting its pair's full-resolution c×c joint cell through the
// adaptive frequency oracle; marginals are made non-negative and mutually
// consistent; a 2-D range query sums the noisy marginal cells it covers, and
// a λ-D query is estimated from its 2-D answers (the weighted-update stand-in
// for PriView's maximum-entropy step — see DESIGN.md).
//
// CALM overcomes the correlation and dimensionality challenges but not the
// large-domain one: summing Θ((ωc)²) noisy cells makes its error grow with c,
// which is the effect Figure 3 isolates.
type CALM struct {
	// Rounds of the post-processing interleave (0 → 3, as for the grids).
	Rounds int
	// WU bounds Algorithm 2 when λ > 2 (Tol 0 → 1/n at Fit).
	WU mwem.Options
}

// NewCALM returns a CALM mechanism with default post-processing.
func NewCALM() *CALM { return &CALM{} }

// Name implements mech.Mechanism.
func (*CALM) Name() string { return "CALM" }

type calmEstimator struct {
	c, d   int
	prefix []*mathx.Prefix2D // per pair, over the post-processed marginal
	wu     mwem.Options
}

// Fit implements mech.Mechanism as a thin wrapper over the protocol path.
func (m *CALM) Fit(ds *dataset.Dataset, eps float64, rng *rand.Rand) (mech.Estimator, error) {
	return mech.FitViaProtocol(m, ds, eps, rng)
}

// calmProtocol is CALM's deployment face: one group per attribute pair,
// each reporting its full-resolution c×c joint cell through the adaptive
// frequency oracle.
type calmProtocol struct {
	p      mech.Params
	opts   CALM
	pairs  [][2]int
	as     *mech.Assigner
	oracle fo.Oracle // shared: every pair uses domain c²
}

// Protocol implements mech.Mechanism.
func (m *CALM) Protocol(p mech.Params) (mech.Protocol, error) {
	if err := p.Validate(2); err != nil {
		return nil, err
	}
	pairs := mech.AllPairs(p.D)
	as, err := mech.NewAssigner(p.Seed, mech.EvenBounds(p.N, len(pairs)))
	if err != nil {
		return nil, err
	}
	oracle, err := fo.NewAuto(p.Eps, p.C*p.C)
	if err != nil {
		return nil, err
	}
	return &calmProtocol{p: p, opts: *m, pairs: pairs, as: as, oracle: oracle}, nil
}

// Name implements mech.Protocol.
func (*calmProtocol) Name() string { return "CALM" }

// Params implements mech.Protocol.
func (pr *calmProtocol) Params() mech.Params { return pr.p }

// NumGroups implements mech.Protocol.
func (pr *calmProtocol) NumGroups() int { return len(pr.pairs) }

// Assignment implements mech.Protocol.
func (pr *calmProtocol) Assignment(user int) (mech.Assignment, error) {
	g, err := pr.as.GroupOf(user)
	if err != nil {
		return mech.Assignment{}, err
	}
	pair := pr.pairs[g]
	return mech.Assignment{Group: g, Attr1: pair[0], Attr2: pair[1], Domain: pr.p.C * pr.p.C}, nil
}

// ClientReport implements mech.Protocol: the report encodes the user's
// full-resolution joint cell for the assigned pair.
func (pr *calmProtocol) ClientReport(a mech.Assignment, record []int, rng *rand.Rand) (mech.Report, error) {
	if a.Group < 0 || a.Group >= len(pr.pairs) {
		return mech.Report{}, fmt.Errorf("baselines: assignment group %d outside [0,%d)", a.Group, len(pr.pairs))
	}
	if err := mech.CheckRecord(pr.p, record); err != nil {
		return mech.Report{}, err
	}
	pair := pr.pairs[a.Group]
	cell := record[pair[0]]*pr.p.C + record[pair[1]]
	return mech.FromFO(a.Group, pr.oracle.Perturb(cell, rng)), nil
}

// NewCollector implements mech.Protocol. The collector streams through the
// adaptive oracle's folder — GRR bucket counts, OLH support tallies, or
// Hadamard signed row counts, whichever NewAuto picked for the c² domain.
func (pr *calmProtocol) NewCollector() (mech.Collector, error) {
	folder, err := fo.NewFolder(pr.oracle)
	if err != nil {
		return nil, err
	}
	specs := make([]mech.GroupSpec, pr.NumGroups())
	spec := mech.FolderSpec(folder)
	for g := range specs {
		specs[g] = spec
	}
	return mech.NewCountCollector(pr, mech.OracleCheck(pr.oracle), specs, func(byGroup []mech.GroupCounts) (mech.Estimator, error) {
		return pr.estimate(folder, byGroup)
	})
}

// estimate turns one snapshot of per-group statistics into the estimator.
func (pr *calmProtocol) estimate(folder *fo.Folder, byGroup []mech.GroupCounts) (mech.Estimator, error) {
	d, n, cc := pr.p.D, pr.p.N, pr.p.C
	pairs := pr.pairs
	// Full-resolution marginals are grids with granularity c.
	marginals := make([]*grid.Grid2D, len(pairs))
	for pi := range pairs {
		g, err := grid.NewGrid2D(cc, cc)
		if err != nil {
			return nil, err
		}
		copy(g.Freq, folder.Estimate(byGroup[pi].Counts, int(byGroup[pi].N)))
		marginals[pi] = g
	}

	rounds := pr.opts.Rounds
	if rounds <= 0 {
		rounds = 3
	}
	pipeline := &consistency.Pipeline{
		Attrs: d,
		NormSubAll: func() {
			for _, g := range marginals {
				consistency.NormSub(g.Freq, 1)
			}
		},
		AttrViews: func(a int) []consistency.View {
			var views []consistency.View
			for pi, pair := range pairs {
				switch a {
				case pair[0]:
					views = append(views, consistency.GridRowView(marginals[pi]))
				case pair[1]:
					views = append(views, consistency.GridColView(marginals[pi]))
				}
			}
			return views
		},
	}
	if err := pipeline.Run(rounds); err != nil {
		return nil, err
	}

	prefix := make([]*mathx.Prefix2D, len(pairs))
	for pi, g := range marginals {
		p, err := mathx.NewPrefix2D(g.Freq, cc, cc)
		if err != nil {
			return nil, err
		}
		prefix[pi] = p
	}
	wu := pr.opts.WU
	if wu.Tol <= 0 {
		wu.Tol = 1 / float64(n)
	}
	return &calmEstimator{c: cc, d: d, prefix: prefix, wu: wu}, nil
}

func (e *calmEstimator) pair2D(a, b int, pa, pb query.Pred) (float64, error) {
	pi, err := mech.PairIndex(e.d, a, b)
	if err != nil {
		return 0, err
	}
	return e.prefix[pi].RangeSum(pa.Lo, pa.Hi, pb.Lo, pb.Hi), nil
}

// Answer implements mech.Estimator.
func (e *calmEstimator) Answer(q query.Query) (float64, error) {
	if err := q.Validate(e.d, e.c); err != nil {
		return 0, err
	}
	qs := q.Sorted()
	if len(qs) == 1 {
		a := qs[0].Attr
		partner := (a + 1) % e.d
		full := query.Pred{Attr: partner, Lo: 0, Hi: e.c - 1}
		if partner < a {
			return e.pair2D(partner, a, full, qs[0])
		}
		return e.pair2D(a, partner, qs[0], full)
	}
	f, _, err := mwem.AnswerRange(qs, e.pair2D, e.wu)
	return f, err
}

// AnswerBatch implements mech.BatchEstimator (the marginal prefix sums are
// frozen at Finalize, so concurrent Answer calls are pure reads).
func (e *calmEstimator) AnswerBatch(qs []query.Query) ([]float64, error) {
	return mech.AnswerQueries(e, qs)
}
