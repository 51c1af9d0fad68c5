package core

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"privmdr/internal/dataset"
	"privmdr/internal/fo"
	"privmdr/internal/grid"
	"privmdr/internal/mathx"
	"privmdr/internal/mech"
	"privmdr/internal/mwem"
	"privmdr/internal/query"
)

// Options configure TDG and HDG. The zero value means "paper defaults":
// guideline granularities with α₁ = 0.7 and α₂ = 0.03, three post-processing
// rounds, weighted-update tolerance 1/n with at most 100 sweeps.
type Options struct {
	// Alpha1/Alpha2 override the guideline constants (0 → defaults).
	Alpha1, Alpha2 float64
	// G1/G2 override the granularities entirely (0 → use the guideline).
	// G1 is ignored by TDG.
	G1, G2 int
	// Sigma is the fraction of users assigned to 1-D grids in HDG (0 → the
	// even-split default d/(d+(d choose 2))). Ignored by TDG. Appendix A.5
	// sweeps this.
	Sigma float64
	// SkipPostProcess removes Phase 2 entirely, producing the ITDG/IHDG
	// ablations of Appendix A.1.
	SkipPostProcess bool
	// Rounds is the number of {consistency, Norm-Sub} interleavings in
	// Phase 2 (0 → 3).
	Rounds int
	// WU bounds the Algorithm 1/2 weighted-update loops. A zero Tol becomes
	// 1/n at Fit time (the paper's threshold guidance).
	WU mwem.Options
	// CollectTraces keeps Algorithm 1/2 convergence traces on the estimator
	// (Figures 17–18).
	CollectTraces bool
}

func (o Options) withDefaults() Options {
	if o.Alpha1 <= 0 {
		o.Alpha1 = DefaultAlpha1
	}
	if o.Alpha2 <= 0 {
		o.Alpha2 = DefaultAlpha2
	}
	if o.Rounds <= 0 {
		o.Rounds = 3
	}
	return o
}

// TDG is the Two-Dimensional Grids mechanism (Section 4): one OLH-estimated
// g₂×g₂ grid per attribute pair, post-processed for non-negativity and
// cross-grid consistency, answering 2-D queries under the uniformity
// assumption and higher-dimensional queries through Algorithm 2.
type TDG struct {
	opts Options
}

// NewTDG returns a TDG mechanism with the given options.
func NewTDG(opts Options) *TDG { return &TDG{opts: opts.withDefaults()} }

// Name implements mech.Mechanism.
func (t *TDG) Name() string {
	if t.opts.SkipPostProcess {
		return "ITDG"
	}
	return "TDG"
}

// tdgEstimator answers queries from the post-processed pair grids (TDG's,
// and CALM's at g₂ = c). The grids are sealed at Finalize and never mutated
// afterwards, so Answer and AnswerBatch are safe for concurrent use.
type tdgEstimator struct {
	c, d  int
	g2    int
	grids []*grid.Grid2D // indexed by mech.PairIndex, sealed
	wu    mwem.Options

	// LastAlg2Trace holds the most recent Algorithm 2 convergence trace when
	// traces are collected; mu guards it and is only taken when traces is
	// set, keeping the bookkeeping off the Answer hot path.
	traces        bool
	mu            sync.Mutex
	LastAlg2Trace []float64
}

// Fit implements mech.Mechanism as a thin wrapper over the protocol path.
func (t *TDG) Fit(ds *dataset.Dataset, eps float64, rng *rand.Rand) (mech.Estimator, error) {
	return mech.FitViaProtocol(t, ds, eps, rng)
}

// tdgProtocol is the pair-grid protocol of TDG and CALM: one g₂×g₂ grid —
// and one user group — per attribute pair.
type tdgProtocol struct {
	mechName string
	p        mech.Params
	opts     Options
	g2       int
	pairs    [][2]int
	as       *mech.Assigner
	o2       fo.Oracle // shared oracle, domain g2²
}

// Protocol implements mech.Mechanism for TDG.
func (t *TDG) Protocol(p mech.Params) (mech.Protocol, error) {
	if err := p.Validate(2); err != nil {
		return nil, err
	}
	if !mathx.IsPow2(p.C) {
		return nil, fmt.Errorf("core: domain size %d must be a power of two", p.C)
	}
	opts := t.opts.withDefaults()
	g2 := opts.G2
	if g2 == 0 {
		var err error
		g2, err = TDGGranularity(p.Eps, p.N, p.D, p.C, opts.Alpha2)
		if err != nil {
			return nil, err
		}
	}
	o2, err := fo.NewOLH(p.Eps, g2*g2)
	if err != nil {
		return nil, err
	}
	return NewPairGridProtocol(t.Name(), p, g2, o2, opts)
}

// NewPairGridProtocol returns the pair-grid protocol of Section 4.1: one
// user group per attribute pair, each reporting its g×g grid cell through
// oracle, whose domain must be g². The aggregator runs Phase 2 (unless
// opts.SkipPostProcess) and answers from the sealed grids, λ > 2 through
// Algorithm 2. TDG calls it with its guideline g₂ and OLH; CALM with g = c
// and the adaptive oracle, where every cell is one value pair. p must
// already be validated.
func NewPairGridProtocol(name string, p mech.Params, g int, oracle fo.Oracle, opts Options) (mech.Protocol, error) {
	if p.C%g != 0 {
		return nil, fmt.Errorf("core: granularity g2=%d does not divide domain %d", g, p.C)
	}
	pairs := mech.AllPairs(p.D)
	as, err := mech.NewAssigner(p.Seed, mech.EvenBounds(p.N, len(pairs)))
	if err != nil {
		return nil, err
	}
	return &tdgProtocol{mechName: name, p: p, opts: opts.withDefaults(), g2: g, pairs: pairs, as: as, o2: oracle}, nil
}

// Name implements mech.Protocol.
func (pr *tdgProtocol) Name() string { return pr.mechName }

// Params implements mech.Protocol.
func (pr *tdgProtocol) Params() mech.Params { return pr.p }

// NumGroups implements mech.Protocol.
func (pr *tdgProtocol) NumGroups() int { return len(pr.pairs) }

// Assignment implements mech.Protocol.
func (pr *tdgProtocol) Assignment(user int) (mech.Assignment, error) {
	g, err := pr.as.GroupOf(user)
	if err != nil {
		return mech.Assignment{}, err
	}
	pair := pr.pairs[g]
	return mech.Assignment{Group: g, Attr1: pair[0], Attr2: pair[1], Domain: pr.g2 * pr.g2}, nil
}

// ClientReport implements mech.Protocol.
func (pr *tdgProtocol) ClientReport(a mech.Assignment, record []int, rng *rand.Rand) (mech.Report, error) {
	if a.Group < 0 || a.Group >= len(pr.pairs) {
		return mech.Report{}, fmt.Errorf("core: assignment group %d outside [0,%d)", a.Group, len(pr.pairs))
	}
	if err := mech.CheckRecord(pr.p, record); err != nil {
		return mech.Report{}, err
	}
	pair := pr.pairs[a.Group]
	w := pr.p.C / pr.g2
	cell := (record[pair[0]]/w)*pr.g2 + record[pair[1]]/w
	return mech.FromFO(a.Group, pr.o2.Perturb(cell, rng)), nil
}

// NewCollector implements mech.Protocol. The collector streams each report
// into its pair grid's oracle statistic (see mech.CountIngest), keeping
// memory O(pairs × g₂²) regardless of the user count.
func (pr *tdgProtocol) NewCollector() (mech.Collector, error) {
	f2, err := fo.NewFolder(pr.o2)
	if err != nil {
		return nil, err
	}
	specs := make([]mech.GroupSpec, pr.NumGroups())
	spec := mech.FolderSpec(f2)
	for g := range specs {
		specs[g] = spec
	}
	return mech.NewCountCollector(pr, mech.OracleCheck(pr.o2), specs, func(byGroup []mech.GroupCounts) (mech.Estimator, error) {
		return pr.estimate(f2, byGroup)
	})
}

// estimate turns one snapshot of per-group statistics into the estimator.
func (pr *tdgProtocol) estimate(f2 *fo.Folder, byGroup []mech.GroupCounts) (mech.Estimator, error) {
	grids := make([]*grid.Grid2D, len(pr.pairs))
	for pi := range pr.pairs {
		g, err := grid.NewGrid2D(pr.p.C, pr.g2)
		if err != nil {
			return nil, err
		}
		copy(g.Freq, f2.Estimate(byGroup[pi].Counts, int(byGroup[pi].N)))
		grids[pi] = g
	}
	if !pr.opts.SkipPostProcess {
		if err := postProcess2D(pr.p.D, grids, pr.opts.Rounds); err != nil {
			return nil, err
		}
	}
	wu := pr.opts.WU
	if wu.Tol <= 0 {
		wu.Tol = 1 / float64(pr.p.N)
	}
	for _, g := range grids {
		g.Seal()
	}
	return &tdgEstimator{
		c: pr.p.C, d: pr.p.D, g2: pr.g2,
		grids:  grids,
		wu:     wu,
		traces: pr.opts.CollectTraces,
	}, nil
}

// postProcess2D runs Phase 2 over a pure 2-D grid collection (TDG, CALM):
// for every attribute, the views are its row/column footprints in the d−1
// grids containing it, each contributing |S| = g₂ cells per coarse bucket.
func postProcess2D(d int, grids []*grid.Grid2D, rounds int) error {
	return postProcessHybrid(d, nil, grids, rounds)
}

// pair2D answers the 2-D query restricting attribute a to pa and b to pb
// under the uniformity assumption.
func (e *tdgEstimator) pair2D(a, b int, pa, pb query.Pred) (float64, error) {
	pi, err := mech.PairIndex(e.d, a, b)
	if err != nil {
		return 0, err
	}
	return e.grids[pi].AnswerUniform(pa.Lo, pa.Hi, pb.Lo, pb.Hi), nil
}

// Answer implements mech.Estimator. Safe for concurrent use.
func (e *tdgEstimator) Answer(q query.Query) (float64, error) {
	f, trace, err := mwem.Answer(q, e.d, e.c, nil, e.pair2D, e.wu)
	if err != nil {
		return 0, err
	}
	if e.traces && trace != nil {
		e.mu.Lock()
		e.LastAlg2Trace = trace
		e.mu.Unlock()
	}
	return f, nil
}

// AnswerBatch implements mech.BatchEstimator.
func (e *tdgEstimator) AnswerBatch(qs []query.Query) ([]float64, error) {
	return mech.AnswerQueries(e, qs)
}

// Granularity returns the 2-D granularity the fit used (for harness
// reporting).
func (e *tdgEstimator) Granularity() (g1, g2 int) { return 0, e.g2 }
