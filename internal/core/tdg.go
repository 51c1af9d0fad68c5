package core

import (
	"math/rand/v2"
	"sync"

	"privmdr/internal/dataset"
	"privmdr/internal/fo"
	"privmdr/internal/grid"
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
	// G1 is ignored by TDG; HDG rejects a negative G1 and raises one below
	// G2 to G2.
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

// Protocol implements mech.Mechanism for TDG: the grid protocol without
// 1-D grids, at the guideline's g₂ unless overridden, reporting through
// OLH.
func (t *TDG) Protocol(p mech.Params) (mech.Protocol, error) {
	if err := validateGridParams(p); err != nil {
		return nil, err
	}
	g2 := t.opts.G2
	if g2 == 0 {
		var err error
		if g2, err = TDGGranularity(p.Eps, p.N, p.D, p.C, t.opts.Alpha2); err != nil {
			return nil, err
		}
	}
	return newGridProtocol(t.Name(), p, t.opts, 0, 0, g2, nil)
}

// NewPairGridProtocol returns the pair-grid protocol of Section 4.1: the
// grid protocol without 1-D grids, one user group per attribute pair, each
// reporting its g×g grid cell through oracle, whose domain must be g². The
// aggregator runs Phase 2 (unless opts.SkipPostProcess) and answers from
// the sealed grids, λ > 2 through Algorithm 2. CALM calls it with g = c and
// the adaptive oracle, where every cell is one value pair. p must already
// be validated.
func NewPairGridProtocol(name string, p mech.Params, g int, oracle fo.Oracle, opts Options) (mech.Protocol, error) {
	return newGridProtocol(name, p, opts, 0, 0, g, oracle)
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
