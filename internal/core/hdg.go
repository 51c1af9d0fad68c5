package core

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"privmdr/internal/dataset"
	"privmdr/internal/grid"
	"privmdr/internal/mech"
	"privmdr/internal/mwem"
	"privmdr/internal/query"
)

// HDG is the Hybrid-Dimensional Grids mechanism (Section 4): TDG's 2-D grids
// plus one finer-grained 1-D grid per attribute. The 1-D information is
// fused with the 2-D grids through Algorithm 1's response matrices, which
// replace TDG's uniformity assumption when a query rectangle cuts through a
// cell.
type HDG struct {
	opts Options
}

// NewHDG returns an HDG mechanism with the given options.
func NewHDG(opts Options) *HDG { return &HDG{opts: opts.withDefaults()} }

// Name implements mech.Mechanism.
func (h *HDG) Name() string {
	if h.opts.SkipPostProcess {
		return "IHDG"
	}
	return "HDG"
}

// hdgEstimator answers queries from the post-processed hybrid grids. Once
// finalized it is effectively immutable: the grids are sealed, response
// matrices are built exactly once behind sync.Once, and the optional trace
// collection is mutex-guarded — so Answer and AnswerBatch are safe for
// concurrent use.
//
// A pair's response matrix is kept on its atom grid rather than as c×c
// cells. c, g₁ and g₂ are powers of two, so the pair's 1-D and 2-D cell
// boundaries cut [0,c)² into the uniform g×g grid of atoms, g = max(g₁, g₂).
// Algorithm 1 starts uniform and every update rescales whole constraint
// rectangles, hence whole atoms: the c×c cells inside an atom stay equal, and
// running the iteration on atom masses is the same computation in exact
// arithmetic. mwem.BuildResponseMatrix keeps the atoms as row band × column
// band × 2-D cell factors while it iterates, so a sweep costs O(g + g₂²),
// and multiplies out the g² atoms once. Memory and warm-up per pair depend
// on g, not on c.
type hdgEstimator struct {
	c, d   int
	G1, G2 int
	grids1 []*grid.Grid1D // per attribute, sealed
	grids2 []*grid.Grid2D // per pair (mech.PairIndex order), sealed
	wu     mwem.Options
	traces bool

	// atoms[pi] is pair pi's response matrix as a sealed g×g grid over
	// [0,c)², built at most once by matOnce[pi]; matErr[pi] records a build
	// failure. Reads are safe after the corresponding Once completes.
	atoms   []*grid.Grid2D
	matOnce []sync.Once
	matErr  []error

	// mu guards the convergence traces below. It is only ever taken when
	// traces is set, keeping trace bookkeeping off the Answer hot path.
	mu            sync.Mutex
	Alg1Traces    [][]float64
	LastAlg2Trace []float64
}

// newHDGEstimator seals the grids and wires the concurrency plumbing shared
// by the collector and snapshot constructors.
func newHDGEstimator(c, d, g1, g2 int, grids1 []*grid.Grid1D, grids2 []*grid.Grid2D, wu mwem.Options, traces bool) *hdgEstimator {
	for _, g := range grids1 {
		g.Seal()
	}
	for _, g := range grids2 {
		g.Seal()
	}
	return &hdgEstimator{
		c: c, d: d, G1: g1, G2: g2,
		grids1:  grids1,
		grids2:  grids2,
		wu:      wu,
		traces:  traces,
		atoms:   make([]*grid.Grid2D, len(grids2)),
		matOnce: make([]sync.Once, len(grids2)),
		matErr:  make([]error, len(grids2)),
	}
}

// Fit implements mech.Mechanism as a thin wrapper over the protocol path:
// Protocol → per-user ClientReport → Submit → Finalize.
func (h *HDG) Fit(ds *dataset.Dataset, eps float64, rng *rand.Rand) (mech.Estimator, error) {
	return mech.FitViaProtocol(h, ds, eps, rng)
}

// Protocol implements mech.Mechanism for HDG: the grid protocol with one
// 1-D grid per attribute. The σ-split sends a share σ of the users to the
// 1-D groups (by default d/(d + (d choose 2)), every group the same size),
// and the guideline picks g₁ and g₂ from the per-group populations of that
// split, with option overrides layered on top.
func (h *HDG) Protocol(p mech.Params) (mech.Protocol, error) {
	if err := validateGridParams(p); err != nil {
		return nil, err
	}
	opts := h.opts
	n, c := p.N, p.C
	m1, m2 := HDGGroups(p.D)
	sigma := opts.Sigma
	if sigma <= 0 {
		sigma = float64(m1) / float64(m1+m2)
	}
	if sigma >= 1 {
		return nil, fmt.Errorf("core: sigma %g must be in (0,1)", sigma)
	}
	n1 := max(int(sigma*float64(n)), m1)
	if n-n1 < m2 {
		return nil, fmt.Errorf("core: %d users cannot populate %d 2-D groups with sigma=%g", n, m2, sigma)
	}

	g1, g2 := opts.G1, opts.G2
	if g1 < 0 {
		return nil, fmt.Errorf("core: granularity g1=%d must not be negative", g1)
	}
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
	return newGridProtocol(h.Name(), p, opts, n1, max(g1, g2), g2, nil)
}

// responseMatrix returns the pair's sealed atom-grid response matrix,
// building it at most once (Algorithm 1, fusing {G(j), G(k), G(j,k)}).
// Safe for concurrent use: the first caller builds, everyone else waits.
func (e *hdgEstimator) responseMatrix(pi int, a, b int) (*grid.Grid2D, error) {
	e.matOnce[pi].Do(func() { e.buildResponseMatrix(pi, a, b) })
	if err := e.matErr[pi]; err != nil {
		return nil, err
	}
	return e.atoms[pi], nil
}

// buildResponseMatrix runs Algorithm 1 for pair pi on its atom grid and
// memoizes the sealed result. Called exactly once per pair via matOnce.
func (e *hdgEstimator) buildResponseMatrix(pi int, a, b int) {
	m, trace, err := mwem.BuildResponseMatrix(e.grids1[a].Freq, e.grids1[b].Freq, e.grids2[pi].Freq, e.wu)
	if err != nil {
		e.matErr[pi] = err
		return
	}
	if e.traces {
		e.mu.Lock()
		e.Alg1Traces = append(e.Alg1Traces, trace)
		e.mu.Unlock()
	}
	atoms := &grid.Grid2D{C: e.c, G: max(e.G1, e.G2), Freq: m}
	atoms.Seal()
	e.atoms[pi] = atoms
}

// PrecomputeMatrices builds every pair's response matrix up front instead of
// on first use — the warm-up a long-lived query server performs before
// taking traffic (privmdr.WarmEstimator runs it on every serving path).
func (e *hdgEstimator) PrecomputeMatrices() error {
	for pi, pair := range mech.AllPairs(e.d) {
		if _, err := e.responseMatrix(pi, pair[0], pair[1]); err != nil {
			return err
		}
	}
	return nil
}

// pair2D answers a 2-D query on pair (a, b): completely covered cells
// contribute their grid frequency (one O(1) block sum on the sealed grid);
// the partially covered boundary cells tile the query rectangle minus the
// complete block, so their response-matrix mass is the atom grid's O(1)
// answer over the rectangle minus its O(1) sum over the complete block.
func (e *hdgEstimator) pair2D(a, b int, pa, pb query.Pred) (float64, error) {
	pi, err := mech.PairIndex(e.d, a, b)
	if err != nil {
		return 0, err
	}
	g := e.grids2[pi]
	w := g.CellWidth()
	cr0, cr1, cc0, cc1, ok := g.CompleteBlock(pa.Lo, pa.Hi, pb.Lo, pb.Hi)
	ans := 0.0
	if ok {
		ans = g.BlockSum(cr0, cr1, cc0, cc1)
		if cr0*w == pa.Lo && (cr1+1)*w-1 == pa.Hi && cc0*w == pb.Lo && (cc1+1)*w-1 == pb.Hi {
			// Cell-aligned query: every touched cell is complete and the
			// response matrix is not needed.
			return ans, nil
		}
	}
	atoms, err := e.responseMatrix(pi, a, b)
	if err != nil {
		return 0, err
	}
	partial := atoms.AnswerUniform(pa.Lo, pa.Hi, pb.Lo, pb.Hi)
	if ok {
		k := atoms.G / g.G // atoms per cell side
		partial -= atoms.BlockSum(cr0*k, (cr1+1)*k-1, cc0*k, (cc1+1)*k-1)
	}
	return ans + partial, nil
}

// oneD answers a 1-D query from the attribute's fine-grained 1-D grid; its
// cells are c/g₁ wide, so the residual uniformity error is negligible.
func (e *hdgEstimator) oneD(p query.Pred) float64 {
	return e.grids1[p.Attr].AnswerUniform(p.Lo, p.Hi)
}

// Answer implements mech.Estimator. Safe for concurrent use.
func (e *hdgEstimator) Answer(q query.Query) (float64, error) {
	f, trace, err := mwem.Answer(q, e.d, e.c, e.oneD, e.pair2D, e.wu)
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
func (e *hdgEstimator) AnswerBatch(qs []query.Query) ([]float64, error) {
	return mech.AnswerQueries(e, qs)
}
