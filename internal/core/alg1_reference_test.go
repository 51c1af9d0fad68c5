package core

import (
	"fmt"
	"math"
	"testing"

	"privmdr/internal/dataset"
	"privmdr/internal/grid"
	"privmdr/internal/ldprand"
	"privmdr/internal/mathx"
	"privmdr/internal/mech"
	"privmdr/internal/mwem"
	"privmdr/internal/query"
)

// CellConstraint is one grid cell's contribution to Algorithm 1: the
// inclusive rectangle of matrix entries the cell covers in the pair's n×n
// matrix (1-D cells span the full range of the other attribute) and the
// cell's post-processed frequency.
type CellConstraint struct {
	R0, R1, C0, C1 int
	Freq           float64
}

// denseAlg1 is Algorithm 1 as a loop over a dense n×n matrix: starting from
// the uniform matrix it repeatedly rescales each constraint's rectangle so
// its mass matches the cell frequency, until the per-sweep L1 change drops
// below opts.Tol. It returns the matrix (row-major; rows = first attribute)
// and the per-sweep change trace. It is the reference that both the c×c
// check and the product-form check below run.
func denseAlg1(n int, cells []CellConstraint, opts mwem.Options) ([]float64, []float64) {
	if opts.MaxIters <= 0 { // mwem's defaults
		opts.MaxIters = 100
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-6
	}
	m := make([]float64, n*n)
	init := 1 / float64(n*n)
	for i := range m {
		m[i] = init
	}
	var trace []float64
	for iter := 0; iter < opts.MaxIters; iter++ {
		change := 0.0
		for _, s := range cells {
			y := 0.0
			for r := s.R0; r <= s.R1; r++ {
				row := m[r*n : r*n+n]
				for col := s.C0; col <= s.C1; col++ {
					y += row[col]
				}
			}
			if y == 0 {
				continue
			}
			factor := s.Freq / y
			if factor == 1 {
				continue
			}
			for r := s.R0; r <= s.R1; r++ {
				row := m[r*n : r*n+n]
				for col := s.C0; col <= s.C1; col++ {
					old := row[col]
					row[col] = old * factor
					change += math.Abs(row[col] - old)
				}
			}
		}
		trace = append(trace, change)
		if change < opts.Tol {
			break
		}
	}
	return m, trace
}

// cxcAlg1 is HDG's Algorithm 1 in its original form: constraints in value
// units over the full c×c matrix, summed into c×c prefix sums. It costs
// O(c²) memory and O(sweeps·c²) time per pair, and is kept only as the
// reference the atom-grid form is pinned to.
func cxcAlg1(e *hdgEstimator, pi, a, b int) (*mathx.Prefix2D, []float64, error) {
	c := e.c
	var cells []CellConstraint
	ga, gb, gab := e.grids1[a], e.grids1[b], e.grids2[pi]
	for i, f := range ga.Freq {
		lo, hi := ga.CellInterval(i)
		cells = append(cells, CellConstraint{R0: lo, R1: hi, C0: 0, C1: c - 1, Freq: f})
	}
	for i, f := range gb.Freq {
		lo, hi := gb.CellInterval(i)
		cells = append(cells, CellConstraint{R0: 0, R1: c - 1, C0: lo, C1: hi, Freq: f})
	}
	for i, f := range gab.Freq {
		r0, r1, c0, c1 := gab.CellRect(i)
		cells = append(cells, CellConstraint{R0: r0, R1: r1, C0: c0, C1: c1, Freq: f})
	}
	m, trace := denseAlg1(c, cells, e.wu)
	p, err := mathx.NewPrefix2D(m, c, c)
	return p, trace, err
}

// cxcReference answers an estimator's queries through cxcAlg1, building each
// pair's matrix on first use.
type cxcReference struct {
	e      *hdgEstimator
	prefix []*mathx.Prefix2D
	traces [][]float64 // per pair, nil until its matrix is built
	jit    *cxcReference
}

func newCxCReference(e *hdgEstimator) *cxcReference {
	return &cxcReference{e: e, prefix: make([]*mathx.Prefix2D, len(e.grids2)), traces: make([][]float64, len(e.grids2))}
}

func (r *cxcReference) matrix(pi, a, b int) (*mathx.Prefix2D, error) {
	if r.prefix[pi] == nil {
		p, trace, err := cxcAlg1(r.e, pi, a, b)
		if err != nil {
			return nil, err
		}
		r.prefix[pi], r.traces[pi] = p, trace
	}
	return r.prefix[pi], nil
}

// answer is hdgEstimator.Answer with every 2-D answer taken from
// seedHDGPair2D.
func (r *cxcReference) answer(q query.Query) (float64, error) {
	qs := q.Sorted()
	if len(qs) == 1 {
		return r.e.grids1[qs[0].Attr].AnswerUniform(qs[0].Lo, qs[0].Hi), nil
	}
	pair2D := func(a, b int, pa, pb query.Pred) (float64, error) { return seedHDGPair2D(r, a, b, pa, pb) }
	f, _, err := mwem.AnswerRange(qs, pair2D, r.e.wu)
	return f, err
}

// within is the atom-grid answer contract: agreement with the c×c reference
// up to 1e-9 relative, with an absolute floor of 1e-12 for answers near
// zero.
func within(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Abs(want)+1e-12
}

// traceWithin is the trace contract: 1e-9 relative plus 1e-10 of the pair's
// first-sweep change. Late sweeps change little, so their entries are
// differences of nearly equal sums, where the c×c form's long sums carry
// rounding noise on that scale.
func traceWithin(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for k := range want {
		if math.Abs(got[k]-want[k]) > 1e-9*math.Abs(want[k])+1e-10*math.Abs(want[0]) {
			return false
		}
	}
	return true
}

// jitter is the rounding-scale perturbation the conditioning checks apply:
// input i is scaled by 1 ± 1e-12, the sign alternating with i.
func jitter(i int, f float64) float64 {
	if i%2 == 0 {
		return f * (1 + 1e-12)
	}
	return f * (1 - 1e-12)
}

// jittered is the reference over r's estimator with every grid frequency
// jittered, built on first use. Only its c×c matrices are ever built: the
// conditioning checks below never consult the atom grid under test.
func (r *cxcReference) jittered(t *testing.T) *cxcReference {
	t.Helper()
	if r.jit != nil {
		return r.jit
	}
	e := r.e
	grids1 := make([]*grid.Grid1D, len(e.grids1))
	for a, src := range e.grids1 {
		g, err := grid.NewGrid1D(e.c, e.G1)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range src.Freq {
			g.Freq[i] = jitter(i, f)
		}
		grids1[a] = g
	}
	grids2 := make([]*grid.Grid2D, len(e.grids2))
	for pi, src := range e.grids2 {
		g, err := grid.NewGrid2D(e.c, e.G2)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range src.Freq {
			g.Freq[i] = jitter(i, f)
		}
		grids2[pi] = g
	}
	r.jit = newCxCReference(newHDGEstimator(e.c, e.d, e.G1, e.G2, grids1, grids2, e.wu, false))
	return r.jit
}

// unstableAlg1 reports whether the reference's Algorithm 1 amplifies
// rounding on pair pi: rebuilt from jittered inputs, its trace moves past
// traceWithin. Post-processed grids are non-negative, so every sum Algorithm
// 1 takes is well conditioned; IHDG's raw grids keep negative cells, and a
// constraint whose mass nearly cancels makes a huge, unstable rescaling.
func (r *cxcReference) unstableAlg1(t *testing.T, pi, a, b int) bool {
	t.Helper()
	j := r.jittered(t)
	if _, err := j.matrix(pi, a, b); err != nil {
		t.Fatal(err)
	}
	return !traceWithin(j.traces[pi], r.traces[pi])
}

// unstablePair2D reports whether the reference's 2-D answer want moves past
// within() when rebuilt from jittered inputs.
func (r *cxcReference) unstablePair2D(t *testing.T, a, b int, pa, pb query.Pred, want float64) bool {
	t.Helper()
	f, err := seedHDGPair2D(r.jittered(t), a, b, pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	return !within(f, want)
}

// unstableAlg2 reports whether Algorithm 2 amplifies rounding on the λ-D
// query q: the reference answer moves past within() when the pair answers it
// is built from are jittered.
func (r *cxcReference) unstableAlg2(q query.Query, want float64) (bool, error) {
	k := 0
	jittered := func(a, b int, pa, pb query.Pred) (float64, error) {
		f, err := seedHDGPair2D(r, a, b, pa, pb)
		k++
		return jitter(k, f), err
	}
	f, _, err := mwem.AnswerRange(q.Sorted(), jittered, r.e.wu)
	return !within(f, want), err
}

// TestHDGAtomGridMatchesCxC pins the atom-grid Algorithm 1 to the c×c
// reference across domain sizes, dimensions, budgets, HDG and IHDG (whose
// grids keep negative cells), and granularity overrides. The convergence
// traces, warmed in pair order, have the same sweep counts and agree entry
// by entry (traceWithin); every 2-D and λ-D answer agrees to 1e-9 relative
// (within). The two forms are the same iteration in exact arithmetic, so a
// mismatch is excused only where the reference itself amplifies rounding
// past the contract, which a rounding-scale jitter of the reference's inputs
// detects: pairs (unstableAlg1, unstablePair2D) and λ-D queries
// (unstableAlg2) of IHDG, never of HDG, and no more of them than the table
// is known to hold.
func TestHDGAtomGridMatchesCxC(t *testing.T) {
	type config struct {
		d, c, g1 int
		eps      float64
		skipPost bool
	}
	// Every budget and variant at each shape whose c×c reference is cheap;
	// at the costly shapes (c = 256 with 15 pairs, c = 1024) a subset that
	// still covers each budget and both variants. The race detector adds
	// nothing to this single-goroutine arithmetic and slows the c×c
	// reference twentyfold, so under -race only c ≤ 64 runs.
	var configs []config
	for _, sh := range [][2]int{{2, 16}, {2, 64}, {2, 256}, {3, 16}, {3, 64}, {3, 256}, {6, 16}, {6, 64}} {
		for _, skip := range []bool{false, true} {
			for _, eps := range []float64{0.2, 1, 2} {
				configs = append(configs, config{d: sh[0], c: sh[1], eps: eps, skipPost: skip})
			}
		}
	}
	configs = append(configs,
		config{d: 6, c: 256, eps: 2},
		config{d: 6, c: 256, eps: 0.2, skipPost: true},
		config{d: 2, c: 1024, eps: 0.2},
		config{d: 2, c: 1024, eps: 2, skipPost: true},
		config{d: 2, c: 16, g1: 16, eps: 1},
		config{d: 3, c: 64, g1: 64, eps: 1, skipPost: true},
		config{d: 2, c: 256, g1: 128, eps: 2},
		config{d: 3, c: 256, g1: 128, eps: 0.2, skipPost: true},
		config{d: 2, c: 1024, g1: 128, eps: 1},
	)
	// The most exemptions the table may take: what it holds, with a little
	// room. More means the atom grid disagrees where the reference is
	// merely ill conditioned more often than it used to.
	const maxUnstablePairs, maxUnstableQueries = 2, 15
	var worstAns, worstTrace float64
	var unstable1, unstable2 int
	for ci, cfg := range configs {
		name := fmt.Sprintf("d=%d/c=%d/eps=%g/skip=%v/g1=%d", cfg.d, cfg.c, cfg.eps, cfg.skipPost, cfg.g1)
		t.Run(name, func(t *testing.T) {
			if raceEnabled && cfg.c > 64 {
				t.Skip("c×c reference too slow under -race")
			}
			ds, err := dataset.ByName("normal", dataset.GenOptions{N: 20_000, D: cfg.d, C: cfg.c, Seed: uint64(100 + ci)})
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{G1: cfg.g1, SkipPostProcess: cfg.skipPost, CollectTraces: true}
			est, err := NewHDG(opts).fit(ds, cfg.eps, ldprand.New(uint64(200+ci)))
			if err != nil {
				t.Fatal(err)
			}
			if err := est.PrecomputeMatrices(); err != nil {
				t.Fatal(err)
			}
			ref := newCxCReference(est)
			pairs := mech.AllPairs(cfg.d)
			for pi, pair := range pairs {
				if _, err := ref.matrix(pi, pair[0], pair[1]); err != nil {
					t.Fatal(err)
				}
			}
			// unstable marks the pairs exempted so far; exempt adds one.
			unstable := make([]bool, len(pairs))
			exempt := func(what string, pi int) {
				t.Helper()
				if !cfg.skipPost {
					t.Fatalf("%s: c×c reference unstable on post-processed grids", what)
				}
				unstable[pi] = true
				unstable1++
			}

			got := est.Alg1ConvergenceTraces()
			if len(got) != len(ref.traces) {
				t.Fatalf("%d Algorithm 1 traces, reference %d", len(got), len(ref.traces))
			}
			for pi, want := range ref.traces {
				if !traceWithin(got[pi], want) {
					if !ref.unstableAlg1(t, pi, pairs[pi][0], pairs[pi][1]) {
						t.Fatalf("pair %d: trace %v (%d sweeps), reference %v (%d sweeps)", pi, got[pi], len(got[pi]), want, len(want))
					}
					exempt(fmt.Sprintf("pair %d trace", pi), pi)
					continue
				}
				for k := range want {
					worstTrace = max(worstTrace, math.Abs(got[pi][k]-want[k])/want[0])
				}
			}

			check := func(what string, got, want float64) {
				t.Helper()
				if !within(got, want) {
					t.Fatalf("%s: atom grid %v, c×c reference %v", what, got, want)
				}
				worstAns = max(worstAns, math.Abs(got-want)/max(math.Abs(want), 1e-3))
			}
			// pairCheck compares one 2-D answer; false when its pair is
			// exempt and the comparison was skipped.
			pairCheck := func(what string, a, b int, pa, pb query.Pred) bool {
				t.Helper()
				pi, err := mech.PairIndex(cfg.d, a, b)
				if err != nil {
					t.Fatal(err)
				}
				if unstable[pi] {
					return false
				}
				want, err := seedHDGPair2D(ref, a, b, pa, pb)
				if err != nil {
					t.Fatal(err)
				}
				got, err := est.pair2D(a, b, pa, pb)
				if err != nil {
					t.Fatal(err)
				}
				what = fmt.Sprintf("%s pair2D %v %v", what, pa, pb)
				if !within(got, want) && ref.unstablePair2D(t, a, b, pa, pb, want) {
					exempt(what, pi)
					return false
				}
				check(what, got, want)
				return true
			}
			rng := ldprand.New(uint64(300 + ci))
			for trial := 0; trial < 60; trial++ {
				pair := pairs[rng.IntN(len(pairs))]
				lo1 := rng.IntN(cfg.c)
				hi1 := lo1 + rng.IntN(cfg.c-lo1)
				lo2 := rng.IntN(cfg.c)
				hi2 := lo2 + rng.IntN(cfg.c-lo2)
				pairCheck("random", pair[0], pair[1], query.Pred{Attr: pair[0], Lo: lo1, Hi: hi1}, query.Pred{Attr: pair[1], Lo: lo2, Hi: hi2})
			}
			for lambda := 2; lambda <= min(cfg.d, 4); lambda++ {
				qs, err := query.RandomWorkload(rng, 20, lambda, cfg.d, cfg.c, 0.5)
				if err != nil {
					t.Fatal(err)
				}
			queries:
				for _, q := range qs {
					qs := q.Sorted()
					for i := range qs {
						for j := i + 1; j < len(qs); j++ {
							if !pairCheck(fmt.Sprint(q), qs[i].Attr, qs[j].Attr, qs[i], qs[j]) {
								continue queries
							}
						}
					}
					want, err := ref.answer(q)
					if err != nil {
						t.Fatal(err)
					}
					got, err := est.Answer(q)
					if err != nil {
						t.Fatal(err)
					}
					if !within(got, want) && lambda > 2 {
						ill, err := ref.unstableAlg2(q, want)
						if err != nil {
							t.Fatal(err)
						}
						if ill {
							if !cfg.skipPost {
								t.Fatalf("query %v: Algorithm 2 unstable on post-processed grids", q)
							}
							unstable2++
							continue
						}
					}
					check(fmt.Sprintf("query %v", q), got, want)
				}
			}
		})
	}
	t.Logf("%d configurations: worst answer error %.2g relative (to at least 1e-3), worst trace error %.2g of the first sweep's change; exempt as unstable: %d IHDG pairs, %d IHDG λ-D queries",
		len(configs), worstAns, worstTrace, unstable1, unstable2)
	if unstable1 > maxUnstablePairs || unstable2 > maxUnstableQueries {
		t.Errorf("exempt as unstable: %d pairs (at most %d), %d λ-D queries (at most %d)",
			unstable1, maxUnstablePairs, unstable2, maxUnstableQueries)
	}
}

// denseAtomAlg1 is Algorithm 1 on the g×g atom grid, g = max(g1, g2), as a
// dense loop: the cell list hdgEstimator built before mwem kept the matrix
// in product form, run through denseAlg1. rows and cols hold g1 cells each,
// cells g2×g2.
func denseAtomAlg1(rows, cols, cells []float64, g2 int, opts mwem.Options) ([]float64, []float64) {
	g1 := len(rows)
	g := max(g1, g2)
	cs := make([]CellConstraint, 0, len(rows)+len(cols)+len(cells))
	k := g / g1 // atoms per 1-D cell
	for i, f := range rows {
		cs = append(cs, CellConstraint{R0: i * k, R1: (i+1)*k - 1, C0: 0, C1: g - 1, Freq: f})
	}
	for i, f := range cols {
		cs = append(cs, CellConstraint{R0: 0, R1: g - 1, C0: i * k, C1: (i+1)*k - 1, Freq: f})
	}
	k = g / g2 // atoms per 2-D cell side
	for i, f := range cells {
		r, col := i/g2, i%g2
		cs = append(cs, CellConstraint{R0: r * k, R1: (r+1)*k - 1, C0: col * k, C1: (col+1)*k - 1, Freq: f})
	}
	return denseAlg1(g, cs, opts)
}

// TestAlg1ProductFormMatchesDense pins mwem.BuildResponseMatrix, which keeps
// the atom grid as a product of band and cell factors, to the dense
// atom-grid loop it replaced: the same sweep count, traces within
// traceWithin, and every entry within 1e-12 of the pair's largest entry. The
// inputs are every TestHDGAtomGridMatchesCxC configuration's fitted grids
// (HDG and IHDG), and hand-built grids that reach each branch of the
// iteration: constraints whose mass is zero, constraints already met,
// inconsistent grids that run to MaxIters, negative cells, and a g1 < g2
// shape whose 1-D cells span several atom rows, served through
// FromSnapshot.
func TestAlg1ProductFormMatchesDense(t *testing.T) {
	worst := 0.0
	// departs describes where a matrix and trace depart from the dense
	// loop's past the contract, or is "" when they hold to it.
	departs := func(m, trace, want, wantTrace []float64) string {
		if len(trace) != len(wantTrace) || !traceWithin(trace, wantTrace) {
			return fmt.Sprintf("trace %v (%d sweeps), dense %v (%d sweeps)", trace, len(trace), wantTrace, len(wantTrace))
		}
		if len(m) != len(want) {
			return fmt.Sprintf("%d entries, dense %d", len(m), len(want))
		}
		scale := 0.0
		for _, x := range want {
			scale = max(scale, math.Abs(x))
		}
		for i := range want {
			err := math.Abs(m[i] - want[i])
			if !(err <= 1e-12*scale) {
				return fmt.Sprintf("entry %d is %v, dense %v (largest entry %v)", i, m[i], want[i], scale)
			}
			worst = max(worst, err/scale)
		}
		return ""
	}
	// compare checks the product form's matrix m and trace against the
	// dense loop. On IHDG's raw grids a mismatch is excused, and counted,
	// when the dense loop itself moves past the contract on inputs jittered
	// at rounding scale, as TestHDGAtomGridMatchesCxC excuses the c×c
	// reference. Every entry must be finite regardless: the dense loop's
	// are.
	exempt := 0
	compare := func(t *testing.T, what string, raw bool, m, trace []float64, rows, cols, cells []float64, g2 int, opts mwem.Options) {
		t.Helper()
		for i, x := range m {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("%s: entry %d is %v", what, i, x)
			}
		}
		want, wantTrace := denseAtomAlg1(rows, cols, cells, g2, opts)
		d := departs(m, trace, want, wantTrace)
		if d == "" {
			return
		}
		jit := func(f []float64) []float64 {
			out := make([]float64, len(f))
			for i, x := range f {
				out[i] = jitter(i, x)
			}
			return out
		}
		jm, jTrace := denseAtomAlg1(jit(rows), jit(cols), jit(cells), g2, opts)
		if !raw || departs(jm, jTrace, want, wantTrace) == "" {
			t.Fatalf("%s: %s", what, d)
		}
		exempt++
	}
	build := func(t *testing.T, what string, raw bool, rows, cols, cells []float64, g2 int, opts mwem.Options) {
		t.Helper()
		m, trace, err := mwem.BuildResponseMatrix(rows, cols, cells, opts)
		if err != nil {
			t.Fatal(err)
		}
		compare(t, what, raw, m, trace, rows, cols, cells, g2, opts)
	}

	// The fitted grids: TestHDGAtomGridMatchesCxC's table, seeds included.
	type config struct {
		d, c, g1 int
		eps      float64
		skipPost bool
	}
	var configs []config
	for _, sh := range [][2]int{{2, 16}, {2, 64}, {2, 256}, {3, 16}, {3, 64}, {3, 256}, {6, 16}, {6, 64}} {
		for _, skip := range []bool{false, true} {
			for _, eps := range []float64{0.2, 1, 2} {
				configs = append(configs, config{d: sh[0], c: sh[1], eps: eps, skipPost: skip})
			}
		}
	}
	configs = append(configs,
		config{d: 6, c: 256, eps: 2},
		config{d: 6, c: 256, eps: 0.2, skipPost: true},
		config{d: 2, c: 1024, eps: 0.2},
		config{d: 2, c: 1024, eps: 2, skipPost: true},
		config{d: 2, c: 16, g1: 16, eps: 1},
		config{d: 3, c: 64, g1: 64, eps: 1, skipPost: true},
		config{d: 2, c: 256, g1: 128, eps: 2},
		config{d: 3, c: 256, g1: 128, eps: 0.2, skipPost: true},
		config{d: 2, c: 1024, g1: 128, eps: 1},
	)
	for ci, cfg := range configs {
		name := fmt.Sprintf("d=%d/c=%d/eps=%g/skip=%v/g1=%d", cfg.d, cfg.c, cfg.eps, cfg.skipPost, cfg.g1)
		t.Run(name, func(t *testing.T) {
			ds, err := dataset.ByName("normal", dataset.GenOptions{N: 20_000, D: cfg.d, C: cfg.c, Seed: uint64(100 + ci)})
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{G1: cfg.g1, SkipPostProcess: cfg.skipPost}
			est, err := NewHDG(opts).fit(ds, cfg.eps, ldprand.New(uint64(200+ci)))
			if err != nil {
				t.Fatal(err)
			}
			for pi, pair := range mech.AllPairs(cfg.d) {
				build(t, fmt.Sprintf("pair %d", pi), cfg.skipPost, est.grids1[pair[0]].Freq, est.grids1[pair[1]].Freq, est.grids2[pi].Freq, est.G2, est.wu)
			}
		})
	}

	// Hand-built grids. uniform(n) holds n cells of 1/n each; skewed(n, s)
	// holds n cells of mass proportional to 1 + s·i, summing to 1.
	uniform := func(n int) []float64 {
		f := make([]float64, n)
		for i := range f {
			f[i] = 1 / float64(n)
		}
		return f
	}
	skewed := func(n int, s float64) []float64 {
		f := make([]float64, n)
		sum := 0.0
		for i := range f {
			f[i] = 1 + s*float64(i)
			sum += f[i]
		}
		for i := range f {
			f[i] /= sum
		}
		return f
	}
	opts := mwem.Options{MaxIters: 100, Tol: 1e-9}
	t.Run("zero-mass constraints", func(t *testing.T) {
		// An emptied band or cell holds no mass from the second sweep on.
		rows, cols, cells := skewed(8, 0.5), skewed(8, -0.1), skewed(16, 0.3)
		rows[3], cols[0], cells[5] = 0, 0, 0
		build(t, "zeros", false, rows, cols, cells, 4, opts)
	})
	t.Run("constraints already met", func(t *testing.T) {
		// Uniform grids are met from the start; with uniform rows and
		// columns, only the cells move on the first sweep.
		build(t, "uniform", false, uniform(8), uniform(8), uniform(16), 4, opts)
		build(t, "uniform 1-D", false, uniform(8), uniform(8), skewed(16, 1), 4, opts)
	})
	t.Run("inconsistent grids run to MaxIters", func(t *testing.T) {
		rows := skewed(8, 0.5)
		for i := range rows {
			rows[i] *= 0.9
		}
		build(t, "rows sum to 0.9", false, rows, skewed(8, 0.2), skewed(16, -0.05), 4, opts)
	})
	t.Run("negative cells", func(t *testing.T) {
		rows, cols, cells := skewed(16, 0.3), skewed(16, 0.1), skewed(16, 0.2)
		rows[2], cols[7], cells[9], cells[14] = -0.01, -0.02, -0.015, -0.005
		build(t, "IHDG-like", false, rows, cols, cells, 4, opts)
	})
	t.Run("g1 < g2 from a snapshot", func(t *testing.T) {
		const g1, g2 = 2, 8
		snap := &Snapshot{
			Version: snapshotVersion, D: 2, C: 64, G1: g1, G2: g2,
			WUMaxIters: 100, WUTol: 1e-9,
			Grids1: [][]float64{skewed(g1, 0.7), skewed(g1, -0.3)},
			Grids2: [][]float64{skewed(g2*g2, 0.05)},
		}
		est, err := FromSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		e := est.(*hdgEstimator)
		if err := e.PrecomputeMatrices(); err != nil {
			t.Fatal(err)
		}
		_, trace, err := mwem.BuildResponseMatrix(snap.Grids1[0], snap.Grids1[1], snap.Grids2[0], e.wu)
		if err != nil {
			t.Fatal(err)
		}
		compare(t, "served atom grid", false, e.atoms[0].Freq, trace, snap.Grids1[0], snap.Grids1[1], snap.Grids2[0], g2, e.wu)
	})
	t.Logf("worst entry error %.2g of the pair's largest entry; exempt as unstable: %d IHDG pairs", worst, exempt)
	// The most exemptions the table may take: the one pair it holds, with
	// the same room TestHDGAtomGridMatchesCxC allows.
	const maxExempt = 2
	if exempt > maxExempt {
		t.Errorf("exempt as unstable: %d pairs (at most %d)", exempt, maxExempt)
	}
}
