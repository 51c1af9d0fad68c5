package core

import (
	"testing"

	"privmdr/internal/dataset"
	"privmdr/internal/fo"
	"privmdr/internal/grid"
	"privmdr/internal/ldprand"
	"privmdr/internal/mech"
	"privmdr/internal/mwem"
	"privmdr/internal/query"
)

// These are the streaming golden tests: the collectors fold reports into
// count vectors at ingest, and the reference below replays the seed's
// report-multiset finalize — group the raw reports, fold each group's
// reports as one run, then the identical post-processing — asserting the
// two paths produce bit-identical answers.

// clientReports runs the client side for every user and groups the reports.
func clientReports(t *testing.T, pr mech.Protocol, ds *dataset.Dataset) (all []mech.Report, byGroup [][]mech.Report) {
	t.Helper()
	p := pr.Params()
	byGroup = make([][]mech.Report, pr.NumGroups())
	record := make([]int, p.D)
	for u := 0; u < p.N; u++ {
		a, err := pr.Assignment(u)
		if err != nil {
			t.Fatal(err)
		}
		for i := range record {
			record[i] = ds.Value(i, u)
		}
		rep, err := pr.ClientReport(a, record, mech.ClientRand(p, u))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, rep)
		byGroup[rep.Group] = append(byGroup[rep.Group], rep)
	}
	return all, byGroup
}

// foldGroup folds one group's reports as one run and estimates from the
// statistic.
func foldGroup(o fo.Oracle, rs []mech.Report) []float64 {
	counts := make([]int64, o.StatLen())
	o.Fold(mech.FOReports(rs), counts)
	return o.EstimateCounts(counts, len(rs))
}

// submitAll streams every report through a fresh collector and finalizes.
func submitAll(t *testing.T, pr mech.Protocol, reports []mech.Report) mech.Estimator {
	t.Helper()
	coll, err := pr.NewCollector()
	if err != nil {
		t.Fatal(err)
	}
	if err := coll.SubmitBatch(reports); err != nil {
		t.Fatal(err)
	}
	est, err := coll.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// assertSameAnswers compares two estimators bit-for-bit on a workload.
func assertSameAnswers(t *testing.T, got, want mech.Estimator, qs []query.Query) {
	t.Helper()
	for i, q := range qs {
		g, err := got.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if g != w {
			t.Fatalf("query %d: streaming answer %v != report-multiset answer %v", i, g, w)
		}
	}
}

// seedFinalizeHDG is the seed's hdgCollector.Finalize over explicit report
// multisets, each group folded as one run, preserved as the golden
// reference.
func seedFinalizeHDG(t *testing.T, pr *gridProtocol, byGroup [][]mech.Report) mech.Estimator {
	t.Helper()
	d, cc := pr.p.D, pr.p.C
	grids1 := make([]*grid.Grid1D, d)
	for a := 0; a < d; a++ {
		g, err := grid.NewGrid1D(cc, pr.g1)
		if err != nil {
			t.Fatal(err)
		}
		copy(g.Freq, foldGroup(pr.o1, byGroup[a]))
		grids1[a] = g
	}
	grids2 := make([]*grid.Grid2D, len(pr.pairs))
	for pi := range pr.pairs {
		g, err := grid.NewGrid2D(cc, pr.g2)
		if err != nil {
			t.Fatal(err)
		}
		copy(g.Freq, foldGroup(pr.o2, byGroup[d+pi]))
		grids2[pi] = g
	}
	if !pr.opts.SkipPostProcess {
		if err := postProcessHybrid(d, grids1, grids2, pr.opts.Rounds); err != nil {
			t.Fatal(err)
		}
	}
	wu := pr.opts.WU
	if wu.Tol <= 0 {
		wu.Tol = 1 / float64(max(pr.p.N, 1))
	}
	return newHDGEstimator(cc, d, pr.g1, pr.g2, grids1, grids2, wu, pr.opts.CollectTraces)
}

// seedFinalizeTDG is the seed's tdgCollector.Finalize, each group folded as
// one run, answering through the seed's answer rule.
func seedFinalizeTDG(t *testing.T, pr *gridProtocol, byGroup [][]mech.Report) mech.Estimator {
	t.Helper()
	grids := make([]*grid.Grid2D, len(pr.pairs))
	for pi := range pr.pairs {
		g, err := grid.NewGrid2D(pr.p.C, pr.g2)
		if err != nil {
			t.Fatal(err)
		}
		copy(g.Freq, foldGroup(pr.o2, byGroup[pi]))
		grids[pi] = g
	}
	if !pr.opts.SkipPostProcess {
		if err := postProcessHybrid(pr.p.D, nil, grids, pr.opts.Rounds); err != nil {
			t.Fatal(err)
		}
	}
	wu := pr.opts.WU
	if wu.Tol <= 0 {
		wu.Tol = 1 / float64(pr.p.N)
	}
	for _, g := range grids {
		g.Seal()
	}
	return &seedTDGEstimator{c: pr.p.C, d: pr.p.D, grids: grids, wu: wu}
}

// seedTDGEstimator is the seed's tdgEstimator answer rule preserved
// verbatim, less its trace capture (the pin runs without CollectTraces),
// so the TDG pin checks the 1-D partner and the dispatch as well as
// aggregation.
type seedTDGEstimator struct {
	c, d  int
	grids []*grid.Grid2D
	wu    mwem.Options
}

func (e *seedTDGEstimator) pair2D(a, b int, pa, pb query.Pred) (float64, error) {
	pi, err := mech.PairIndex(e.d, a, b)
	if err != nil {
		return 0, err
	}
	return e.grids[pi].AnswerUniform(pa.Lo, pa.Hi, pb.Lo, pb.Hi), nil
}

func (e *seedTDGEstimator) Answer(q query.Query) (float64, error) {
	if err := q.Validate(e.d, e.c); err != nil {
		return 0, err
	}
	qs := q.Sorted()
	if len(qs) == 1 {
		// 1-D query: marginalize the grid of (a, partner) over the partner.
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

func streamingWorkload(t *testing.T, d, c int) []query.Query {
	t.Helper()
	qs, err := query.RandomWorkload(ldprand.New(23), 25, 2, d, c, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	one, err := query.RandomWorkload(ldprand.New(24), 5, 1, d, c, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return append(qs, one...)
}

func TestHDGStreamingMatchesReportPath(t *testing.T) {
	ds := correlatedDS(t, 20000, 3, 32)
	p := mech.Params{N: ds.N(), D: ds.D(), C: ds.C, Eps: 1.0, Seed: 61}
	prI, err := NewHDG(Options{}).Protocol(p)
	if err != nil {
		t.Fatal(err)
	}
	pr := prI.(*gridProtocol)
	reports, byGroup := clientReports(t, pr, ds)
	streamed := submitAll(t, pr, reports)
	reference := seedFinalizeHDG(t, pr, byGroup)
	assertSameAnswers(t, streamed, reference, streamingWorkload(t, ds.D(), ds.C))
}

// TestTDGStreamingMatchesReportPath runs ITDG beside TDG: post-processing
// makes each attribute's marginal agree across its pair grids, so TDG's 1-D
// answers can come out the same through either partner, while ITDG's raw
// grids pin which partner the answer rule picks.
func TestTDGStreamingMatchesReportPath(t *testing.T) {
	ds := correlatedDS(t, 20000, 3, 32)
	for _, opts := range []Options{{}, {SkipPostProcess: true}} {
		m := NewTDG(opts)
		t.Run(m.Name(), func(t *testing.T) {
			p := mech.Params{N: ds.N(), D: ds.D(), C: ds.C, Eps: 1.0, Seed: 62}
			prI, err := m.Protocol(p)
			if err != nil {
				t.Fatal(err)
			}
			pr := prI.(*gridProtocol)
			reports, byGroup := clientReports(t, pr, ds)
			streamed := submitAll(t, pr, reports)
			reference := seedFinalizeTDG(t, pr, byGroup)
			assertSameAnswers(t, streamed, reference, streamingWorkload(t, ds.D(), ds.C))
		})
	}
}
