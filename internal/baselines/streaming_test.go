package baselines

import (
	"fmt"
	"sync"
	"testing"

	"privmdr/internal/consistency"
	"privmdr/internal/dataset"
	"privmdr/internal/fo"
	"privmdr/internal/grid"
	"privmdr/internal/hierarchy"
	"privmdr/internal/ldprand"
	"privmdr/internal/mathx"
	"privmdr/internal/mech"
	"privmdr/internal/mwem"
	"privmdr/internal/query"
)

// Streaming golden tests: the collectors fold reports into count vectors at
// ingest; the references below replay the seed's report-multiset finalize
// over the same reports, folding each group's reports as one run, and the
// answers must match bit-for-bit.

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

// seedFinalizeMSW is the seed's mswCollector.Finalize over explicit report
// multisets, preserved verbatim as the golden reference.
func seedFinalizeMSW(t *testing.T, pr *mswProtocol, byGroup [][]mech.Report) mech.Estimator {
	t.Helper()
	d, cc := pr.p.D, pr.p.C
	cdf := make([][]float64, d)
	for a := 0; a < d; a++ {
		buckets := make([]int64, pr.wave.B)
		for _, r := range byGroup[a] {
			buckets[r.Value]++
		}
		dist, err := pr.wave.Reconstruct(buckets)
		if err != nil {
			t.Fatal(err)
		}
		cdf[a] = mathx.Prefix1D(dist)
	}
	return mech.EstimatorFunc(func(q query.Query) (float64, error) {
		if err := q.Validate(d, cc); err != nil {
			return 0, err
		}
		ans := 1.0
		for _, p := range q {
			ans *= cdf[p.Attr][p.Hi+1] - cdf[p.Attr][p.Lo]
		}
		return ans, nil
	})
}

// seedFinalizeCALM is the seed's calmCollector.Finalize, each pair group
// folded as one run, with the pairs, the oracle and the defaults (3 rounds,
// Tol 1/n) derived from the public parameters.
func seedFinalizeCALM(t *testing.T, params mech.Params, byGroup [][]mech.Report) mech.Estimator {
	t.Helper()
	d, n, cc := params.D, params.N, params.C
	pairs := mech.AllPairs(d)
	oracle, err := fo.NewAuto(params.Eps, cc*cc)
	if err != nil {
		t.Fatal(err)
	}
	marginals := make([]*grid.Grid2D, len(pairs))
	for pi := range pairs {
		g, err := grid.NewGrid2D(cc, cc)
		if err != nil {
			t.Fatal(err)
		}
		copy(g.Freq, foldGroup(oracle, byGroup[pi]))
		marginals[pi] = g
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
	if err := pipeline.Run(3); err != nil {
		t.Fatal(err)
	}
	prefix := make([]*mathx.Prefix2D, len(pairs))
	for pi, g := range marginals {
		p, err := mathx.NewPrefix2D(g.Freq, cc, cc)
		if err != nil {
			t.Fatal(err)
		}
		prefix[pi] = p
	}
	return &seedCALMEstimator{c: cc, d: d, prefix: prefix, wu: mwem.Options{Tol: 1 / float64(n)}}
}

// seedCALMEstimator is the seed's calmEstimator preserved verbatim: 2-D
// answers are exact cell sums over the marginal's prefix sums.
type seedCALMEstimator struct {
	c, d   int
	prefix []*mathx.Prefix2D // per pair, over the post-processed marginal
	wu     mwem.Options
}

func (e *seedCALMEstimator) pair2D(a, b int, pa, pb query.Pred) (float64, error) {
	pi, err := mech.PairIndex(e.d, a, b)
	if err != nil {
		return 0, err
	}
	return e.prefix[pi].RangeSum(pa.Lo, pa.Hi, pb.Lo, pb.Hi), nil
}

func (e *seedCALMEstimator) Answer(q query.Query) (float64, error) {
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

func streamingWorkload(t *testing.T, d, c int) []query.Query {
	t.Helper()
	qs, err := query.RandomWorkload(ldprand.New(27), 25, 2, d, c, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	one, err := query.RandomWorkload(ldprand.New(28), 5, 1, d, c, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return append(qs, one...)
}

func TestMSWStreamingMatchesReportPath(t *testing.T) {
	ds := correlatedDS(t, 9000, 3, 16)
	p := mech.Params{N: ds.N(), D: ds.D(), C: ds.C, Eps: 1.0, Seed: 71}
	prI, err := NewMSW().Protocol(p)
	if err != nil {
		t.Fatal(err)
	}
	pr := prI.(*mswProtocol)
	reports, byGroup := clientReports(t, pr, ds)
	streamed := submitAll(t, pr, reports)
	reference := seedFinalizeMSW(t, pr, byGroup)
	assertSameAnswers(t, streamed, reference, streamingWorkload(t, ds.D(), ds.C))
}

// TestCALMStreamingMatchesReportPath pins CALM, which runs on TDG's
// pair-grid protocol at g₂ = c, to the seed's aggregation and answer rule in
// all three adaptive-oracle regimes: c = 4 at ε = 2 gives GRR
// (c² − 2 = 14 < 3e² ≈ 22.2), c = 16 OLH (c² = 256 ≤ the Hadamard
// threshold), and c = 128 crosses that threshold (c² = 2¹⁴) and exercises
// the Hadamard signed counts.
func TestCALMStreamingMatchesReportPath(t *testing.T) {
	for _, tc := range []struct {
		c      int
		eps    float64
		oracle string
	}{{4, 2.0, "grr"}, {16, 1.0, "olh"}, {128, 1.0, "hadamard"}} {
		ds := correlatedDS(t, 9000, 3, tc.c)
		p := mech.Params{N: ds.N(), D: ds.D(), C: ds.C, Eps: tc.eps, Seed: 72}
		if o, err := fo.NewAuto(p.Eps, p.C*p.C); err != nil || o.Name() != tc.oracle {
			t.Fatalf("c=%d ε=%g: NewAuto gives %v (err %v), want %s", tc.c, tc.eps, o, err, tc.oracle)
		}
		pr, err := NewCALM().Protocol(p)
		if err != nil {
			t.Fatal(err)
		}
		reports, byGroup := clientReports(t, pr, ds)
		streamed := submitAll(t, pr, reports)
		reference := seedFinalizeCALM(t, p, byGroup)
		qs := streamingWorkload(t, ds.D(), ds.C)
		three, err := query.RandomWorkload(ldprand.New(29), 5, 3, ds.D(), ds.C, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		assertSameAnswers(t, streamed, reference, append(qs, three...))
	}
}

// seedHIOEstimator is the seed's hioEstimator preserved verbatim: the raw
// per-group reports, answered lazily through EstimateOne with a global memo
// mutex.
type seedHIOEstimator struct {
	c, d      int
	tree      *hierarchy.Tree
	levels    int
	oracles   []*fo.OLH
	reports   [][]fo.Report
	maxCombos int

	mu   sync.Mutex
	memo map[hioKey]float64
}

func (e *seedHIOEstimator) Answer(q query.Query) (float64, error) {
	if err := q.Validate(e.d, e.c); err != nil {
		return 0, err
	}
	ranges := make([][2]int, e.d)
	for t := range ranges {
		ranges[t] = [2]int{0, e.c - 1}
	}
	for _, p := range q {
		ranges[p.Attr] = [2]int{p.Lo, p.Hi}
	}
	pieces := make([][]hierarchy.Node, e.d)
	combos := 1
	for t, r := range ranges {
		nodes, err := seedDecompose(e.tree, r[0], r[1])
		if err != nil {
			return 0, err
		}
		pieces[t] = nodes
		combos *= len(nodes)
		if combos > e.maxCombos {
			return 0, fmt.Errorf("baselines: HIO query expands to more than %d d-dim intervals", e.maxCombos)
		}
	}
	choice := make([]int, e.d)
	ans := 0.0
	for {
		li := 0
		stride := 1
		id := uint64(0)
		idStride := uint64(1)
		for t := 0; t < e.d; t++ {
			node := pieces[t][choice[t]]
			li += node.Level * stride
			stride *= e.levels
			id += uint64(node.Index) * idStride
			idStride *= uint64(e.tree.CountAt(node.Level))
		}
		key := hioKey{level: li, id: id}
		e.mu.Lock()
		f, ok := e.memo[key]
		e.mu.Unlock()
		if !ok {
			f = e.oracles[li].EstimateOne(e.reports[li], id)
			e.mu.Lock()
			e.memo[key] = f
			e.mu.Unlock()
		}
		ans += f
		t := 0
		for ; t < e.d; t++ {
			choice[t]++
			if choice[t] < len(pieces[t]) {
				break
			}
			choice[t] = 0
		}
		if t == e.d {
			break
		}
	}
	return ans, nil
}

// seedFinalizeHIO is the seed's hioCollector.estimate over explicit report
// multisets, preserved verbatim as the golden reference.
func seedFinalizeHIO(t *testing.T, pr *hioProtocol, byGroup [][]mech.Report) mech.Estimator {
	t.Helper()
	reports := make([][]fo.Report, len(byGroup))
	for g, rs := range byGroup {
		reports[g] = mech.FOReports(rs)
	}
	return &seedHIOEstimator{
		c: pr.p.C, d: pr.p.D,
		tree: pr.tree, levels: pr.levels,
		oracles: pr.oracles, reports: reports,
		memo:      make(map[hioKey]float64),
		maxCombos: hioMaxCombos,
	}
}

// seedFinalizeLHIO is the seed's lhioCollector.estimate over explicit
// report multisets — an eager one-run fold per level table, then the
// unchanged consistency stages — preserved as the golden reference, and
// answering through the seed's answer rule.
func seedFinalizeLHIO(t *testing.T, pr *lhioProtocol, byGroup [][]mech.Report) mech.Estimator {
	t.Helper()
	d, n := pr.p.D, pr.p.N
	tree, levels, pairs := pr.tree, pr.levels, pr.pairs
	freq := make([][][]float64, len(pairs))
	variance := make([][]float64, len(pairs))
	for pi := range pairs {
		freq[pi] = make([][]float64, levels*levels)
		variance[pi] = make([]float64, levels*levels)
		for ti := 0; ti < levels*levels; ti++ {
			oracle := pr.oracles[ti]
			if oracle == nil {
				freq[pi][ti] = []float64{1}
				variance[pi][ti] = 1e-12
				continue
			}
			rs := byGroup[pi*levels*levels+ti]
			freq[pi][ti] = foldGroup(oracle, rs)
			variance[pi][ti] = oracle.Var(len(rs))
		}
	}
	for pi := range pairs {
		if err := ciAlong(tree, levels, freq[pi], variance[pi], true); err != nil {
			t.Fatal(err)
		}
		if err := ciAlong(tree, levels, freq[pi], variance[pi], false); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < lhioRounds; r++ {
		for a := 0; a < d; a++ {
			crossPairConsistency(tree, levels, pairs, freq, a)
		}
		for pi := range pairs {
			for _, table := range freq[pi] {
				consistency.NormSub(table, 1)
			}
		}
	}
	wu := mwem.Options{Tol: 1 / float64(n)}
	return &seedLHIOEstimator{c: pr.p.C, d: d, tree: tree, levels: levels, freq: freq, wu: wu}
}

// seedLHIOEstimator is the seed's lhioEstimator answer rule preserved
// verbatim, over the seed's recursive Decompose, so the LHIO pin checks the
// 1-D partner, the dispatch and the node order as well as aggregation.
type seedLHIOEstimator struct {
	c, d   int
	tree   *hierarchy.Tree
	levels int
	freq   [][][]float64
	wu     mwem.Options
}

func (e *seedLHIOEstimator) pair2D(a, b int, pa, pb query.Pred) (float64, error) {
	pi, err := mech.PairIndex(e.d, a, b)
	if err != nil {
		return 0, err
	}
	nodesA, err := seedDecompose(e.tree, pa.Lo, pa.Hi)
	if err != nil {
		return 0, err
	}
	nodesB, err := seedDecompose(e.tree, pb.Lo, pb.Hi)
	if err != nil {
		return 0, err
	}
	ans := 0.0
	for _, na := range nodesA {
		for _, nb := range nodesB {
			k2 := e.tree.CountAt(nb.Level)
			ans += e.freq[pi][na.Level*e.levels+nb.Level][na.Index*k2+nb.Index]
		}
	}
	return ans, nil
}

func (e *seedLHIOEstimator) Answer(q query.Query) (float64, error) {
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

// seedDecompose is the seed's recursive hierarchy.Tree.Decompose preserved
// verbatim: the HIO and LHIO references walk their ranges through it.
func seedDecompose(t *hierarchy.Tree, lo, hi int) ([]hierarchy.Node, error) {
	if lo < 0 || hi >= t.C || lo > hi {
		return nil, fmt.Errorf("hierarchy: range [%d,%d] invalid for domain %d", lo, hi, t.C)
	}
	var out []hierarchy.Node
	var rec func(level, idx int)
	rec = func(level, idx int) {
		nLo, nHi := t.Interval(level, idx)
		if nLo > hi || nHi < lo {
			return
		}
		if nLo >= lo && nHi <= hi {
			out = append(out, hierarchy.Node{Level: level, Index: idx})
			return
		}
		f := t.ChildFactor(level)
		for ch := 0; ch < f; ch++ {
			rec(level+1, idx*f+ch)
		}
	}
	rec(0, 0)
	return out, nil
}

func TestHIOStreamingMatchesReportPath(t *testing.T) {
	ds := correlatedDS(t, 9000, 3, 16)
	p := mech.Params{N: ds.N(), D: ds.D(), C: ds.C, Eps: 1.0, Seed: 74}
	prI, err := NewHIO().Protocol(p)
	if err != nil {
		t.Fatal(err)
	}
	pr := prI.(*hioProtocol)
	reports, byGroup := clientReports(t, pr, ds)
	streamed := submitAll(t, pr, reports)
	reference := seedFinalizeHIO(t, pr, byGroup)
	assertSameAnswers(t, streamed, reference, streamingWorkload(t, ds.D(), ds.C))
}

// TestHIOCappedStreamingMatchesReportPath runs HIO at d = 3, c = 64, where
// the deep levels (up to 64³ intervals) pass the 4096 streaming cap and
// fall back to report retention: the hybrid collector must answer
// bit-identically to the all-retained seed path, and its exported state
// must be the v3 hybrid shape.
func TestHIOCappedStreamingMatchesReportPath(t *testing.T) {
	ds := correlatedDS(t, 9000, 3, 64)
	p := mech.Params{N: ds.N(), D: ds.D(), C: ds.C, Eps: 1.0, Seed: 75}
	prI, err := NewHIO().Protocol(p)
	if err != nil {
		t.Fatal(err)
	}
	pr := prI.(*hioProtocol)
	reports, byGroup := clientReports(t, pr, ds)

	coll, err := pr.NewCollector()
	if err != nil {
		t.Fatal(err)
	}
	if err := coll.(mech.StatefulCollector).SubmitBatch(reports); err != nil {
		t.Fatal(err)
	}
	st, err := coll.(mech.StatefulCollector).State()
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != mech.StateVersionHybrid {
		t.Fatalf("capped HIO exports state version %d, want %d", st.Version, mech.StateVersionHybrid)
	}
	retained, streamedGroups := 0, 0
	for _, gc := range st.Counts {
		if len(gc.Reports) > 0 {
			retained++
		}
		if len(gc.Counts) > 0 {
			streamedGroups++
		}
	}
	if retained == 0 || streamedGroups == 0 {
		t.Fatalf("capped HIO state should mix retained (%d) and streamed (%d) groups", retained, streamedGroups)
	}

	hybrid, err := coll.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	reference := seedFinalizeHIO(t, pr, byGroup)
	assertSameAnswers(t, hybrid, reference, streamingWorkload(t, ds.D(), ds.C))
}

func TestLHIOStreamingMatchesReportPath(t *testing.T) {
	ds := correlatedDS(t, 9000, 3, 16)
	p := mech.Params{N: ds.N(), D: ds.D(), C: ds.C, Eps: 1.0, Seed: 76}
	prI, err := NewLHIO().Protocol(p)
	if err != nil {
		t.Fatal(err)
	}
	pr := prI.(*lhioProtocol)
	reports, byGroup := clientReports(t, pr, ds)
	streamed := submitAll(t, pr, reports)
	reference := seedFinalizeLHIO(t, pr, byGroup)
	assertSameAnswers(t, streamed, reference, streamingWorkload(t, ds.D(), ds.C))
}

func TestUniStreamingMatchesReportPath(t *testing.T) {
	ds := uniformDS(t, 500, 3, 16)
	p := mech.Params{N: ds.N(), D: ds.D(), C: ds.C, Eps: 1.0, Seed: 73}
	pr, err := NewUni().Protocol(p)
	if err != nil {
		t.Fatal(err)
	}
	reports, _ := clientReports(t, pr, ds)
	streamed := submitAll(t, pr, reports)
	// Uni's answers are a pure function of the query — the reports only
	// need to be accepted and counted.
	q := query.Query{{Attr: 1, Lo: 0, Hi: 7}}
	got, err := streamed.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.5 {
		t.Fatalf("Uni streaming answer %v, want 0.5", got)
	}
}
