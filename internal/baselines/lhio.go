package baselines

import (
	"fmt"
	"math/rand/v2"

	"privmdr/internal/consistency"
	"privmdr/internal/dataset"
	"privmdr/internal/fo"
	"privmdr/internal/hierarchy"
	"privmdr/internal/mathx"
	"privmdr/internal/mech"
	"privmdr/internal/mwem"
	"privmdr/internal/query"
)

// LHIO is the paper's improvement of HIO (Section 3.4): instead of one
// d-dimensional hierarchy, it builds a 2-D hierarchy per attribute pair —
// (d choose 2)·(h+1)² user groups — answers all 2-D range queries from them,
// and estimates higher-dimensional answers with Algorithm 2.
//
// Consistency is enforced in two stages, matching the paper's description:
// within each 2-D hierarchy, Hay-style constrained inference is run along
// attribute 1 (for every fixed attribute-2 node) and then along attribute 2;
// across hierarchies, each attribute's leaf marginal is averaged over its
// d−1 pairs CALM-style and the correction is pushed into every level.
type LHIO struct{}

// lhioRounds is the number of cross-pair consistency / Norm-Sub
// interleavings.
const lhioRounds = 2

// NewLHIO returns an LHIO baseline.
func NewLHIO() *LHIO { return &LHIO{} }

// Name implements mech.Mechanism.
func (*LHIO) Name() string { return "LHIO" }

type lhioEstimator struct {
	c, d   int
	tree   *hierarchy.Tree
	levels int
	// freq[pi][l1*levels+l2] is the level table of pair pi at d-dim level
	// (l1, l2): row-major counts[l1]×counts[l2] frequencies.
	freq [][][]float64
	wu   mwem.Options
}

// Fit implements mech.Mechanism as a thin wrapper over the protocol path.
func (m *LHIO) Fit(ds *dataset.Dataset, eps float64, rng *rand.Rand) (mech.Estimator, error) {
	return mech.FitViaProtocol(m, ds, eps, rng)
}

// lhioProtocol is LHIO's deployment face: one group per (pair, 2-D level),
// reporting the user's interval-pair index at that level. The (root, root)
// level's frequency is exactly 1, so its clients send empty reports that
// spend no budget — the group still exists to keep populations even.
type lhioProtocol struct {
	p       mech.Params
	tree    *hierarchy.Tree
	levels  int
	pairs   [][2]int
	as      *mech.Assigner
	oracles []fo.Oracle // indexed l1*levels+l2; nil for (root, root)
}

// Protocol implements mech.Mechanism.
func (m *LHIO) Protocol(p mech.Params) (mech.Protocol, error) {
	if err := p.Validate(2); err != nil {
		return nil, err
	}
	tree, err := hierarchy.New(hierarchyBranching, p.C)
	if err != nil {
		return nil, err
	}
	levels := tree.NumLevels()
	pairs := mech.AllPairs(p.D)
	numGroups := len(pairs) * levels * levels
	if numGroups > p.N {
		return nil, fmt.Errorf("baselines: LHIO needs %d groups but only has %d users", numGroups, p.N)
	}
	as, err := mech.NewAssigner(p.Seed, mech.EvenBounds(p.N, numGroups))
	if err != nil {
		return nil, err
	}
	// The oracle depends only on the level pair; all pairs share it.
	oracles := make([]fo.Oracle, levels*levels)
	for l1 := 0; l1 < levels; l1++ {
		for l2 := 0; l2 < levels; l2++ {
			k := tree.CountAt(l1) * tree.CountAt(l2)
			if k == 1 {
				continue
			}
			oracle, err := fo.NewAuto(p.Eps, k)
			if err != nil {
				return nil, err
			}
			oracles[l1*levels+l2] = oracle
		}
	}
	return &lhioProtocol{p: p, tree: tree, levels: levels, pairs: pairs, as: as, oracles: oracles}, nil
}

// Name implements mech.Protocol.
func (*lhioProtocol) Name() string { return "LHIO" }

// Params implements mech.Protocol.
func (pr *lhioProtocol) Params() mech.Params { return pr.p }

// NumGroups implements mech.Protocol.
func (pr *lhioProtocol) NumGroups() int { return len(pr.pairs) * pr.levels * pr.levels }

// split decomposes a group index into its pair and level-table indices.
func (pr *lhioProtocol) split(group int) (pi, ti int) {
	return group / (pr.levels * pr.levels), group % (pr.levels * pr.levels)
}

// Assignment implements mech.Protocol.
func (pr *lhioProtocol) Assignment(user int) (mech.Assignment, error) {
	g, err := pr.as.GroupOf(user)
	if err != nil {
		return mech.Assignment{}, err
	}
	pi, ti := pr.split(g)
	pair := pr.pairs[pi]
	domain := 0
	if o := pr.oracles[ti]; o != nil {
		domain = o.Domain()
	}
	return mech.Assignment{Group: g, Attr1: pair[0], Attr2: pair[1], Domain: domain}, nil
}

// ClientReport implements mech.Protocol.
func (pr *lhioProtocol) ClientReport(a mech.Assignment, record []int, rng *rand.Rand) (mech.Report, error) {
	if a.Group < 0 || a.Group >= pr.NumGroups() {
		return mech.Report{}, fmt.Errorf("baselines: assignment group %d outside [0,%d)", a.Group, pr.NumGroups())
	}
	if err := mech.CheckRecord(pr.p, record); err != nil {
		return mech.Report{}, err
	}
	pi, ti := pr.split(a.Group)
	oracle := pr.oracles[ti]
	if oracle == nil {
		// (root, root): the level total is known to be 1, nothing to report.
		return mech.Report{Group: a.Group}, nil
	}
	pair := pr.pairs[pi]
	l1, l2 := ti/pr.levels, ti%pr.levels
	k2 := pr.tree.CountAt(l2)
	i1 := pr.tree.IndexOf(l1, record[pair[0]])
	i2 := pr.tree.IndexOf(l2, record[pair[1]])
	return mech.FromFO(a.Group, oracle.Perturb(i1*k2+i2, rng)), nil
}

// NewCollector implements mech.Protocol: a streaming collector that folds
// each group's reports into its level table's count vector at ingest. Every
// LHIO group streams — the largest per-group domain is c², far under any
// cap — so refresh and finalize are flat in n.
func (pr *lhioProtocol) NewCollector() (mech.Collector, error) {
	check := func(r mech.Report) error {
		_, ti := pr.split(r.Group)
		oracle := pr.oracles[ti]
		if oracle == nil {
			if r.Seed != 0 || r.Value != 0 {
				return fmt.Errorf("baselines: LHIO root-level report must be empty")
			}
			return nil
		}
		return oracle.CheckReport(r.FO())
	}
	specs := make([]mech.GroupSpec, pr.NumGroups())
	for g := range specs {
		_, ti := pr.split(g)
		if o := pr.oracles[ti]; o != nil {
			specs[g] = mech.OracleSpec(o)
		}
		// (root, root) groups keep the zero spec: their reports are empty,
		// only the tally matters.
	}
	return mech.NewCountCollector(pr, check, specs, pr.estimate)
}

// estimate estimates every level table from one snapshot of the folded
// statistics, then runs the two consistency stages. The cost is
// O(groups × domain), flat in n.
func (pr *lhioProtocol) estimate(byGroup []mech.GroupCounts) (mech.Estimator, error) {
	d, n := pr.p.D, pr.p.N
	tree, levels, pairs := pr.tree, pr.levels, pr.pairs

	freq := make([][][]float64, len(pairs))
	variance := make([][]float64, len(pairs)) // per level table
	for pi := range pairs {
		freq[pi] = make([][]float64, levels*levels)
		variance[pi] = make([]float64, levels*levels)
		for ti := 0; ti < levels*levels; ti++ {
			oracle := pr.oracles[ti]
			if oracle == nil {
				// The (root, root) level is the whole domain: its
				// frequency is exactly 1 and needs no privacy budget.
				freq[pi][ti] = []float64{1}
				variance[pi][ti] = 1e-12
				continue
			}
			gc := &byGroup[pi*levels*levels+ti]
			freq[pi][ti] = oracle.EstimateCounts(gc.Counts, int(gc.N))
			variance[pi][ti] = oracle.Var(int(gc.N))
		}
	}

	// Stage 1: within-pair constrained inference, along attribute 1 for
	// every fixed attribute-2 node, then transposed.
	for pi := range pairs {
		for _, first := range []bool{true, false} {
			if err := ciAlong(tree, levels, freq[pi], variance[pi], first); err != nil {
				return nil, err
			}
		}
	}

	// Stage 2: cross-pair attribute consistency + Norm-Sub, interleaved.
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
	return &lhioEstimator{c: pr.p.C, d: d, tree: tree, levels: levels, freq: freq, wu: wu}, nil
}

// ciAlong runs constrained inference on one pair's level tables along one
// attribute, the first when first is set: for every level lo and node io of
// the other attribute, the nodes {(la, ia) × fixed (lo, io)} form a 1-D
// hierarchy.
func ciAlong(tree *hierarchy.Tree, levels int, tables [][]float64, variance []float64, first bool) error {
	// cell locates node (la, ia) of the inferred attribute crossed with
	// node (lo, io) of the other: its level table and its index there.
	cell := func(la, ia, lo, io int) (ti, j int) {
		if first {
			return la*levels + lo, ia*tree.CountAt(lo) + io
		}
		return lo*levels + la, io*tree.CountAt(la) + ia
	}
	x := make([][]float64, levels)
	for la := range x {
		x[la] = make([]float64, tree.CountAt(la))
	}
	v := make([]float64, levels)
	for lo := 0; lo < levels; lo++ {
		for io := 0; io < tree.CountAt(lo); io++ {
			for la, row := range x {
				ti, _ := cell(la, 0, lo, io)
				v[la] = variance[ti]
				for ia := range row {
					ti, j := cell(la, ia, lo, io)
					row[ia] = tables[ti][j]
				}
			}
			out, err := tree.ConstrainedInference(x, v)
			if err != nil {
				return err
			}
			for la, row := range out {
				for ia, f := range row {
					ti, j := cell(la, ia, lo, io)
					tables[ti][j] = f
				}
			}
		}
	}
	return nil
}

// crossPairConsistency averages attribute a's leaf marginal across the d−1
// pairs containing it and pushes each pair's correction uniformly into every
// level, preserving the within-pair parent/child consistency (averaging is
// linear and level marginals nest).
func crossPairConsistency(tree *hierarchy.Tree, levels int, pairs [][2]int, freq [][][]float64, a int) {
	h := tree.H()
	c := tree.CountAt(h)
	type site struct {
		pi    int
		first bool // a is the pair's first attribute
	}
	var sites []site
	for pi, pair := range pairs {
		if pair[0] == a {
			sites = append(sites, site{pi, true})
		} else if pair[1] == a {
			sites = append(sites, site{pi, false})
		}
	}
	if len(sites) < 2 {
		return
	}
	// Leaf marginal of a in each pair: level (H, 0) when first, (0, H) when
	// second — both are length-c tables.
	avg := make([]float64, c)
	margs := make([][]float64, len(sites))
	for si, s := range sites {
		var table []float64
		if s.first {
			table = freq[s.pi][h*levels+0]
		} else {
			table = freq[s.pi][0*levels+h]
		}
		margs[si] = table
		for j := 0; j < c; j++ {
			avg[j] += table[j]
		}
	}
	for j := range avg {
		avg[j] /= float64(len(sites))
	}
	for si, s := range sites {
		delta := make([]float64, c)
		for j := 0; j < c; j++ {
			delta[j] = avg[j] - margs[si][j]
		}
		deltaPrefix := mathx.Prefix1D(delta)
		for la := 0; la < levels; la++ {
			ka := tree.CountAt(la)
			w := tree.Width(la)
			for lo := 0; lo < levels; lo++ {
				ko := tree.CountAt(lo)
				var table []float64
				if s.first {
					table = freq[s.pi][la*levels+lo]
				} else {
					table = freq[s.pi][lo*levels+la]
				}
				for ia := 0; ia < ka; ia++ {
					d := (deltaPrefix[(ia+1)*w] - deltaPrefix[ia*w]) / float64(ko)
					if d == 0 {
						continue
					}
					for io := 0; io < ko; io++ {
						if s.first {
							table[ia*ko+io] += d
						} else {
							table[io*ka+ia] += d
						}
					}
				}
			}
		}
	}
}

// pair2D answers a 2-D query by canonical decomposition on both axes and
// summing the covered level-table entries. The decompositions fill arrays
// on the stack, so an answer allocates nothing (a range decomposes into at
// most 2(b−1) nodes per level: 36 at c = 1024).
func (e *lhioEstimator) pair2D(a, b int, pa, pb query.Pred) (float64, error) {
	pi, err := mech.PairIndex(e.d, a, b)
	if err != nil {
		return 0, err
	}
	var bufA, bufB [64]hierarchy.Node
	nodesA, err := e.tree.Decompose(bufA[:0], pa.Lo, pa.Hi)
	if err != nil {
		return 0, err
	}
	nodesB, err := e.tree.Decompose(bufB[:0], pb.Lo, pb.Hi)
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

// Answer implements mech.Estimator.
func (e *lhioEstimator) Answer(q query.Query) (float64, error) {
	f, _, err := mwem.Answer(q, e.d, e.c, nil, e.pair2D, e.wu)
	return f, err
}

// AnswerBatch implements mech.BatchEstimator (the level tables are frozen at
// Finalize, so concurrent Answer calls are pure reads).
func (e *lhioEstimator) AnswerBatch(qs []query.Query) ([]float64, error) {
	return mech.AnswerQueries(e, qs)
}
