package baselines

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"privmdr/internal/dataset"
	"privmdr/internal/fo"
	"privmdr/internal/hierarchy"
	"privmdr/internal/mech"
	"privmdr/internal/query"
)

// HIO is the hierarchy-based mechanism of Wang et al. (SIGMOD 2019) as
// described in Section 3.3: a d-dimensional hierarchy whose (h+1)^d d-dim
// levels each get their own user group reporting the user's d-dim interval
// through OLH. A query is answered by canonically decomposing every
// attribute's range and summing the noisy frequencies of the resulting
// d-dim intervals.
//
// HIO captures full correlation but collapses under its own group count:
// with c = 64 and d = 6 there are 4096 groups, so per-group populations —
// and with them the estimates — are poor. The paper reports it losing to
// even the uniform guess in most settings; reproducing that failure is the
// point of including it.
type HIO struct{}

// hioMaxCombos guards the Cartesian interval expansion per query: a query
// that decomposes into more d-dim intervals returns an error.
const hioMaxCombos = 1 << 21

// hioMaxStreamDomain caps the per-group enumeration domain the collector
// folds into a streamed count vector: 4096 = c² at c = 64, the largest
// domain LHIO ever enumerates. Streaming a group costs O(domain) memory for
// its vector plus O(domain) hash evaluations per folded report, so past a
// few thousand values the fold is strictly slower and hungrier than the
// report store it replaces. A d-dim level whose interval count exceeds the
// cap therefore falls back to retaining its raw reports — O(reports) memory
// and lazy, memoized estimates for that one group while every other group
// still streams — and the collector exports v3 (hybrid) states instead of
// v2. At c = 64 every group streams for d ≤ 2 and the shallow levels for
// higher d; the deepest level's domain is c^d, so no cap makes 64⁶
// enumerable. The cap is part of the state format: shards of a deployment
// agree on it because it is a constant.
const hioMaxStreamDomain = 4096

// hierarchyBranching is the branching factor of HIO's and LHIO's
// hierarchies, the paper's choice.
const hierarchyBranching = 4

// NewHIO returns an HIO baseline.
func NewHIO() *HIO { return &HIO{} }

// Name implements mech.Mechanism.
func (*HIO) Name() string { return "HIO" }

type hioKey struct {
	level int
	id    uint64
}

// hioEstimator answers queries over the snapshotted per-group statistics.
// A streamed group's folded support vector yields any interval's frequency
// as an O(1) lookup through EstimateOneCount; a retained group (domain past
// the streaming cap) keeps its raw reports and estimates on demand,
// memoized under a per-key sync.Once so concurrent Answer calls on distinct
// intervals never serialize — estimation is a pure function of the frozen
// snapshot, so whichever call wins a key computes the value every racer
// reads, and the estimator stays deterministic.
type hioEstimator struct {
	c, d     int
	tree     *hierarchy.Tree
	levels   int // levels per attribute (h+1)
	oracles  []*fo.OLH
	counts   [][]int64     // per group: folded support vector, nil iff retained
	ns       []int         // per group: report tally
	retained [][]fo.Report // per group: raw reports, non-nil iff retained

	memo sync.Map // hioKey → *hioMemo, retained groups only
}

// hioMemo is one retained interval's memoized estimate: the Once runs the
// O(n_g) report scan exactly once, and a racing Answer blocks only on its
// own key.
type hioMemo struct {
	once sync.Once
	f    float64
}

// Fit implements mech.Mechanism as a thin wrapper over the protocol path.
func (m *HIO) Fit(ds *dataset.Dataset, eps float64, rng *rand.Rand) (mech.Estimator, error) {
	return mech.FitViaProtocol(m, ds, eps, rng)
}

// hioProtocol is HIO's deployment face: one group per d-dimensional
// hierarchy level; a report encodes the user's whole record as the flat
// index of its d-dim interval at the group's level vector.
type hioProtocol struct {
	p       mech.Params
	tree    *hierarchy.Tree
	levels  int
	as      *mech.Assigner
	oracles []*fo.OLH // per group
	lvls    [][]int   // per group: the level vector decodeLevels yields
}

// Protocol implements mech.Mechanism.
func (*HIO) Protocol(p mech.Params) (mech.Protocol, error) {
	if err := p.Validate(1); err != nil {
		return nil, err
	}
	d, n, c := p.D, p.N, p.C
	tree, err := hierarchy.New(hierarchyBranching, c)
	if err != nil {
		return nil, err
	}
	levels := tree.NumLevels()
	// numGroups = levels^d, with overflow and feasibility guards.
	numGroups := 1
	for t := 0; t < d; t++ {
		if numGroups > n/levels+1 {
			return nil, fmt.Errorf("baselines: HIO needs %d^%d groups but only has %d users", levels, d, n)
		}
		numGroups *= levels
	}
	if numGroups > n {
		return nil, fmt.Errorf("baselines: HIO needs %d groups but only has %d users", numGroups, n)
	}
	as, err := mech.NewAssigner(p.Seed, mech.EvenBounds(n, numGroups))
	if err != nil {
		return nil, err
	}
	oracles := make([]*fo.OLH, numGroups)
	lvls := make([][]int, numGroups)
	for li := 0; li < numGroups; li++ {
		lvl := make([]int, d)
		decodeLevels(li, levels, lvl)
		lvls[li] = lvl
		// The d-dim level's domain is the product of its per-attribute
		// interval counts.
		domain := uint64(1)
		for _, l := range lvl {
			domain *= uint64(tree.CountAt(l))
			if domain > 1<<62 {
				return nil, fmt.Errorf("baselines: HIO level domain overflows (c=%d, d=%d)", c, d)
			}
		}
		oracle, err := fo.NewOLH(p.Eps, int(max64(domain, 2)))
		if err != nil {
			return nil, err
		}
		oracles[li] = oracle
	}
	return &hioProtocol{p: p, tree: tree, levels: levels, as: as, oracles: oracles, lvls: lvls}, nil
}

// Name implements mech.Protocol.
func (*hioProtocol) Name() string { return "HIO" }

// Params implements mech.Protocol.
func (pr *hioProtocol) Params() mech.Params { return pr.p }

// NumGroups implements mech.Protocol.
func (pr *hioProtocol) NumGroups() int { return len(pr.oracles) }

// Assignment implements mech.Protocol: the group's report reads the whole
// record (Attr1 < 0), over the level vector's product domain.
func (pr *hioProtocol) Assignment(user int) (mech.Assignment, error) {
	g, err := pr.as.GroupOf(user)
	if err != nil {
		return mech.Assignment{}, err
	}
	return mech.Assignment{Group: g, Attr1: -1, Attr2: -1, Domain: pr.oracles[g].Domain()}, nil
}

// ClientReport implements mech.Protocol.
func (pr *hioProtocol) ClientReport(a mech.Assignment, record []int, rng *rand.Rand) (mech.Report, error) {
	if a.Group < 0 || a.Group >= len(pr.oracles) {
		return mech.Report{}, fmt.Errorf("baselines: assignment group %d outside [0,%d)", a.Group, len(pr.oracles))
	}
	if err := mech.CheckRecord(pr.p, record); err != nil {
		return mech.Report{}, err
	}
	lvl := pr.lvls[a.Group]
	id := uint64(0)
	stride := uint64(1)
	for t := 0; t < pr.p.D; t++ {
		idx := pr.tree.IndexOf(lvl[t], record[t])
		id += uint64(idx) * stride
		stride *= uint64(pr.tree.CountAt(lvl[t]))
	}
	return mech.FromFO(a.Group, pr.oracles[a.Group].Perturb(int(id), rng)), nil
}

// NewCollector implements mech.Protocol: a streaming collector that folds
// each group's reports into its OLH support vector at ingest. Groups whose
// enumeration domain exceeds the streaming cap retain raw reports instead
// (see hioMaxStreamDomain): every group streams for d ≤ 2 at c = 64,
// while deeper hierarchies stream their shallow levels and retain the
// exploding ones.
func (pr *hioProtocol) NewCollector() (mech.Collector, error) {
	check := func(r mech.Report) error { return pr.oracles[r.Group].CheckReport(r.FO()) }
	specs := make([]mech.GroupSpec, len(pr.oracles))
	for g, o := range pr.oracles {
		if o.Domain() > hioMaxStreamDomain {
			specs[g] = mech.GroupSpec{Retain: true}
			continue
		}
		specs[g] = mech.OracleSpec(o)
	}
	return mech.NewCountCollector(pr, check, specs, pr.estimate)
}

// estimate builds the lazy estimator over the snapshotted statistics:
// streamed groups carry their folded support vectors, retained groups their
// raw reports. A query costs O(1) per streamed interval, flat in n.
func (pr *hioProtocol) estimate(byGroup []mech.GroupCounts) (mech.Estimator, error) {
	counts := make([][]int64, len(byGroup))
	ns := make([]int, len(byGroup))
	var retained [][]fo.Report
	for g := range byGroup {
		gc := &byGroup[g]
		ns[g] = int(gc.N)
		if gc.Counts != nil {
			counts[g] = gc.Counts
			continue
		}
		if retained == nil {
			retained = make([][]fo.Report, len(byGroup))
		}
		retained[g] = mech.FOReports(gc.Reports)
	}
	return &hioEstimator{
		c: pr.p.C, d: pr.p.D,
		tree: pr.tree, levels: pr.levels,
		oracles: pr.oracles,
		counts:  counts, ns: ns, retained: retained,
	}, nil
}

func decodeLevels(li, levels int, out []int) {
	for t := range out {
		out[t] = li % levels
		li /= levels
	}
}

func max64(a uint64, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Answer implements mech.Estimator. The decompositions and the odometer
// live in stack arrays, so an answer allocates nothing unless it outgrows
// them (d > 16, or more than 128 pieces) or fills a retained group's memo.
func (e *hioEstimator) Answer(q query.Query) (float64, error) {
	if err := q.Validate(e.d, e.c); err != nil {
		return 0, err
	}
	// Attribute t's canonical pieces are nodes[ends[t]:ends[t+1]], and the
	// odometer points choice[t] at one of them. An unqueried attribute takes
	// the full range, whose decomposition is the single root interval.
	var nodeBuf [128]hierarchy.Node
	var endBuf [17]int
	var choiceBuf [16]int
	nodes, ends, choice := nodeBuf[:0], append(endBuf[:0], 0), choiceBuf[:0]
	combos := 1
	for t := 0; t < e.d; t++ {
		lo, hi := 0, e.c-1
		for _, p := range q {
			if p.Attr == t {
				lo, hi = p.Lo, p.Hi
			}
		}
		var err error
		if nodes, err = e.tree.Decompose(nodes, lo, hi); err != nil {
			return 0, err
		}
		choice = append(choice, ends[t])
		ends = append(ends, len(nodes))
		combos *= ends[t+1] - ends[t]
		if combos > hioMaxCombos {
			return 0, fmt.Errorf("baselines: HIO query expands to more than %d d-dim intervals", hioMaxCombos)
		}
	}
	// Odometer over the Cartesian product of per-attribute pieces.
	ans := 0.0
	for {
		li := 0
		stride := 1
		id := uint64(0)
		idStride := uint64(1)
		for _, ci := range choice {
			node := nodes[ci]
			li += node.Level * stride
			stride *= e.levels
			id += uint64(node.Index) * idStride
			idStride *= uint64(e.tree.CountAt(node.Level))
		}
		var f float64
		if cs := e.counts[li]; cs != nil {
			// Streamed group: the folded vector already holds this
			// interval's support, so the estimate is an O(1) lookup and
			// needs no memo.
			f = e.oracles[li].EstimateOneCount(cs[id], e.ns[li])
		} else {
			key := hioKey{level: li, id: id}
			v, ok := e.memo.Load(key)
			if !ok {
				v, _ = e.memo.LoadOrStore(key, new(hioMemo))
			}
			m := v.(*hioMemo)
			m.once.Do(func() { m.f = e.oracles[li].EstimateOne(e.retained[li], id) })
			f = m.f
		}
		ans += f
		// Advance the odometer.
		t := 0
		for ; t < e.d; t++ {
			choice[t]++
			if choice[t] < ends[t+1] {
				break
			}
			choice[t] = ends[t]
		}
		if t == e.d {
			break
		}
	}
	return ans, nil
}

// AnswerBatch implements mech.BatchEstimator.
func (e *hioEstimator) AnswerBatch(qs []query.Query) ([]float64, error) {
	return mech.AnswerQueries(e, qs)
}
