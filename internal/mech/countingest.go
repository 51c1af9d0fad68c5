package mech

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// CountIngest is the ingest path of every collector in this module: it folds
// each report into its group's sufficient statistic — a fixed-size integer
// count vector — and drops the report. Collector memory is therefore
// O(stripes × groups × domain) regardless of how many users report, and
// Finalize reads the vectors instead of rescanning O(n) reports.
//
// Concurrency is sharded by writer, not by group: the collector keeps a
// small fixed pool of stripes (one per P up to a cap), each holding its own
// full set of per-group count vectors, and every Submit/SubmitBatch folds
// into a stripe chosen by a cheap P-affine index — the pooled scratch
// object a writer grabs carries the stripe it was minted for, and
// sync.Pool's per-P caching hands the same scratch (hence the same stripe)
// back to the same P. Two writers therefore only ever contend on a stripe
// mutex when the scheduler migrates one mid-burst; the hot path is an
// uncontended lock and a vector add, no matter how hot a single group is.
//
// The read side pays for that freedom at its own cadence:
// SnapshotCounts/DrainCounts/State take the lifecycle lock exclusively —
// submissions hold it shared across their folds, so the exclusive
// acquisition is a fence that waits out every in-flight write on every
// stripe — and then sum the stripes into the canonical per-group vectors,
// O(stripes × groups × domain) integer adds, flat in n. Bit-identity with a
// single-stripe collector is free: every statistic is a vector of commuting
// integer adds, so any assignment of reports to stripes sums to the same
// totals.
//
// Every mechanism's collector wraps CountIngest via NewCountCollector (HIO
// and LHIO since the hierarchy streamification; their per-level interval
// domains are enumerable after all). A group may instead be marked Retain —
// HIO's escape hatch for level vectors whose product domain exceeds its
// streaming cap — in which case its raw reports are kept in a single
// append-only store beside the stripes. CountIngest exports a v2 (count)
// state, or a v3 (hybrid) state when any group retains, and accepts v1
// (report) states as input only, replaying their reports through
// SubmitBatch, so pre-streaming snapshots still warm-restart.
type CountIngest struct {
	check    func(Report) error
	mechName string
	params   Params
	specs    []GroupSpec

	// retained[g] is non-nil iff specs[g].Retain: the group's append-only
	// raw report store. Appends run under the shared lifecycle lock plus the
	// group's own mutex; the exclusive fence (Snapshot/Drain/State/Merge)
	// waits appends out, and snapshots share the backing array by full slice
	// expression — a filed report is written once and never mutated.
	// Keeping one store per group (not per stripe) preserves the append-only
	// prefix property DiffStates' report-suffix deltas rely on.
	retained    []*retainedGroup
	hasRetained bool

	// received counts accepted reports. Updated inside the locked sections
	// (so Drain sees an exact total) but read atomically, keeping metrics
	// polling off the ingestion locks entirely.
	received atomic.Int64

	// mu fences lifecycle operations against submissions: Submit/SubmitBatch
	// hold it shared, Drain/Snapshot/State/Merge exclusively — the exclusive
	// acquisition is the consistency fence over all stripes. done is guarded
	// by mu.
	mu      sync.RWMutex
	done    bool
	stripes []countStripe

	// nextStripe deals stripe indices round-robin to freshly minted scratch
	// objects; after warm-up each P keeps re-using the scratch (and stripe)
	// it last released, so the counter is off the hot path.
	nextStripe atomic.Uint32

	// scratch recycles each writer's stripe affinity together with the
	// buffers its folds run through, so the warm ingest path performs zero
	// allocations per report or frame.
	scratch sync.Pool
}

// batchScratch is one writer's pooled state: the stripe its folds target,
// Submit's one-report run, and the buffers an unsorted SubmitBatch frame is
// counting-sorted through.
type batchScratch struct {
	stripe int       // index into CountIngest.stripes, fixed at mint time
	one    [1]Report // Submit's report, folded as a one-report run
	perm   []Report  // an unsorted frame, sorted into one run per group
	starts []int     // the sort's per-group write offsets, len groups
}

// countStripe is one writer's private copy of every group's statistic. The
// mutex serializes the rare case of two goroutines sharing a stripe (pool
// misses, P migration); the trailing pad keeps adjacent stripes' hot words
// on separate cache lines.
type countStripe struct {
	mu     sync.Mutex
	groups []stripeGroup
	_      [96]byte
}

// stripeGroup is one group's statistic within one stripe. counts is lazily
// sized on the stripe's first fold into the group (stripe 0, the merge
// target, is pre-sized at construction): a collector with large per-group
// domains only pays the O(groups × domain) footprint per stripe its writers
// actually touch.
type stripeGroup struct {
	n      int64
	counts []int64
}

// retainedGroup is the raw report store of one Retain-marked group.
type retainedGroup struct {
	mu      sync.Mutex
	reports []Report
}

// maxStripes caps the stripe pool: past a few dozen writers the read-side
// O(stripes × groups × domain) merge starts to matter more than residual
// lock contention, and memory is stripes × the single-collector footprint.
const maxStripes = 32

// defaultStripes sizes the pool to the runnable parallelism: there can be
// at most GOMAXPROCS concurrently folding writers, so more stripes than
// that only adds merge work.
func defaultStripes() int {
	n := runtime.GOMAXPROCS(0)
	if n > maxStripes {
		n = maxStripes
	}
	return max(n, 1)
}

// GroupSpec describes how one group's reports fold into its count vector:
// Len is the vector's length and Fold adds a run of (already vetted)
// same-group reports to it. A Len of 0 with a nil Fold marks a group whose
// reports carry no information beyond their arrival (Uni, LHIO's root level)
// — only the group's report tally is tracked.
//
// Retain marks a group that cannot stream: its reports are kept verbatim in
// an append-only per-group store instead of folding (Len must be 0 and Fold
// nil). This is the fallback for groups whose enumeration domain is too
// large for a count vector — HIO's deepest d-dim levels past its 4096-value
// streaming cap — and costs O(reports) memory for that group alone;
// every other group of the same collector still streams. A collector with
// any retained group exports v3 (hybrid) states instead of v2.
//
// Fold is the only fold: Submit hands it a one-report run, SubmitBatch one
// run per group per frame. The counts it leaves must not depend on where
// the report stream was cut into runs — every statistic in this module is
// a vector of commuting integer adds, so any implementation built on them
// qualifies. The run aliases the caller's frame or pooled scratch, so Fold
// must not keep it.
//
// Fold must be safe for concurrent calls that target distinct count
// vectors: the sharded write path folds the same group into different
// stripes from different writers at once. The oracle folds this module
// wires (OracleSpec) qualify — all their mutable state lives in the
// caller's vector, apart from OLH's value-hash table, built once behind a
// sync.Once.
type GroupSpec struct {
	Len    int
	Fold   func(run []Report, counts []int64)
	Retain bool
}

// NewCountIngest prepares a streaming store for pr's groups. check, when
// non-nil, vets each report's payload before it is folded (the group-range
// check is built in); specs must describe every group of the protocol.
// Stripes are sized to the runnable parallelism at construction.
func NewCountIngest(pr Protocol, check func(Report) error, specs []GroupSpec) (*CountIngest, error) {
	return newCountIngestStripes(pr, check, specs, defaultStripes())
}

// newCountIngestStripes is NewCountIngest with an explicit stripe count —
// the seam the sharded-vs-single-stripe identity tests pin bit-identity
// through.
func newCountIngestStripes(pr Protocol, check func(Report) error, specs []GroupSpec, stripes int) (*CountIngest, error) {
	if len(specs) != pr.NumGroups() {
		return nil, fmt.Errorf("mech: %d group specs for %d groups", len(specs), pr.NumGroups())
	}
	if stripes < 1 {
		return nil, fmt.Errorf("mech: %d count stripes", stripes)
	}
	ci := &CountIngest{
		check:    check,
		mechName: pr.Name(),
		params:   pr.Params(),
		specs:    specs,
		stripes:  make([]countStripe, stripes),
	}
	for g, spec := range specs {
		if spec.Len < 0 || (spec.Len > 0) != (spec.Fold != nil) {
			return nil, fmt.Errorf("mech: group %d spec has %d counts; a fold needs a positive length and vice versa", g, spec.Len)
		}
		if spec.Retain && spec.Len != 0 {
			return nil, fmt.Errorf("mech: group %d spec both retains reports and folds counts", g)
		}
	}
	// Stripe 0 — the merge and drain target — is pre-sized at construction;
	// the other stripes size each group's vector on the stripe's first fold
	// into it, so a collector with large domains only pays for the stripes
	// its writers touch. The zero-alloc warm guarantee still holds: a warm
	// writer's (stripe, group) vectors already exist.
	for s := range ci.stripes {
		ci.stripes[s].groups = make([]stripeGroup, len(specs))
	}
	for g, spec := range specs {
		if spec.Len > 0 {
			ci.stripes[0].groups[g].counts = make([]int64, spec.Len)
		}
		if spec.Retain {
			if ci.retained == nil {
				ci.retained = make([]*retainedGroup, len(specs))
			}
			ci.retained[g] = &retainedGroup{}
			ci.hasRetained = true
		}
	}
	ci.scratch.New = func() any {
		return &batchScratch{stripe: int(ci.nextStripe.Add(1)-1) % len(ci.stripes)}
	}
	return ci, nil
}

// countCollector is the Collector every protocol in this module returns: a
// CountIngest finished by the protocol's estimate function.
type countCollector struct {
	*CountIngest
	estimate func([]GroupCounts) (Estimator, error)
}

// NewCountCollector builds pr's collector: NewCountIngest over check and
// specs, whose Estimate runs estimate over a snapshot of the per-group
// statistics and whose Finalize runs it over the drained ones. Neither is
// written again, so the estimator may keep them. Because estimate sees only
// counts, an Estimate over a report prefix is bit-identical to a Finalize
// of a fresh collector fed that prefix; because both snapshot or drain
// first, even a count-free estimate (Uni) fails on a finalized collector.
func NewCountCollector(pr Protocol, check func(Report) error, specs []GroupSpec,
	estimate func([]GroupCounts) (Estimator, error)) (Collector, error) {
	ci, err := NewCountIngest(pr, check, specs)
	if err != nil {
		return nil, err
	}
	return &countCollector{CountIngest: ci, estimate: estimate}, nil
}

// Estimate implements Collector, leaving ingestion open.
func (c *countCollector) Estimate() (Estimator, error) {
	byGroup, err := c.SnapshotCounts()
	if err != nil {
		return nil, err
	}
	return c.estimate(byGroup)
}

// Finalize implements Collector, closing ingestion permanently.
func (c *countCollector) Finalize() (Estimator, error) {
	byGroup, err := c.DrainCounts()
	if err != nil {
		return nil, err
	}
	return c.estimate(byGroup)
}

// retainedOf returns group g's raw report store, or nil when g streams.
func (ci *CountIngest) retainedOf(g int) *retainedGroup {
	if !ci.hasRetained {
		return nil
	}
	return ci.retained[g]
}

// vet validates a report without taking any lock.
func (ci *CountIngest) vet(r Report) error {
	if r.Group < 0 || r.Group >= len(ci.specs) {
		return fmt.Errorf("mech: report group %d outside [0,%d)", r.Group, len(ci.specs))
	}
	if ci.check != nil {
		if err := ci.check(r); err != nil {
			return err
		}
	}
	return nil
}

// Submit ingests one report: it is vetted, then folded as a one-report run
// through the same path as SubmitBatch. The run lives in the pooled
// scratch, so a warm Submit allocates nothing, and a single report is
// already in group order, so it never pays the O(groups) sort.
func (ci *CountIngest) Submit(r Report) error {
	if err := ci.vet(r); err != nil {
		return err
	}
	sc := ci.scratch.Get().(*batchScratch)
	sc.one[0] = r
	err := ci.fold(sc.one[:], sc)
	ci.scratch.Put(sc)
	return err
}

// SubmitBatch ingests a batch atomically: every report is vetted before the
// first one folds, so a malformed report in a network frame cannot leave
// the collector partially updated. The folded result is bit-identical to
// submitting the reports one at a time in any order, on any stripe: every
// group statistic is a vector of commuting integer adds.
//
// A batch already in ascending group order — every one-report batch, every
// Uni frame — folds its maximal same-group runs in place.
// Any other batch is first counting-sorted by group into pooled scratch,
// so only the frames that need the sort pay its O(groups) term. The sort
// touches only the caller's batch and the scratch, so it runs before any
// lock is taken.
func (ci *CountIngest) SubmitBatch(rs []Report) error {
	for i, r := range rs {
		if err := ci.vet(r); err != nil {
			return fmt.Errorf("mech: batch report %d: %w", i, err)
		}
	}
	sc := ci.scratch.Get().(*batchScratch)
	runs := rs
	for i := 1; i < len(rs); i++ {
		if rs[i].Group < rs[i-1].Group {
			runs = ci.sortByGroup(rs, sc)
			break
		}
	}
	err := ci.fold(runs, sc)
	if cap(sc.perm) > maxPooledRunScratch {
		// One oversized frame must not pin O(frame) scratch on the collector
		// forever; outsized buffers go back to the GC and normal-sized
		// frames stay zero-alloc.
		sc.perm = nil
	}
	ci.scratch.Put(sc)
	return err
}

// fold folds vetted reports in ascending group order into sc's stripe under
// one stripe acquisition, one Fold call per maximal same-group run.
func (ci *CountIngest) fold(runs []Report, sc *batchScratch) error {
	ci.mu.RLock()
	if ci.done {
		ci.mu.RUnlock()
		return fmt.Errorf("mech: %w", ErrFinalized)
	}
	st := &ci.stripes[sc.stripe]
	st.mu.Lock()
	for lo := 0; lo < len(runs); {
		g, hi := runs[lo].Group, lo+1
		for hi < len(runs) && runs[hi].Group == g {
			hi++
		}
		run := runs[lo:hi]
		lo = hi
		if rg := ci.retainedOf(g); rg != nil {
			// A retained group's store is group-global, not striped (its lock
			// nests inside the stripe's; nothing takes them the other way
			// round). The append copies the run out of the caller's frame or
			// the pooled sort buffer.
			rg.mu.Lock()
			rg.reports = append(rg.reports, run...)
			rg.mu.Unlock()
			continue
		}
		grp := &st.groups[g]
		grp.n += int64(len(run))
		if spec := &ci.specs[g]; spec.Fold != nil {
			if grp.counts == nil {
				grp.counts = make([]int64, spec.Len)
			}
			spec.Fold(run, grp.counts)
		}
	}
	st.mu.Unlock()
	ci.received.Add(int64(len(runs)))
	ci.mu.RUnlock()
	return nil
}

// sortByGroup stably counting-sorts a vetted batch by group into the pooled
// sc.perm — O(len(rs) + groups), zero allocations warm — so each group's
// reports form one run in the batch's relative order.
func (ci *CountIngest) sortByGroup(rs []Report, sc *batchScratch) []Report {
	numG := len(ci.specs)
	if cap(sc.starts) < numG {
		sc.starts = make([]int, numG)
	}
	next := sc.starts[:numG]
	clear(next)
	for i := range rs {
		next[rs[i].Group]++
	}
	at := 0
	for g, n := range next {
		next[g] = at
		at += n
	}
	if cap(sc.perm) < len(rs) {
		sc.perm = make([]Report, len(rs))
	}
	perm := sc.perm[:len(rs)]
	for i := range rs {
		g := rs[i].Group
		perm[next[g]] = rs[i]
		next[g]++
	}
	return perm
}

// Received reports how many reports have been accepted so far. It is a
// lock-free atomic read, so metrics polling never blocks hot-path submits.
func (ci *CountIngest) Received() int {
	return int(ci.received.Load())
}

// DrainCounts closes ingestion and hands the per-group statistics to
// Finalize. It fails on the second call, which is what makes double-
// Finalize an error for every collector. The exclusive lock fences every
// stripe; the deferred merge folds stripes 1..k into stripe 0's vectors
// (O(stripes × groups × domain) integer adds) and transfers those —
// nothing is copied beyond the merge itself.
func (ci *CountIngest) DrainCounts() ([]GroupCounts, error) {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	if ci.done {
		return nil, fmt.Errorf("mech: %w", ErrFinalized)
	}
	ci.done = true
	base := ci.stripes[0].groups
	out := make([]GroupCounts, len(ci.specs))
	for g := range ci.specs {
		if rg := ci.retainedOf(g); rg != nil {
			// Retained groups hand over their raw store; ingestion is closed,
			// so ownership transfers without a copy.
			out[g] = GroupCounts{N: int64(len(rg.reports)), Reports: rg.reports}
			rg.reports = nil
			continue
		}
		grp := &base[g]
		for s := 1; s < len(ci.stripes); s++ {
			o := &ci.stripes[s].groups[g]
			grp.n += o.n
			for i, c := range o.counts {
				grp.counts[i] += c
			}
			o.counts = nil
		}
		// Ownership transfers: ingestion is closed, so handing the merged
		// stripe-0 vectors over copies nothing.
		out[g] = GroupCounts{N: grp.n, Counts: grp.counts}
		grp.counts = nil
	}
	return out, nil
}

// SnapshotCounts returns a deep copy of the per-group statistics without
// closing ingestion — the read side of Estimate. The exclusive lock waits
// out in-flight submissions on every stripe (they hold the shared lock
// across their folds), so the stripe sum is a consistent point-in-time cut:
// it contains exactly the reports whose Submit/SubmitBatch completed before
// the snapshot, and with a single submitter that cut is always a prefix of
// the submission order. The copy costs O(stripes × groups × domain) — flat
// in n, which is what makes continuous re-estimation affordable for
// streaming collectors.
func (ci *CountIngest) SnapshotCounts() ([]GroupCounts, error) {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	if ci.done {
		return nil, fmt.Errorf("mech: %w", ErrFinalized)
	}
	counts := make([]GroupCounts, len(ci.specs))
	for g := range ci.specs {
		if rg := ci.retainedOf(g); rg != nil {
			// A filed report is written exactly once (inside the locked
			// append) and never mutated, so sharing the backing array by full
			// slice expression yields an immutable snapshot at O(1).
			rs := rg.reports[:len(rg.reports):len(rg.reports)]
			counts[g] = GroupCounts{N: int64(len(rs)), Reports: rs}
			continue
		}
		gc := GroupCounts{}
		if ci.specs[g].Len > 0 {
			gc.Counts = make([]int64, ci.specs[g].Len)
		}
		for s := range ci.stripes {
			grp := &ci.stripes[s].groups[g]
			gc.N += grp.n
			for i, c := range grp.counts {
				gc.Counts[i] += c
			}
		}
		counts[g] = gc
	}
	return counts, nil
}

// State implements StatefulCollector: a deep snapshot of the per-group
// statistics, stamped with the deployment identity as a v2 (count) state —
// or a v3 (hybrid) state when any group retains raw reports. Ingestion may
// continue afterwards — the snapshot is unaffected.
func (ci *CountIngest) State() (CollectorState, error) {
	counts, err := ci.SnapshotCounts()
	if err != nil {
		return CollectorState{}, err
	}
	version := StateVersionCounts
	if ci.hasRetained {
		version = StateVersionHybrid
	}
	return CollectorState{Version: version, Mech: ci.mechName, Params: ci.params, Counts: counts}, nil
}

// Merge implements StatefulCollector: fold an exported state into this
// store. A v2 state of the same deployment merges as an element-wise vector
// add into stripe 0 under the exclusive fence — which stripe is irrelevant,
// the adds commute into the same read-time sum; a v3 state merges the same
// way, with each retained group's report multiset appended to the local
// group's store (retention configuration must agree: a state that retains a
// group this collector streams — or vice versa — is an ErrStateMismatch,
// since shards of one deployment share the streaming cap). A v1 report
// state, the warm-restart input for snapshots written before the collector
// switched to streaming, must carry exactly the collector's groups; its
// reports, joined in group order, then go through SubmitBatch like any
// frame. Either way the state is vetted in full before anything lands, so a
// merge is atomic like SubmitBatch.
func (ci *CountIngest) Merge(st CollectorState) error {
	// States may arrive from codec-free transports (JSON), so structural
	// validation cannot be assumed.
	if err := st.Validate(); err != nil {
		return err
	}
	if st.Mech != ci.mechName || st.Params != ci.params {
		return fmt.Errorf("mech: state of %s deployment %+v cannot merge into %s deployment %+v: %w",
			st.Mech, st.Params, ci.mechName, ci.params, ErrStateMismatch)
	}
	if st.Version == StateVersion {
		if len(st.Groups) != len(ci.specs) {
			return fmt.Errorf("mech: state has %d groups, collector has %d: %w",
				len(st.Groups), len(ci.specs), ErrStateMismatch)
		}
		return ci.SubmitBatch(slices.Concat(st.Groups...))
	}
	if len(st.Counts) != len(ci.specs) {
		return fmt.Errorf("mech: state has %d groups, collector has %d: %w",
			len(st.Counts), len(ci.specs), ErrStateMismatch)
	}
	total := int64(0)
	for g, gc := range st.Counts {
		if ci.retainedOf(g) != nil {
			// A retained group merges by report multiset: the incoming tally
			// must be fully accounted for by carried reports (a v2 state
			// cannot carry any, so it may only claim an empty retained
			// group), and the reports pass the same check Submit applies.
			if len(gc.Counts) != 0 {
				return fmt.Errorf("mech: state group %d carries %d counts, collector retains that group's reports: %w",
					g, len(gc.Counts), ErrStateMismatch)
			}
			if gc.N != int64(len(gc.Reports)) {
				return fmt.Errorf("mech: state group %d tallies %d reports but carries %d for the retained group: %w",
					g, gc.N, len(gc.Reports), ErrStateMismatch)
			}
			if ci.check != nil {
				for i, r := range gc.Reports {
					if err := ci.check(r); err != nil {
						return fmt.Errorf("mech: state group %d report %d: %w", g, i, err)
					}
				}
			}
		} else {
			if len(gc.Reports) != 0 {
				return fmt.Errorf("mech: state group %d retains %d reports, collector streams that group: %w",
					g, len(gc.Reports), ErrStateMismatch)
			}
			if len(gc.Counts) != ci.specs[g].Len {
				return fmt.Errorf("mech: state group %d carries %d counts, collector folds %d: %w",
					g, len(gc.Counts), ci.specs[g].Len, ErrStateMismatch)
			}
		}
		total += gc.N
	}
	ci.mu.Lock()
	defer ci.mu.Unlock()
	if ci.done {
		return fmt.Errorf("mech: %w", ErrFinalized)
	}
	for g, gc := range st.Counts {
		if rg := ci.retainedOf(g); rg != nil {
			// The append copies out of the state's slice, so the local store
			// never aliases a snapshot a peer may still hold.
			rg.reports = append(rg.reports, gc.Reports...)
			continue
		}
		grp := &ci.stripes[0].groups[g]
		grp.n += gc.N
		for i, c := range gc.Counts {
			grp.counts[i] += c
		}
	}
	ci.received.Add(total)
	return nil
}
