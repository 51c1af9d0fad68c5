package mech

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Ingest is the seed's concurrency-safe O(n) report store. It validates and
// files reports by group under a mutex; because estimation downstream only
// ever counts reports, the order in which concurrent submitters interleave
// never changes the finalized estimator. Built with NewCollectorIngest it
// also carries the deployment identity, making it a StatefulCollector that
// exports v1 (report-multiset) states.
//
// No production collector uses it anymore — all 7 mechanisms stream
// through CountIngest (see NewCountCollector), which folds each report into
// its group's sufficient statistic and drops it (HIO retains raw reports
// only for the rare group whose domain exceeds its streaming cap, inside
// CountIngest). Ingest's only users are its own unit tests and the
// report-store columns of privmdr-bench -perf. The golden bit-identity
// tests do not use it: they keep verbatim seed copies of the report-path
// estimators in internal/{core,baselines}/streaming_test.go.
type Ingest struct {
	check    func(Report) error
	mechName string
	params   Params

	// received counts accepted reports. It is updated inside the locked
	// sections (so Drain sees an exact total) but read atomically, keeping
	// metrics polling off the ingestion lock entirely.
	received atomic.Int64

	mu      sync.Mutex
	byGroup [][]Report
	done    bool
}

// NewIngest prepares storage for the given number of groups. check, when
// non-nil, vets each report's payload (oracle domain, bucket range, …)
// before it is accepted; the group-range check is built in.
func NewIngest(groups int, check func(Report) error) *Ingest {
	return &Ingest{check: check, byGroup: make([][]Report, groups)}
}

// NewCollectorIngest is NewIngest bound to a protocol: the store covers
// pr.NumGroups() groups and its exported CollectorState carries the
// deployment identity (pr.Name(), pr.Params()), which is what Merge checks
// before accepting a foreign shard's state.
func NewCollectorIngest(pr Protocol, check func(Report) error) *Ingest {
	in := NewIngest(pr.NumGroups(), check)
	in.mechName = pr.Name()
	in.params = pr.Params()
	return in
}

// vet validates a report without taking the lock.
func (in *Ingest) vet(r Report) error {
	if r.Group < 0 || r.Group >= len(in.byGroup) {
		return fmt.Errorf("mech: report group %d outside [0,%d)", r.Group, len(in.byGroup))
	}
	if in.check != nil {
		if err := in.check(r); err != nil {
			return err
		}
	}
	return nil
}

// Submit ingests one report.
func (in *Ingest) Submit(r Report) error {
	if err := in.vet(r); err != nil {
		return err
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.done {
		return fmt.Errorf("mech: %w", ErrFinalized)
	}
	in.byGroup[r.Group] = append(in.byGroup[r.Group], r)
	in.received.Add(1)
	return nil
}

// SubmitBatch ingests a batch atomically: either every report is accepted
// or none is, so a malformed report in a network frame cannot leave the
// collector partially updated.
func (in *Ingest) SubmitBatch(rs []Report) error {
	for i, r := range rs {
		if err := in.vet(r); err != nil {
			return fmt.Errorf("mech: batch report %d: %w", i, err)
		}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.done {
		return fmt.Errorf("mech: %w", ErrFinalized)
	}
	for _, r := range rs {
		in.byGroup[r.Group] = append(in.byGroup[r.Group], r)
	}
	in.received.Add(int64(len(rs)))
	return nil
}

// Received reports how many reports have been accepted so far. It is a
// lock-free atomic read, so metrics polling never blocks hot-path submits.
func (in *Ingest) Received() int {
	return int(in.received.Load())
}

// Drain closes ingestion and hands the per-group reports to Finalize.
// It fails on the second call, which is what makes double-Finalize an
// error for every collector.
func (in *Ingest) Drain() ([][]Report, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.done {
		return nil, fmt.Errorf("mech: %w", ErrFinalized)
	}
	in.done = true
	return in.byGroup, nil
}

// Snapshot returns a point-in-time view of the per-group reports without
// closing ingestion — the read side of Estimate. Only the slice headers are
// copied: a filed report is written exactly once (inside the locked append)
// and never mutated, so a later append either writes beyond every existing
// snapshot's length or moves the group to a fresh backing array. The
// snapshot is therefore immutable while costing O(groups), not O(n) — which
// is what keeps re-estimating a large report store from doubling its heap.
func (in *Ingest) Snapshot() ([][]Report, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.done {
		return nil, fmt.Errorf("mech: %w", ErrFinalized)
	}
	groups := make([][]Report, len(in.byGroup))
	for g, rs := range in.byGroup {
		if len(rs) == 0 {
			// Empty groups stay non-nil so exported states encode exactly as
			// the former deep copy did.
			groups[g] = []Report{}
			continue
		}
		// Full slice expression: an append through the snapshot can never
		// write into the live store's backing array.
		groups[g] = rs[:len(rs):len(rs)]
	}
	return groups, nil
}

// State implements StatefulCollector: a snapshot of the reports accepted so
// far, stamped with the deployment identity. Ingestion may continue
// afterwards — the snapshot is unaffected.
func (in *Ingest) State() (CollectorState, error) {
	groups, err := in.Snapshot()
	if err != nil {
		return CollectorState{}, err
	}
	return CollectorState{Version: StateVersion, Mech: in.mechName, Params: in.params, Groups: groups}, nil
}

// Merge implements StatefulCollector: fold an exported state into this
// store. The state is vetted in full before anything is accepted — like
// SubmitBatch, a merge is atomic — and every report passes the same check
// Submit applies, so a corrupted snapshot cannot smuggle in payloads a
// live client could not send.
func (in *Ingest) Merge(st CollectorState) error {
	if st.Version == StateVersionCounts || st.Version == StateVersionHybrid {
		// A count vector cannot be unfolded back into the report multiset a
		// report-retaining collector needs, so the shapes are incompatible
		// by construction, not merely malformed.
		return fmt.Errorf("mech: count state (v%d) cannot merge into the report-retaining %s collector: %w",
			st.Version, in.mechName, ErrStateMismatch)
	}
	if st.Version != StateVersion {
		return fmt.Errorf("mech: unsupported collector state version %d", st.Version)
	}
	if st.Mech != in.mechName || st.Params != in.params {
		return fmt.Errorf("mech: state of %s deployment %+v cannot merge into %s deployment %+v: %w",
			st.Mech, st.Params, in.mechName, in.params, ErrStateMismatch)
	}
	if len(st.Groups) != len(in.byGroup) {
		return fmt.Errorf("mech: state has %d groups, collector has %d: %w",
			len(st.Groups), len(in.byGroup), ErrStateMismatch)
	}
	total := 0
	for g, rs := range st.Groups {
		for i, r := range rs {
			// One pass per report: the structural invariants (JSON states
			// arrive with no codec vetting; r.Group == g also implies the
			// group-range check) plus the same payload check Submit applies.
			if r.Group != g || r.Value < 0 {
				return fmt.Errorf("mech: state group %d report %d invalid (group %d, value %d)", g, i, r.Group, r.Value)
			}
			if in.check != nil {
				if err := in.check(r); err != nil {
					return fmt.Errorf("mech: state group %d report %d: %w", g, i, err)
				}
			}
		}
		total += len(rs)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.done {
		return fmt.Errorf("mech: %w", ErrFinalized)
	}
	for g, rs := range st.Groups {
		in.byGroup[g] = append(in.byGroup[g], rs...)
	}
	in.received.Add(int64(total))
	return nil
}
