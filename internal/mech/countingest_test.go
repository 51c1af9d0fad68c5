package mech

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// countProtocol returns the shared fake protocol plus specs counting each
// report's value into a 8-slot histogram per group.
func countSpecs(groups int) []GroupSpec {
	specs := make([]GroupSpec, groups)
	fold := func(r Report, counts []int64) { counts[r.Value%8]++ }
	for g := range specs {
		specs[g] = GroupSpec{Len: 8, Fold: fold}
	}
	return specs
}

func newCountIngest(t *testing.T, check func(Report) error) *CountIngest {
	t.Helper()
	pr := testProtocol()
	ci, err := NewCountIngest(pr, check, countSpecs(pr.NumGroups()))
	if err != nil {
		t.Fatal(err)
	}
	return ci
}

func TestCountIngestValidation(t *testing.T) {
	ci := newCountIngest(t, func(r Report) error {
		if r.Value > 10 {
			return fmt.Errorf("value too large")
		}
		return nil
	})
	if err := ci.Submit(Report{Group: 0, Value: 1}); err != nil {
		t.Fatal(err)
	}
	if err := ci.Submit(Report{Group: 3, Value: 1}); err == nil {
		t.Error("out-of-range group accepted")
	}
	if err := ci.Submit(Report{Group: -1, Value: 1}); err == nil {
		t.Error("negative group accepted")
	}
	if err := ci.Submit(Report{Group: 0, Value: 11}); err == nil {
		t.Error("failing check accepted")
	}
	// Batches are atomic: one bad report rejects the whole frame.
	if err := ci.SubmitBatch([]Report{{Group: 1, Value: 2}, {Group: 1, Value: 99}}); err == nil {
		t.Error("batch with failing report accepted")
	}
	if got := ci.Received(); got != 1 {
		t.Errorf("Received = %d after rejected batch, want 1", got)
	}
	counts, err := ci.DrainCounts()
	if err != nil {
		t.Fatal(err)
	}
	if counts[0].N != 1 || counts[0].Counts[1] != 1 {
		t.Errorf("group 0 statistic %+v, want one report in slot 1", counts[0])
	}
	if counts[1].N != 0 {
		t.Errorf("rejected batch leaked %d reports into group 1", counts[1].N)
	}
	if _, err := ci.DrainCounts(); err == nil {
		t.Error("second drain succeeded")
	}
	if err := ci.Submit(Report{Group: 0}); err == nil {
		t.Error("submit after drain accepted")
	}
}

func TestCountIngestSpecShape(t *testing.T) {
	pr := testProtocol()
	if _, err := NewCountIngest(pr, nil, countSpecs(pr.NumGroups()-1)); err == nil {
		t.Error("spec count mismatch accepted")
	}
	bad := countSpecs(pr.NumGroups())
	bad[0].Fold = nil
	if _, err := NewCountIngest(pr, nil, bad); err == nil {
		t.Error("positive-length spec without fold accepted")
	}
}

func TestCountIngestConcurrent(t *testing.T) {
	const workers, perWorker = 8, 500
	ci := newCountIngest(t, nil)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r := Report{Group: (w + i) % 3, Value: i % 8}
				if i%2 == 0 {
					_ = ci.Submit(r)
				} else {
					_ = ci.SubmitBatch([]Report{r})
				}
			}
		}(w)
	}
	wg.Wait()
	if got := ci.Received(); got != workers*perWorker {
		t.Fatalf("Received = %d, want %d", got, workers*perWorker)
	}
	counts, err := ci.DrainCounts()
	if err != nil {
		t.Fatal(err)
	}
	var n, slots int64
	for _, gc := range counts {
		n += gc.N
		for _, c := range gc.Counts {
			slots += c
		}
	}
	if n != workers*perWorker || slots != workers*perWorker {
		t.Fatalf("drained n=%d slot-sum=%d, want %d each", n, slots, workers*perWorker)
	}
}

func TestCountIngestStateSnapshotIsolated(t *testing.T) {
	ci := newCountIngest(t, nil)
	if err := ci.Submit(Report{Group: 1, Value: 4}); err != nil {
		t.Fatal(err)
	}
	st, err := ci.State()
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != StateVersionCounts {
		t.Fatalf("streaming state version %d, want %d", st.Version, StateVersionCounts)
	}
	if err := ci.Submit(Report{Group: 1, Value: 4}); err != nil {
		t.Fatal(err)
	}
	if st.Received() != 1 || st.Counts[1].Counts[4] != 1 {
		t.Fatalf("snapshot mutated by later ingestion: %+v", st.Counts)
	}
	if ci.Received() != 2 {
		t.Fatalf("Received = %d, want 2", ci.Received())
	}
}

func TestCountIngestMergePreconditions(t *testing.T) {
	mk := func() *CountIngest { return newCountIngest(t, nil) }
	base, err := mk().State()
	if err != nil {
		t.Fatal(err)
	}

	wrongVersion := base
	wrongVersion.Version = 99
	if err := mk().Merge(wrongVersion); err == nil {
		t.Error("wrong version merged")
	}
	wrongMech := base
	wrongMech.Mech = "Other"
	if err := mk().Merge(wrongMech); !errors.Is(err, ErrStateMismatch) {
		t.Errorf("wrong mech: got %v, want ErrStateMismatch", err)
	}
	wrongSeed := base
	wrongSeed.Params.Seed++
	if err := mk().Merge(wrongSeed); !errors.Is(err, ErrStateMismatch) {
		t.Errorf("wrong seed: got %v, want ErrStateMismatch", err)
	}
	wrongGroups := base
	wrongGroups.Counts = wrongGroups.Counts[:2]
	if err := mk().Merge(wrongGroups); !errors.Is(err, ErrStateMismatch) {
		t.Errorf("wrong group count: got %v, want ErrStateMismatch", err)
	}
	wrongLen := base
	wrongLen.Counts = append([]GroupCounts{}, base.Counts...)
	wrongLen.Counts[0] = GroupCounts{N: 0, Counts: make([]int64, 3)}
	if err := mk().Merge(wrongLen); !errors.Is(err, ErrStateMismatch) {
		t.Errorf("wrong count-vector length: got %v, want ErrStateMismatch", err)
	}
	negative := base
	negative.Counts = append([]GroupCounts{}, base.Counts...)
	negative.Counts[0] = GroupCounts{N: -1, Counts: make([]int64, 8)}
	if err := mk().Merge(negative); err == nil {
		t.Error("negative report tally merged")
	}

	// The v1 fold-in path vets reports with the same check Submit applies,
	// and a failure is atomic.
	checked := newCountIngest(t, func(r Report) error {
		if r.Value > 5 {
			return fmt.Errorf("value too large")
		}
		return nil
	})
	badV1 := CollectorState{
		Version: StateVersion, Mech: base.Mech, Params: base.Params,
		Groups: [][]Report{{{Group: 0, Value: 3}}, {{Group: 1, Value: 7}}, {}},
	}
	if err := checked.Merge(badV1); err == nil {
		t.Error("v1 state with failing report merged")
	}
	if checked.Received() != 0 {
		t.Errorf("partial v1 merge: %d reports landed", checked.Received())
	}
	// A v1 state must carry exactly the collector's groups: one too few or
	// one too many (even an empty one) is a mismatch, and nothing lands.
	for _, groups := range [][][]Report{
		{{{Group: 0, Value: 3}}, {{Group: 1, Value: 4}}},
		{{{Group: 0, Value: 3}}, {{Group: 1, Value: 4}}, {}, {}},
	} {
		ci := mk()
		v1 := CollectorState{Version: StateVersion, Mech: base.Mech, Params: base.Params, Groups: groups}
		if err := ci.Merge(v1); !errors.Is(err, ErrStateMismatch) {
			t.Errorf("v1 state with %d groups: got %v, want ErrStateMismatch", len(groups), err)
		}
		if ci.Received() != 0 {
			t.Errorf("v1 state with %d groups: %d reports landed", len(groups), ci.Received())
		}
	}

	// Finalized collectors refuse everything.
	done := mk()
	if _, err := done.DrainCounts(); err != nil {
		t.Fatal(err)
	}
	if _, err := done.State(); !errors.Is(err, ErrFinalized) {
		t.Errorf("State after drain: got %v, want ErrFinalized", err)
	}
	if err := done.Merge(base); !errors.Is(err, ErrFinalized) {
		t.Errorf("Merge after drain: got %v, want ErrFinalized", err)
	}
}

// TestCountIngestV1FoldEquivalence is the migration invariant at the store
// level: submitting reports directly and merging the same reports as a v1
// state drain to identical statistics.
func TestCountIngestV1FoldEquivalence(t *testing.T) {
	reports := []Report{
		{Group: 0, Value: 2}, {Group: 0, Value: 2}, {Group: 1, Value: 7},
		{Group: 2, Value: 0}, {Group: 0, Value: 5},
	}
	direct := newCountIngest(t, nil)
	if err := direct.SubmitBatch(reports); err != nil {
		t.Fatal(err)
	}

	grouped := make([][]Report, 3)
	for _, r := range reports {
		grouped[r.Group] = append(grouped[r.Group], r)
	}
	migrated := newCountIngest(t, nil)
	v1 := CollectorState{Version: StateVersion, Mech: "Fake", Params: testProtocol().p, Groups: grouped}
	if err := migrated.Merge(v1); err != nil {
		t.Fatal(err)
	}

	a, err := direct.DrainCounts()
	if err != nil {
		t.Fatal(err)
	}
	b, err := migrated.DrainCounts()
	if err != nil {
		t.Fatal(err)
	}
	for g := range a {
		if a[g].N != b[g].N {
			t.Fatalf("group %d: n %d vs %d", g, a[g].N, b[g].N)
		}
		for i := range a[g].Counts {
			if a[g].Counts[i] != b[g].Counts[i] {
				t.Fatalf("group %d slot %d: %d vs %d", g, i, a[g].Counts[i], b[g].Counts[i])
			}
		}
	}
}

// batchCountSpecs is countSpecs plus the batch-native fold, the shape real
// mechanisms wire through GroupSpec.FoldBatch.
func batchCountSpecs(groups int) []GroupSpec {
	specs := countSpecs(groups)
	for g := range specs {
		specs[g].FoldBatch = func(rs []Report, counts []int64) {
			for i := range rs {
				counts[rs[i].Value%8]++
			}
		}
	}
	return specs
}

// TestSubmitBatchPartitionIdentity is the batch-ingest invariant at the
// store level: any partition of a shuffled report multiset submitted
// through SubmitBatch drains bit-identical to per-report Submit — with and
// without a GroupSpec.FoldBatch, so the run-partitioned path, the Fold
// fallback, and the per-report path all agree.
func TestSubmitBatchPartitionIdentity(t *testing.T) {
	pr := testProtocol()
	reports := make([]Report, 999)
	for i := range reports {
		reports[i] = Report{Group: (i * 7) % pr.NumGroups(), Value: (i * 13) % 8}
	}
	want := func(specs []GroupSpec) []GroupCounts {
		ci, err := NewCountIngest(pr, nil, specs)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reports {
			if err := ci.Submit(r); err != nil {
				t.Fatal(err)
			}
		}
		counts, err := ci.DrainCounts()
		if err != nil {
			t.Fatal(err)
		}
		return counts
	}(countSpecs(pr.NumGroups()))

	for _, tc := range []struct {
		name  string
		specs []GroupSpec
	}{
		{"fold-only", countSpecs(pr.NumGroups())},
		{"fold-batch", batchCountSpecs(pr.NumGroups())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, chunk := range []int{1, 3, 64, len(reports)} {
				ci, err := NewCountIngest(pr, nil, tc.specs)
				if err != nil {
					t.Fatal(err)
				}
				for lo := 0; lo < len(reports); lo += chunk {
					hi := min(lo+chunk, len(reports))
					if err := ci.SubmitBatch(reports[lo:hi]); err != nil {
						t.Fatal(err)
					}
				}
				got, err := ci.DrainCounts()
				if err != nil {
					t.Fatal(err)
				}
				for g := range want {
					if got[g].N != want[g].N {
						t.Fatalf("chunk %d group %d: n %d, want %d", chunk, g, got[g].N, want[g].N)
					}
					for i := range want[g].Counts {
						if got[g].Counts[i] != want[g].Counts[i] {
							t.Fatalf("chunk %d group %d slot %d: %d, want %d",
								chunk, g, i, got[g].Counts[i], want[g].Counts[i])
						}
					}
				}
			}
		})
	}
}

// TestSubmitBatchSortedRuns covers the in-place fast path: a batch already
// in ascending group order folds without the scatter pass, identically to
// the shuffled path.
func TestSubmitBatchSortedRuns(t *testing.T) {
	pr := testProtocol()
	sorted := []Report{
		{Group: 0, Value: 1}, {Group: 0, Value: 2},
		{Group: 1, Value: 3}, {Group: 2, Value: 4}, {Group: 2, Value: 4},
	}
	ci, err := NewCountIngest(pr, nil, batchCountSpecs(pr.NumGroups()))
	if err != nil {
		t.Fatal(err)
	}
	if err := ci.SubmitBatch(sorted); err != nil {
		t.Fatal(err)
	}
	counts, err := ci.DrainCounts()
	if err != nil {
		t.Fatal(err)
	}
	if counts[0].N != 2 || counts[1].N != 1 || counts[2].N != 2 {
		t.Fatalf("sorted-run tallies %+v", counts)
	}
	if counts[0].Counts[1] != 1 || counts[0].Counts[2] != 1 || counts[2].Counts[4] != 2 {
		t.Fatalf("sorted-run histograms %+v", counts)
	}
}

// TestSubmitBatchZeroAlloc pins the warm batched ingest path end to end:
// once the partitioning scratch is pooled, SubmitBatch performs zero
// allocations per frame — the fold-side continuation of the server's
// zero-alloc decode pin.
func TestSubmitBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	pr := testProtocol()
	ci, err := NewCountIngest(pr, nil, batchCountSpecs(pr.NumGroups()))
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Report, 512)
	for i := range batch {
		batch[i] = Report{Group: (i * 5) % pr.NumGroups(), Value: i % 8}
	}
	if err := ci.SubmitBatch(batch); err != nil { // warm the scratch pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := ci.SubmitBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm SubmitBatch allocates %g objects/op, want 0", allocs)
	}
}

// BenchmarkSubmitBatch is the satellite regression benchmark: the batched
// path against the per-report Submit baseline, for a same-group frame (one
// run, one stripe acquisition) and a shuffled frame (counting-sort
// partition, still one acquisition per group).
func BenchmarkSubmitBatch(b *testing.B) {
	pr := testProtocol()
	const batch = 4096
	same := make([]Report, batch)
	shuffled := make([]Report, batch)
	for i := range same {
		same[i] = Report{Group: 1, Value: i % 8}
		shuffled[i] = Report{Group: (i * 5) % pr.NumGroups(), Value: i % 8}
	}
	run := func(b *testing.B, rs []Report, perReport bool) {
		ci, err := NewCountIngest(pr, nil, batchCountSpecs(pr.NumGroups()))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for done := 0; done < b.N; done += batch {
			k := batch
			if rem := b.N - done; rem < k {
				k = rem
			}
			if perReport {
				for i := 0; i < k; i++ {
					if err := ci.Submit(rs[i]); err != nil {
						b.Fatal(err)
					}
				}
			} else if err := ci.SubmitBatch(rs[:k]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("samegroup/perreport", func(b *testing.B) { run(b, same, true) })
	b.Run("samegroup/batch", func(b *testing.B) { run(b, same, false) })
	b.Run("shuffled/perreport", func(b *testing.B) { run(b, shuffled, true) })
	b.Run("shuffled/batch", func(b *testing.B) { run(b, shuffled, false) })
}

// TestShardedStripesIdentity is the sharded-counter invariant under -race:
// N concurrent submitters folding into a multi-stripe collector — through
// mixed Submit/SubmitBatch paths, with mid-stream SnapshotCounts/State cuts
// and v1/v2 Merges landing while the writers run — must drain bit-identical
// to a single-stripe collector over the same report multiset and merged
// states. Integer adds commute, so the stripe assignment must be
// unobservable in every read.
func TestShardedStripesIdentity(t *testing.T) {
	const workers, perWorker, stripes = 8, 600, 4
	pr := testProtocol()
	specs := batchCountSpecs(pr.NumGroups())
	sharded, err := newCountIngestStripes(pr, nil, specs, stripes)
	if err != nil {
		t.Fatal(err)
	}

	// Two fixed states to merge mid-stream: a v2 count state and a v1
	// report state, both from small side collectors.
	v2src, err := newCountIngestStripes(pr, nil, specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := v2src.SubmitBatch([]Report{{Group: 0, Value: 3}, {Group: 2, Value: 6}}); err != nil {
		t.Fatal(err)
	}
	v2state, err := v2src.State()
	if err != nil {
		t.Fatal(err)
	}
	v1state := CollectorState{
		Version: StateVersion, Mech: pr.Name(), Params: pr.Params(),
		Groups: [][]Report{{{Group: 0, Value: 1}}, {}, {{Group: 2, Value: 7}, {Group: 2, Value: 7}}},
	}

	perWorkerReports := func(w int) []Report {
		rs := make([]Report, perWorker)
		for i := range rs {
			rs[i] = Report{Group: (w*13 + i*7) % pr.NumGroups(), Value: (w + i*5) % 8}
		}
		return rs
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rs := perWorkerReports(w)
			switch w % 3 {
			case 0: // per-report path
				for _, r := range rs {
					if err := sharded.Submit(r); err != nil {
						t.Error(err)
						return
					}
				}
			case 1: // one big shuffled frame
				if err := sharded.SubmitBatch(rs); err != nil {
					t.Error(err)
				}
			default: // small chunks, exercising the single-report batch path too
				for lo := 0; lo < len(rs); lo += 17 {
					if err := sharded.SubmitBatch(rs[lo:min(lo+17, len(rs))]); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	// Merges land while the writers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := sharded.Merge(v2state); err != nil {
			t.Error(err)
		}
		if err := sharded.Merge(v1state); err != nil {
			t.Error(err)
		}
	}()
	// Mid-stream cuts: every snapshot must be internally consistent — the
	// test folds add exactly one slot count per report, so each group's
	// slot sum must equal its tally, whatever prefix of the writers it
	// caught.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			cut, err := sharded.SnapshotCounts()
			if err != nil {
				t.Error(err)
				return
			}
			for g, gc := range cut {
				var slots int64
				for _, c := range gc.Counts {
					slots += c
				}
				if slots != gc.N {
					t.Errorf("snapshot %d group %d: %d slot counts for %d reports", i, g, slots, gc.N)
					return
				}
			}
		}
	}()
	wg.Wait()

	// The single-stripe reference ingests the same multiset sequentially.
	single, err := newCountIngestStripes(pr, nil, specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		if err := single.SubmitBatch(perWorkerReports(w)); err != nil {
			t.Fatal(err)
		}
	}
	if err := single.Merge(v2state); err != nil {
		t.Fatal(err)
	}
	if err := single.Merge(v1state); err != nil {
		t.Fatal(err)
	}

	if got, want := sharded.Received(), single.Received(); got != want {
		t.Fatalf("sharded Received = %d, single-stripe %d", got, want)
	}
	// Compare through State (the snapshot path) first, then Drain.
	shardedState, err := sharded.State()
	if err != nil {
		t.Fatal(err)
	}
	singleState, err := single.State()
	if err != nil {
		t.Fatal(err)
	}
	for g := range singleState.Counts {
		a, b := shardedState.Counts[g], singleState.Counts[g]
		if a.N != b.N {
			t.Fatalf("state group %d: n %d vs %d", g, a.N, b.N)
		}
		for i := range b.Counts {
			if a.Counts[i] != b.Counts[i] {
				t.Fatalf("state group %d slot %d: %d vs %d", g, i, a.Counts[i], b.Counts[i])
			}
		}
	}
	got, err := sharded.DrainCounts()
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.DrainCounts()
	if err != nil {
		t.Fatal(err)
	}
	for g := range want {
		if got[g].N != want[g].N {
			t.Fatalf("drained group %d: n %d, want %d", g, got[g].N, want[g].N)
		}
		for i := range want[g].Counts {
			if got[g].Counts[i] != want[g].Counts[i] {
				t.Fatalf("drained group %d slot %d: %d, want %d", g, i, got[g].Counts[i], want[g].Counts[i])
			}
		}
	}
}

// TestSubmitZeroAlloc pins the sharded per-report write path: once the
// stripe-affine scratch is pooled, a warm Submit performs zero allocations
// — the stripes were pre-sized at construction, so folding never grows
// anything.
func TestSubmitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	pr := testProtocol()
	ci, err := newCountIngestStripes(pr, nil, batchCountSpecs(pr.NumGroups()), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ci.Submit(Report{Group: 1, Value: 2}); err != nil { // warm the scratch pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := ci.Submit(Report{Group: 1, Value: 3}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Submit allocates %g objects/op, want 0", allocs)
	}
}

// BenchmarkSubmitBatchContended measures the writer scaling of the sharded
// design: GOMAXPROCS goroutines all hammering frames at the same hot
// group, where the old per-group stripe mutex serialized every writer and
// the per-P stripes let them fold concurrently. Run under -cpu 1,2,4, its
// reports/s is the writer-scaling curve: it keeps growing with writers
// until the cores, not a lock, are the ceiling.
func BenchmarkSubmitBatchContended(b *testing.B) {
	pr := testProtocol()
	const batch = 512
	frame := make([]Report, batch)
	for i := range frame {
		frame[i] = Report{Group: 1, Value: i % 8} // one hot group
	}
	ci, err := NewCountIngest(pr, nil, batchCountSpecs(pr.NumGroups()))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := ci.SubmitBatch(frame); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
}

// retainSpecs is the capped-HIO shape at store level: group 0 streams,
// group 1 retains raw reports, group 2 is tally-only.
func retainSpecs() []GroupSpec {
	specs := countSpecs(3)
	specs[1] = GroupSpec{Retain: true}
	specs[2] = GroupSpec{}
	return specs
}

// TestCountIngestRetention covers the hybrid (v3) store: a retained group
// keeps its report multiset next to streamed siblings, snapshots share it
// immutably, states export v3, and Merge enforces shape per group — a
// retained group's state entry must carry reports, a streamed group's must
// carry counts.
func TestCountIngestRetention(t *testing.T) {
	if _, err := NewCountIngest(testProtocol(), nil, []GroupSpec{
		{Len: 8, Fold: func(Report, []int64) {}}, {Retain: true, Len: 8}, {},
	}); err == nil {
		t.Error("Retain spec with a fold length accepted")
	}

	mk := func() *CountIngest {
		ci, err := NewCountIngest(testProtocol(), nil, retainSpecs())
		if err != nil {
			t.Fatal(err)
		}
		return ci
	}
	ci := mk()
	reports := []Report{
		{Group: 0, Value: 2}, {Group: 1, Seed: 7, Value: 3},
		{Group: 1, Seed: 8, Value: 4}, {Group: 2, Value: 0},
	}
	if err := ci.SubmitBatch(reports); err != nil {
		t.Fatal(err)
	}
	st, err := ci.State()
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != StateVersionHybrid {
		t.Fatalf("retaining collector exports version %d, want %d", st.Version, StateVersionHybrid)
	}
	if len(st.Counts[1].Reports) != 2 || st.Counts[1].Counts != nil {
		t.Fatalf("retained group state %+v, want 2 reports and no counts", st.Counts[1])
	}
	if st.Counts[0].Counts == nil || st.Counts[0].Reports != nil {
		t.Fatalf("streamed group state %+v, want counts and no reports", st.Counts[0])
	}

	// Snapshots are isolated from later ingestion.
	snap, err := ci.SnapshotCounts()
	if err != nil {
		t.Fatal(err)
	}
	if err := ci.Submit(Report{Group: 1, Seed: 9, Value: 5}); err != nil {
		t.Fatal(err)
	}
	if len(snap[1].Reports) != 2 {
		t.Fatalf("snapshot sees %d retained reports after a later submit, want 2", len(snap[1].Reports))
	}

	// Merge shape checks, against a fresh sibling.
	badCounts := st
	badCounts.Counts = append([]GroupCounts{}, st.Counts...)
	badCounts.Counts[1] = GroupCounts{N: 2, Counts: []int64{1, 1}}
	if err := mk().Merge(badCounts); !errors.Is(err, ErrStateMismatch) {
		t.Errorf("counts into a retained group: got %v, want ErrStateMismatch", err)
	}
	badTally := st
	badTally.Counts = append([]GroupCounts{}, st.Counts...)
	badTally.Counts[1] = GroupCounts{N: 2} // tally with no reports to account for it
	if err := mk().Merge(badTally); !errors.Is(err, ErrStateMismatch) {
		t.Errorf("retained tally without reports: got %v, want ErrStateMismatch", err)
	}
	badReports := st
	badReports.Counts = append([]GroupCounts{}, st.Counts...)
	badReports.Counts[0] = GroupCounts{N: 1, Reports: []Report{{Group: 0, Value: 1}}}
	if err := mk().Merge(badReports); !errors.Is(err, ErrStateMismatch) {
		t.Errorf("reports into a streamed group: got %v, want ErrStateMismatch", err)
	}

	// A well-formed v3 merge and a v1 replay both land: drain equals direct
	// submission of the union multiset.
	other := mk()
	if err := other.Merge(st); err != nil {
		t.Fatal(err)
	}
	v1 := CollectorState{
		Version: StateVersion, Mech: st.Mech, Params: st.Params,
		Groups: [][]Report{{}, {{Group: 1, Seed: 10, Value: 6}}, {{Group: 2, Value: 0}}},
	}
	if err := other.Merge(v1); err != nil {
		t.Fatal(err)
	}
	got, err := other.DrainCounts()
	if err != nil {
		t.Fatal(err)
	}
	if got[0].N != 1 || got[0].Counts[2] != 1 {
		t.Fatalf("streamed group drained %+v", got[0])
	}
	if got[1].N != 3 || len(got[1].Reports) != 3 {
		t.Fatalf("retained group drained %+v, want 3 reports", got[1])
	}
	if got[2].N != 2 || got[2].Counts != nil {
		t.Fatalf("tally-only group drained %+v, want n=2 and no counts", got[2])
	}
}

// TestCountIngestMergeOrderIrrelevant pins the vector-add merge: shards
// merged in any order drain to the same statistic.
func TestCountIngestMergeOrderIrrelevant(t *testing.T) {
	shardReports := [][]Report{
		{{Group: 0, Value: 1}, {Group: 1, Value: 2}},
		{{Group: 1, Value: 3}},
		{{Group: 2, Value: 4}, {Group: 0, Value: 5}, {Group: 0, Value: 6}},
	}
	states := make([]CollectorState, len(shardReports))
	for i, rs := range shardReports {
		ci := newCountIngest(t, nil)
		if err := ci.SubmitBatch(rs); err != nil {
			t.Fatal(err)
		}
		st, err := ci.State()
		if err != nil {
			t.Fatal(err)
		}
		states[i] = st
	}
	drain := func(order []int) []GroupCounts {
		ci := newCountIngest(t, nil)
		for _, i := range order {
			if err := ci.Merge(states[i]); err != nil {
				t.Fatal(err)
			}
		}
		counts, err := ci.DrainCounts()
		if err != nil {
			t.Fatal(err)
		}
		return counts
	}
	a := drain([]int{0, 1, 2})
	b := drain([]int{2, 0, 1})
	for g := range a {
		if a[g].N != b[g].N {
			t.Fatalf("group %d: n %d vs %d across merge orders", g, a[g].N, b[g].N)
		}
		for i := range a[g].Counts {
			if a[g].Counts[i] != b[g].Counts[i] {
				t.Fatalf("group %d slot %d differs across merge orders", g, i)
			}
		}
	}
}
