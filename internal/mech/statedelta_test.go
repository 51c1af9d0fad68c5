package mech

import (
	"errors"
	"reflect"
	"testing"
)

// TestDiffStatesCounts pins the v2 delta semantics: cur − prev per group,
// and prev + delta == cur under the standard Merge.
func TestDiffStatesCounts(t *testing.T) {
	pr := testProtocol()
	ci, err := NewCountIngest(pr, nil, batchCountSpecs(pr.NumGroups()))
	if err != nil {
		t.Fatal(err)
	}
	submit := func(rs ...Report) {
		t.Helper()
		for _, r := range rs {
			if err := ci.Submit(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit(Report{Group: 0, Value: 2}, Report{Group: 1, Value: 5})
	prev, err := ci.State()
	if err != nil {
		t.Fatal(err)
	}
	submit(Report{Group: 0, Value: 2}, Report{Group: 2, Value: 7}, Report{Group: 2, Value: 7})
	cur, err := ci.State()
	if err != nil {
		t.Fatal(err)
	}

	delta, err := DiffStates(cur, prev)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Received() != 3 {
		t.Fatalf("delta carries %d reports, want 3", delta.Received())
	}
	if delta.Counts[0].N != 1 || delta.Counts[0].Counts[2] != 1 {
		t.Fatalf("group 0 delta = %+v, want one report in slot 2", delta.Counts[0])
	}
	if delta.Counts[1].N != 0 {
		t.Fatalf("group 1 delta = %+v, want empty", delta.Counts[1])
	}
	if delta.Counts[2].N != 2 || delta.Counts[2].Counts[7] != 2 {
		t.Fatalf("group 2 delta = %+v, want two reports in slot 7", delta.Counts[2])
	}

	// Reconstruction: a collector holding prev that merges the delta ends up
	// exactly at cur.
	downstream, err := NewCountIngest(pr, nil, batchCountSpecs(pr.NumGroups()))
	if err != nil {
		t.Fatal(err)
	}
	if err := downstream.Merge(prev); err != nil {
		t.Fatal(err)
	}
	if err := downstream.Merge(delta); err != nil {
		t.Fatal(err)
	}
	got, err := downstream.State()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cur) {
		t.Fatalf("prev + delta:\n got %+v\nwant %+v", got, cur)
	}
}

// TestDiffStatesZeroPrev: a zero-value prev means nothing was shipped yet,
// so the delta is the full current state.
func TestDiffStatesZeroPrev(t *testing.T) {
	cur := sampleCountState(t)
	delta, err := DiffStates(cur, CollectorState{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(delta, cur) {
		t.Fatalf("delta vs zero prev:\n got %+v\nwant %+v", delta, cur)
	}
}

func TestDiffStatesRejects(t *testing.T) {
	v2 := sampleCountState(t)
	v1 := sampleState(t)

	if _, err := DiffStates(v2, v1); !errors.Is(err, ErrStateMismatch) {
		t.Fatalf("diff across versions: err = %v, want ErrStateMismatch", err)
	}

	foreign := v2
	foreign.Params.Seed++
	if _, err := DiffStates(v2, foreign); !errors.Is(err, ErrStateMismatch) {
		t.Fatalf("diff across deployments: err = %v, want ErrStateMismatch", err)
	}

	// prev "ahead" of cur is not an earlier snapshot: group counts regressed.
	if _, err := DiffStates(v2, v2); err != nil {
		t.Fatalf("self-diff should be the empty delta, got %v", err)
	}
	ahead := sampleCountState(t)
	ahead.Counts[0].N += 5
	if _, err := DiffStates(v2, ahead); err == nil {
		t.Fatal("regressed v2 group accepted")
	}

	// v1 is input only: no collector exports it, so no pair of v1 states is
	// two State() exports of one collector — not even a state and itself.
	if _, err := DiffStates(v1, v1); err == nil {
		t.Fatal("v1 states diffed")
	}
	if _, err := DiffStates(v1, CollectorState{}); err == nil {
		t.Fatal("v1 state diffed against a zero prev")
	}

	malformed := v2
	malformed.Version = 9
	if _, err := DiffStates(malformed, v2); err == nil {
		t.Fatal("malformed cur accepted")
	}
	if _, err := DiffStates(v2, malformed); err == nil {
		t.Fatal("malformed prev accepted")
	}
}
