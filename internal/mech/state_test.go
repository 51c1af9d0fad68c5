package mech

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
)

// fakeProtocol is a minimal Protocol for exercising the collector-state
// machinery without dragging in a concrete mechanism.
type fakeProtocol struct {
	name   string
	p      Params
	groups int
}

func (f *fakeProtocol) Name() string   { return f.name }
func (f *fakeProtocol) Params() Params { return f.p }
func (f *fakeProtocol) NumGroups() int { return f.groups }
func (f *fakeProtocol) NewCollector() (Collector, error) {
	return nil, fmt.Errorf("fakeProtocol has no collector")
}
func (f *fakeProtocol) Assignment(user int) (Assignment, error) {
	return Assignment{Group: user % f.groups}, nil
}
func (f *fakeProtocol) ClientReport(a Assignment, record []int, rng *rand.Rand) (Report, error) {
	return Report{Group: a.Group}, nil
}

func testProtocol() *fakeProtocol {
	return &fakeProtocol{name: "Fake", p: Params{N: 100, D: 3, C: 8, Eps: 1.25, Seed: 77}, groups: 3}
}

// sampleState is a v1 (report) state of testProtocol's deployment. No
// collector exports v1 any more, so it is built directly.
func sampleState(t *testing.T) CollectorState {
	t.Helper()
	pr := testProtocol()
	return CollectorState{Version: StateVersion, Mech: pr.Name(), Params: pr.Params(), Groups: [][]Report{
		{{Group: 0, Seed: 12345, Value: 2}, {Group: 0, Value: 1}},
		{},
		{{Group: 2, Seed: 1 << 60, Value: 1 << 40}},
	}}
}

func TestCollectorStateBinaryRoundTrip(t *testing.T) {
	st := sampleState(t)
	if st.Received() != 3 {
		t.Fatalf("Received = %d, want 3", st.Received())
	}
	data, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back CollectorState
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, back) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, st)
	}
	// The encoding is canonical: re-encoding the decoded state reproduces
	// the input bytes exactly.
	again, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("re-encoding decoded state changed the bytes")
	}
}

func TestCollectorStateJSONRoundTrip(t *testing.T) {
	st := sampleState(t)
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back CollectorState
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, back) {
		t.Fatalf("JSON round trip mismatch:\n got %+v\nwant %+v", back, st)
	}
	if back.Version != StateVersion {
		t.Errorf("JSON dropped the version field: %d", back.Version)
	}
}

func TestCollectorStateDecodeRejectsMalformed(t *testing.T) {
	good, err := sampleState(t).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", []byte("PMC")},
		{"bad magic", append([]byte("XXXX"), good[4:]...)},
		{"bad version", append([]byte("PMCS\x03"), good[5:]...)},
		{"truncated mid-name", good[:7]},
		{"truncated params", good[:12]},
		{"truncated reports", good[:len(good)-2]},
		{"trailing bytes", append(append([]byte{}, good...), 0)},
		{"huge name length", append([]byte("PMCS\x01\xff\x01"), good[6:]...)},
		{"zero name length", append([]byte("PMCS\x01\x00"), good[6:]...)},
	}
	for _, tc := range cases {
		var st CollectorState
		if err := st.UnmarshalBinary(tc.data); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// A group-count or report-count far beyond the payload must be rejected
	// before allocation, and a report tagged with the wrong group rejected.
	var st CollectorState
	if err := st.UnmarshalBinary(good); err != nil {
		t.Fatal(err)
	}
	st.Groups[1] = append(st.Groups[1], Report{Group: 0})
	if _, err := st.MarshalBinary(); err == nil {
		t.Error("mis-tagged report encoded")
	}
}

func TestCollectorStateDecodeGroupCap(t *testing.T) {
	// A payload that backs every claimed group with a real zero byte would
	// still amplify ~24x into slice headers; the decoder stops at
	// maxStateGroups no matter how many bytes follow.
	head, err := CollectorState{
		Version: StateVersion, Mech: "X", Params: Params{N: 1, D: 1, C: 2, Eps: 1},
	}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	head = head[:len(head)-1] // strip the zero group count
	const groups = maxStateGroups + 1
	data := binary.AppendUvarint(head, uint64(groups))
	data = append(data, make([]byte, groups)...) // one empty group each
	var st CollectorState
	if err := st.UnmarshalBinary(data); err == nil {
		t.Fatal("state with too many groups decoded")
	}
	over := CollectorState{
		Version: StateVersion, Mech: "X", Params: Params{N: 1, D: 1, C: 2, Eps: 1},
		Groups: make([][]Report, groups),
	}
	if err := over.Validate(); err == nil {
		t.Fatal("state with too many groups validated")
	}
}

// sampleCountState builds a v2 state through the streaming store, with a
// signed slot to exercise the zigzag packing.
func sampleCountState(t *testing.T) CollectorState {
	t.Helper()
	pr := testProtocol()
	specs := []GroupSpec{
		{Len: 4, Fold: func(rs []Report, counts []int64) {
			for _, r := range rs {
				counts[r.Value%4] += 1 - 2*int64(r.Seed&1)
			}
		}},
		{Len: 4, Fold: func(rs []Report, counts []int64) {
			for _, r := range rs {
				counts[r.Value%4]++
			}
		}},
		{}, // tally-only group
	}
	ci, err := NewCountIngest(pr, nil, specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Report{
		{Group: 0, Seed: 1, Value: 2}, // folds -1 into slot 2
		{Group: 0, Value: 1},
		{Group: 1, Value: 3},
		{Group: 2, Value: 9},
	} {
		if err := ci.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	st, err := ci.State()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestCollectorStateV2BinaryRoundTrip(t *testing.T) {
	st := sampleCountState(t)
	if st.Received() != 4 {
		t.Fatalf("Received = %d, want 4", st.Received())
	}
	if st.Counts[0].Counts[2] != -1 {
		t.Fatalf("signed slot = %d, want -1", st.Counts[0].Counts[2])
	}
	data, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back CollectorState
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, back) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, st)
	}
	again, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("re-encoding decoded v2 state changed the bytes")
	}
}

func TestCollectorStateV2JSONRoundTrip(t *testing.T) {
	st := sampleCountState(t)
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back CollectorState
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, back) {
		t.Fatalf("JSON round trip mismatch:\n got %+v\nwant %+v", back, st)
	}
	if back.Version != StateVersionCounts {
		t.Errorf("JSON dropped the version: %d", back.Version)
	}
}

func TestCollectorStateV2RejectsMalformed(t *testing.T) {
	good, err := sampleCountState(t).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"truncated counts", good[:len(good)-1]},
		{"trailing bytes", append(append([]byte{}, good...), 0)},
		{"header only", good[:6]},
	}
	for _, tc := range cases {
		var st CollectorState
		if err := st.UnmarshalBinary(tc.data); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Validate-level shape violations: mixed shapes and negative tallies.
	mixed := sampleCountState(t)
	mixed.Groups = [][]Report{{}}
	if err := mixed.Validate(); err == nil {
		t.Error("v2 state with report groups validated")
	}
	neg := sampleCountState(t)
	neg.Counts = append([]GroupCounts{}, neg.Counts...)
	neg.Counts[0].N = -3
	if err := neg.Validate(); err == nil {
		t.Error("negative report tally validated")
	}
	if _, err := neg.MarshalBinary(); err == nil {
		t.Error("negative report tally encoded")
	}
	v1WithCounts := sampleState(t)
	v1WithCounts.Counts = []GroupCounts{{N: 1}}
	if err := v1WithCounts.Validate(); err == nil {
		t.Error("v1 state with count groups validated")
	}
}
