package privmdr_test

import (
	"bytes"
	"testing"

	"privmdr"
)

// snapshotState builds a small real collector state to wrap in snapshots.
func snapshotState(t testing.TB) privmdr.CollectorState {
	t.Helper()
	p := privmdr.Params{N: 50, D: 3, C: 16, Eps: 1.0, Seed: 210}
	proto, err := privmdr.ProtocolByName("Uni", p)
	if err != nil {
		t.Fatal(err)
	}
	coll, err := proto.NewCollector()
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 5; u++ {
		a, err := proto.Assignment(u)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := proto.ClientReport(a, []int{u % 16, 0, 15}, privmdr.ClientRand(p, u))
		if err != nil {
			t.Fatal(err)
		}
		if err := coll.Submit(rep); err != nil {
			t.Fatal(err)
		}
	}
	st, err := coll.(privmdr.StatefulCollector).State()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSnapshotCodec pins EncodeSnapshot/DecodeSnapshot round trips: the
// epoch-stamped wrapper restores both the state and the epoch counter, and
// a bare state (GET /state, finalize-once snapshots) passes through with
// epoch 0.
func TestSnapshotCodec(t *testing.T) {
	st := snapshotState(t)
	blob, err := privmdr.EncodeSnapshot(st, 7)
	if err != nil {
		t.Fatal(err)
	}
	back, epoch, err := privmdr.DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 7 || back.Received() != st.Received() {
		t.Fatalf("DecodeSnapshot = (epoch %d, %d reports), want (7, %d)", epoch, back.Received(), st.Received())
	}
	inner, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(blob, inner) {
		t.Fatal("snapshot wrapper does not embed the bare state encoding")
	}
	bare, epoch, err := privmdr.DecodeSnapshot(inner)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 0 || bare.Received() != st.Received() {
		t.Fatalf("bare DecodeSnapshot = (epoch %d, %d reports), want (0, %d)", epoch, bare.Received(), st.Received())
	}
}

// TestDecodeSnapshotRejects walks decodeSnapshot's error paths: truncated
// and versioned-wrong wrappers, corrupt epoch varints, and wrappers whose
// embedded state is garbage. None may be silently accepted — a replica that
// installed a half-read snapshot would serve wrong answers forever.
func TestDecodeSnapshotRejects(t *testing.T) {
	st := snapshotState(t)
	blob, err := privmdr.EncodeSnapshot(st, 7)
	if err != nil {
		t.Fatal(err)
	}
	magic := blob[:4] // "PMSS"
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"magic only", magic},
		{"bad wrapper version", append(append([]byte{}, magic...), 99)},
		{"missing epoch varint", blob[:5]},
		{"overflowing epoch varint", append(append([]byte{}, blob[:5]...),
			0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)},
		{"overlong epoch varint", overlongEpoch(blob)},
		{"missing state", blob[:6]},
		{"garbage state", append(append([]byte{}, blob[:6]...), 1, 2, 3)},
		{"truncated state", blob[:len(blob)-1]},
		{"trailing garbage", append(append([]byte{}, blob...), 0)},
		{"bare garbage", []byte("not a state")},
	}
	for _, tc := range cases {
		if _, _, err := privmdr.DecodeSnapshot(tc.data); err == nil {
			t.Errorf("%s: decoded successfully", tc.name)
		}
	}
}

// overlongEpoch rewrites a one-byte epoch wrapper's epoch as the two-byte
// varint 81 00: "PMSS" 01 81 00 <state>. Read leniently it is epoch 1, a
// second wire form for "PMSS" 01 01 <state>.
func overlongEpoch(blob []byte) []byte {
	return append(append(append([]byte{}, blob[:5]...), 0x81, 0x00), blob[6:]...)
}

// FuzzSnapshot is the snapshot codec's untrusted-input contract, matching
// the state, push-envelope and journal fuzzers: replicas decode "PMSS"
// blobs straight off the network (POST /v1/{t}/epoch, GET …/epoch/latest)
// and the aggregator reads them back out of its "PMAS" snapshot, so
// arbitrary bytes must never panic, and anything that decodes must
// re-encode byte-identically — through EncodeSnapshot for an epoch-stamped
// wrapper, through EncodeState for a bare state.
func FuzzSnapshot(f *testing.F) {
	st := snapshotState(f)
	wrapped, err := privmdr.EncodeSnapshot(st, 7)
	if err != nil {
		f.Fatal(err)
	}
	bare, err := privmdr.EncodeState(st)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wrapped)
	f.Add(bare)
	f.Add(overlongEpoch(wrapped))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, epoch, err := privmdr.DecodeSnapshot(data)
		if err != nil {
			return
		}
		var out []byte
		if bytes.HasPrefix(data, []byte("PMSS")) {
			out, err = privmdr.EncodeSnapshot(st, epoch)
		} else {
			out, err = privmdr.EncodeState(st)
		}
		if err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("round trip changed bytes: %x -> %x", data, out)
		}
	})
}
