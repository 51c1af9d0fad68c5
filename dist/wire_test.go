package dist

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"

	"privmdr"
	"privmdr/internal/httpapi"
)

// sampleDelta builds a real (v2) collector-state delta to embed in
// envelopes: two reports into a fresh Uni collector.
func sampleDelta(t testing.TB) privmdr.CollectorState {
	t.Helper()
	p := privmdr.Params{N: 10, D: 3, C: 16, Eps: 1.0, Seed: 210}
	proto, err := privmdr.ProtocolByName("Uni", p)
	if err != nil {
		t.Fatal(err)
	}
	coll, err := proto.NewCollector()
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 2; u++ {
		a, err := proto.Assignment(u)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := proto.ClientReport(a, []int{1, 2, 3}, privmdr.ClientRand(p, u))
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

func TestPushEnvelopeRoundTrip(t *testing.T) {
	env := PushEnvelope{Shard: "edge-7", Nonce: 1 << 50, Seq: 42, Delta: sampleDelta(t)}
	blob, err := env.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back PushEnvelope
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if back.Shard != env.Shard || back.Nonce != env.Nonce || back.Seq != env.Seq {
		t.Fatalf("round trip changed header: %+v", back)
	}
	if back.Delta.Received() != env.Delta.Received() {
		t.Fatalf("round trip changed delta: %d reports, want %d",
			back.Delta.Received(), env.Delta.Received())
	}
	re, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, blob) {
		t.Fatalf("envelope encoding is not canonical: %x != %x", re, blob)
	}
}

func TestPushEnvelopeRejects(t *testing.T) {
	delta := sampleDelta(t)
	// Nonce 7 keeps the header layout byte-addressable below:
	// good[0:5] magic+version, good[5] ID length, good[6] 's',
	// good[7] nonce, good[8] sequence, good[9:] the delta.
	good, err := PushEnvelope{Shard: "s", Nonce: 7, Seq: 1, Delta: delta}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	// Encoder-side validation.
	if _, err := (PushEnvelope{Shard: "", Nonce: 7, Seq: 1, Delta: delta}).MarshalBinary(); err == nil {
		t.Error("empty shard ID encoded")
	}
	if _, err := (PushEnvelope{Shard: strings.Repeat("x", maxShardID+1), Nonce: 7, Seq: 1, Delta: delta}).MarshalBinary(); err == nil {
		t.Error("oversized shard ID encoded")
	}
	if _, err := (PushEnvelope{Shard: "s", Seq: 1, Delta: delta}).MarshalBinary(); err == nil {
		t.Error("zero instance nonce encoded")
	}
	if _, err := (PushEnvelope{Shard: "s", Nonce: 7, Seq: 0, Delta: delta}).MarshalBinary(); err == nil {
		t.Error("zero sequence encoded")
	}
	if _, err := (PushEnvelope{Shard: "s", Nonce: 7, Seq: 1}).MarshalBinary(); err == nil {
		t.Error("zero-value delta encoded")
	}

	// Decoder-side rejection.
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated header", good[:3]},
		{"bad magic", append([]byte("XXXX"), good[4:]...)},
		{"bad version", append(append([]byte{}, good[:4]...), append([]byte{99}, good[5:]...)...)},
		{"truncated shard ID", good[:6]},
		{"zero-length shard ID", append(append([]byte{}, good[:5]...), 0)},
		{"oversized shard ID length", append(append([]byte{}, good[:5]...), 0xff, 0xff, 0x01)},
		{"overlong varint length", append(append([]byte{}, good[:5]...), 0x81, 0x00)},
		{"truncated at nonce", good[:7]},
		{"zero nonce", func() []byte {
			b := append(append([]byte{}, good[:7]...), 0)
			return append(b, good[8:]...)
		}()},
		{"zero sequence", func() []byte {
			b := append(append([]byte{}, good[:8]...), 0)
			return append(b, good[9:]...)
		}()},
		{"truncated delta", good[:len(good)-2]},
		{"trailing garbage", append(append([]byte{}, good...), 0)},
	}
	for _, tc := range cases {
		var env PushEnvelope
		if err := env.UnmarshalBinary(tc.data); err == nil {
			t.Errorf("%s: decoded successfully", tc.name)
		}
	}
}

// TestErrStatus pins the distributed error→HTTP-status contract, as
// httpapi.Status and httpapi.Code answer dist's errors: 413 for oversized
// bodies; 409 for sequencing, epoch and deployment conflicts, with the push
// verdict's code for the sequencing ones; 503 for a failed journal append;
// 502 for a failed aggregator leg; 400 for everything else — wrapped or not.
func TestErrStatus(t *testing.T) {
	journal := httpapi.Mark(fmt.Errorf("dist: journal: %w", os.ErrClosed), http.StatusServiceUnavailable)
	cases := []struct {
		name   string
		err    error
		status int
		code   string
	}{
		{"too large", &http.MaxBytesError{Limit: httpapi.MaxBody}, http.StatusRequestEntityTooLarge, ""},
		{"stale seq", ErrStaleSeq, http.StatusConflict, "stale"},
		{"wrapped stale seq", fmt.Errorf("dist: shard %q: %w", "s", ErrStaleSeq), http.StatusConflict, "stale"},
		{"seq gap", ErrSeqGap, http.StatusConflict, "gap"},
		{"wrapped seq gap", fmt.Errorf("dist: %w", ErrSeqGap), http.StatusConflict, "gap"},
		{"shard conflict", ErrShardConflict, http.StatusConflict, "conflict"},
		{"wrapped shard conflict", fmt.Errorf("dist: shard %q: %w", "s", ErrShardConflict), http.StatusConflict, "conflict"},
		{"stale epoch", ErrStaleEpoch, http.StatusConflict, ""},
		{"state mismatch", privmdr.ErrStateMismatch, http.StatusConflict, ""},
		{"wrapped state mismatch", fmt.Errorf("mech: %w", privmdr.ErrStateMismatch), http.StatusConflict, ""},
		{"finalized", privmdr.ErrCollectorFinalized, http.StatusConflict, ""},
		{"journal", journal, http.StatusServiceUnavailable, ""},
		{"wrapped journal", fmt.Errorf("tenant: %w", journal), http.StatusServiceUnavailable, ""},
		{"upstream", upstream(errors.New("dist: push rejected: 418 teapot")), http.StatusBadGateway, ""},
		{"upstream over seq gap", upstream(fmt.Errorf("dist: %w", ErrSeqGap)), http.StatusBadGateway, ""},
		{"malformed", errors.New("dist: push envelope truncated at header"), http.StatusBadRequest, ""},
	}
	for _, tc := range cases {
		if got := httpapi.Status(tc.err); got != tc.status {
			t.Errorf("%s: Status = %d, want %d", tc.name, got, tc.status)
		}
		if got := httpapi.Code(tc.err); got != tc.code {
			t.Errorf("%s: Code = %q, want %q", tc.name, got, tc.code)
		}
	}
}
