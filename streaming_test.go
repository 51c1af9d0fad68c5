package privmdr_test

import (
	"testing"

	"privmdr"
)

// TestV1StateMigratesIntoStreamingCollector is the warm-restart
// compatibility property: for every mechanism — all 7 stream now — a v1
// (report multiset) state — the shape pre-streaming snapshots carry —
// merged into a fresh collector finalizes bit-identical to the same reports
// submitted directly, and the collector's own exported state is the compact
// v2 shape.
func TestV1StateMigratesIntoStreamingCollector(t *testing.T) {
	ds := protocolDataset(t)
	qs, err := privmdr.RandomWorkload(15, 2, ds.D(), ds.C, 0.5, 33)
	if err != nil {
		t.Fatal(err)
	}
	streaming := map[string]bool{
		"Uni": true, "MSW": true, "CALM": true, "TDG": true, "HDG": true,
		"HIO": true, "LHIO": true,
	}
	for _, m := range privmdr.Mechanisms() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			t.Parallel()
			p := privmdr.Params{N: ds.N(), D: ds.D(), C: ds.C, Eps: 1.0, Seed: 104}
			proto, err := m.Protocol(p)
			if err != nil {
				t.Fatal(err)
			}
			reports := makeReports(t, proto, ds)

			// Direct path: submit everything, snapshot, finalize.
			direct, err := proto.NewCollector()
			if err != nil {
				t.Fatal(err)
			}
			if err := direct.SubmitBatch(reports); err != nil {
				t.Fatal(err)
			}
			exported, err := direct.(privmdr.StatefulCollector).State()
			if err != nil {
				t.Fatal(err)
			}
			wantVersion := 1
			if streaming[m.Name()] {
				wantVersion = 2
			}
			if exported.Version != wantVersion {
				t.Fatalf("%s exports state version %d, want %d", m.Name(), exported.Version, wantVersion)
			}
			want := answersOf(t, direct, qs)

			// Migration path: the same reports as a hand-built v1 state.
			grouped := make([][]privmdr.Report, proto.NumGroups())
			for g := range grouped {
				grouped[g] = []privmdr.Report{}
			}
			for _, r := range reports {
				grouped[r.Group] = append(grouped[r.Group], r)
			}
			v1 := privmdr.CollectorState{Version: 1, Mech: proto.Name(), Params: p, Groups: grouped}
			migrated, err := proto.NewCollector()
			if err != nil {
				t.Fatal(err)
			}
			if err := migrated.(privmdr.StatefulCollector).Merge(v1); err != nil {
				t.Fatal(err)
			}
			if got := migrated.Received(); got != len(reports) {
				t.Fatalf("migrated collector received %d, want %d", got, len(reports))
			}
			got := answersOf(t, migrated, qs)
			for i := range qs {
				if got[i] != want[i] {
					t.Fatalf("query %d: v1-migrated %v != streaming %v", i, got[i], want[i])
				}
			}
		})
	}
}

func answersOf(t *testing.T, coll privmdr.Collector, qs []privmdr.Query) []float64 {
	t.Helper()
	est, err := coll.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	out, err := privmdr.Answers(est, qs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStreamingSnapshotIsCompact pins the memory story the streaming
// collectors buy on the wire, for every mechanism. One deployment's
// encoded state after a quarter and after all of its reports has the same
// groups and count-vector lengths, with no group keeping reports, and its
// bytes grow by at most one per count slot plus one per group: a varint
// count gains at most one byte when it grows fourfold. The final state is
// also much smaller than the O(n) v1 multiset of the same reports. HIO
// runs at d = 2: at d = 3 and c = 64 its deepest groups pass the streaming
// cap and keep their reports, so its state grows with n by design.
func TestStreamingSnapshotIsCompact(t *testing.T) {
	const n = 80_000
	for _, tc := range []struct {
		mech string
		d    int
	}{{"Uni", 3}, {"MSW", 3}, {"CALM", 3}, {"HIO", 2}, {"LHIO", 3}, {"TDG", 3}, {"HDG", 3}} {
		t.Run(tc.mech, func(t *testing.T) {
			ds, err := privmdr.GenerateDataset("normal", privmdr.GenOptions{N: n, D: tc.d, C: 64, Seed: 4})
			if err != nil {
				t.Fatal(err)
			}
			p := privmdr.Params{N: n, D: tc.d, C: 64, Eps: 1.0, Seed: 105}
			proto, err := privmdr.ProtocolByName(tc.mech, p)
			if err != nil {
				t.Fatal(err)
			}
			reports := makeReports(t, proto, ds)
			coll, err := proto.NewCollector()
			if err != nil {
				t.Fatal(err)
			}
			snapshot := func(batch []privmdr.Report) (privmdr.CollectorState, []byte) {
				if err := coll.SubmitBatch(batch); err != nil {
					t.Fatal(err)
				}
				st, err := coll.(privmdr.StatefulCollector).State()
				if err != nil {
					t.Fatal(err)
				}
				blob, err := privmdr.EncodeState(st)
				if err != nil {
					t.Fatal(err)
				}
				return st, blob
			}
			quarter, quarterBlob := snapshot(reports[:n/4])
			full, fullBlob := snapshot(reports[n/4:])
			if len(full.Counts) != len(quarter.Counts) {
				t.Fatalf("state has %d groups after n reports, %d after n/4", len(full.Counts), len(quarter.Counts))
			}
			slots := 0
			for g, gc := range full.Counts {
				if len(gc.Reports) != 0 || len(quarter.Counts[g].Reports) != 0 {
					t.Fatalf("group %d keeps reports (%d after n/4, %d after n)", g, len(quarter.Counts[g].Reports), len(gc.Reports))
				}
				if len(gc.Counts) != len(quarter.Counts[g].Counts) {
					t.Fatalf("group %d has %d counts after n reports, %d after n/4", g, len(gc.Counts), len(quarter.Counts[g].Counts))
				}
				slots += len(gc.Counts)
			}
			if grown := len(fullBlob) - len(quarterBlob); grown > slots+len(full.Counts) {
				t.Errorf("state grew %d → %d bytes from n/4 to n reports, more than one per count slot (%d) plus one per group (%d)",
					len(quarterBlob), len(fullBlob), slots, len(full.Counts))
			}

			grouped := make([][]privmdr.Report, proto.NumGroups())
			for _, r := range reports {
				grouped[r.Group] = append(grouped[r.Group], r)
			}
			v1Blob, err := privmdr.EncodeState(privmdr.CollectorState{Version: 1, Mech: proto.Name(), Params: p, Groups: grouped})
			if err != nil {
				t.Fatal(err)
			}
			if len(fullBlob)*4 > len(v1Blob) {
				t.Fatalf("v2 snapshot %d bytes not substantially smaller than v1 %d bytes", len(fullBlob), len(v1Blob))
			}
			t.Logf("%d groups, %d count slots: %d bytes after n/4, %d after n (v1: %d)", len(full.Counts), slots, len(quarterBlob), len(fullBlob), len(v1Blob))
		})
	}
}
