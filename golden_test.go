package privmdr_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"privmdr"
)

// TestDeploymentStateGolden pins the wire contract between clients and an
// aggregator built from different revisions. Every other streaming pin runs
// both sides through the same protocol, so a change to the user → group
// assignment or to a group's cell encoding would pass them and surface only
// as old clients' reports folding into the wrong cells of a new
// aggregator. Here each mechanism runs one small fixed deployment, and two
// SHA-256 digests must match constants recorded when the contract last
// changed: one over every user's Assignment, one over the binary encoding
// of the collector state after every simulated client reported.
// An intended change to either contract is a wire-version change and must
// re-record its constants.
func TestDeploymentStateGolden(t *testing.T) {
	ds, err := privmdr.GenerateDataset("normal", privmdr.GenOptions{N: 6000, D: 3, C: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	p := privmdr.Params{N: ds.N(), D: ds.D(), C: ds.C, Eps: 1.0, Seed: 9}
	hdgOverrides := privmdr.NewHDGWithOptions(privmdr.Options{G1: 8, G2: 2, Sigma: 0.3})
	cases := []struct {
		name        string
		mech        privmdr.Mechanism
		assignments string
		state       string
	}{
		{"Uni", mustMechanism(t, "Uni"),
			"c88a0d45914924ede0331aa9f1f1d613eabb2e7c0cf5fd3e3b8c9616054e808b",
			"b00964a42a003419dfb1b91a009d757738da44b589ce30d343f38931ce3194dc"},
		{"MSW", mustMechanism(t, "MSW"),
			"8dd22ebddf1b9401326c9b9a36a089d35e5da9941fb0fcc38c8969675b52f53f",
			"d715f5b622cee5ef4f4b2d1fab5ba38829442bbca2e520b6d10c29b55a5569f8"},
		{"CALM", mustMechanism(t, "CALM"),
			"50db57af1f1f4a73f7819eb4d42780ffa1a40a37377da22d5a5575c438dad5cd",
			"b2ff0d60283a505ebddb2801d4fee8d73fac2d84b85aa6cf5b775da777327326"},
		{"HIO", mustMechanism(t, "HIO"),
			"eadc58c1ac57db508aef1b75f196753061c0c33cd363a5f2cdfacbe02be8fc2d",
			"6f4a7d17ada41b2f8c510b640b739588905da86b531e3c0070f9753d513f7729"},
		{"LHIO", mustMechanism(t, "LHIO"),
			"16d5e9763989dd45509fd5744a5a2c87bc036b25854fef4138c370395a8073c0",
			"1a8366d1501ebfdbb6a2b931fd81b877cca61791bbea3b27b18000c922ff63bd"},
		{"TDG", mustMechanism(t, "TDG"),
			"62abaa914de2136e449dbba344d9d33ee34a9337f128eba89f427cd2425d6fc8",
			"ab371c36f1cfe51e54f26520fbb929df5f278c7adb03a117fe0ec419efa02a8f"},
		{"ITDG", mustMechanism(t, "ITDG"),
			"62abaa914de2136e449dbba344d9d33ee34a9337f128eba89f427cd2425d6fc8",
			"7a1ac75d73da67792ac9bf1e0c89c647071ebfb99829c23b05198d4a13f0eefa"},
		{"HDG", mustMechanism(t, "HDG"),
			"c51ddd7fb8ad4c850aaca3ee785df859b0e0406331ecd2eecfc084e1e4fa43d5",
			"1a4e8a10794f354adaf822a65bff965fb9155056f5fa0dfc8380ecea2f81be5c"},
		{"IHDG", mustMechanism(t, "IHDG"),
			"c51ddd7fb8ad4c850aaca3ee785df859b0e0406331ecd2eecfc084e1e4fa43d5",
			"d7b3a420243214bf37365593d13e1c43994fcf58dc0ff971241981cf09ef26e1"},
		{"HDG-overrides", hdgOverrides,
			"0a3f5a57c148010f4ce9995c9070c8d8a0bf49926fac0340b0ade2a028e79465",
			"f558433b2c8f401ccf81c0b1097909fbf2b4652b3c09ca32b0d06e6c62326827"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			proto, err := tc.mech.Protocol(p)
			if err != nil {
				t.Fatal(err)
			}
			ah := sha256.New()
			var buf [8]byte
			for u := 0; u < p.N; u++ {
				a, err := proto.Assignment(u)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range []int{a.Group, a.Attr1, a.Attr2, a.Domain} {
					binary.LittleEndian.PutUint64(buf[:], uint64(v))
					ah.Write(buf[:])
				}
			}
			coll, err := proto.NewCollector()
			if err != nil {
				t.Fatal(err)
			}
			if err := coll.SubmitBatch(makeReports(t, proto, ds)); err != nil {
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
			sh := sha256.Sum256(blob)
			if got := hex.EncodeToString(ah.Sum(nil)); got != tc.assignments {
				t.Errorf("assignment digest %s, want %s", got, tc.assignments)
			}
			if got := hex.EncodeToString(sh[:]); got != tc.state {
				t.Errorf("state digest %s, want %s", got, tc.state)
			}
		})
	}
}

func mustMechanism(t *testing.T, name string) privmdr.Mechanism {
	t.Helper()
	m, err := privmdr.MechanismByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
