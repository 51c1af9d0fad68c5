package privmdr_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"privmdr"
)

// TestDeploymentStateGolden pins the wire contract between clients and an
// aggregator built from different revisions, and the answers an aggregator
// gives from that state. Every other streaming pin runs both sides through
// the same protocol, so a change to the user → group assignment or to a
// group's cell encoding would pass them and surface only as old clients'
// reports folding into the wrong cells of a new aggregator. Here each
// mechanism runs one small fixed deployment, and two SHA-256 digests must
// match constants recorded when the contract last changed: one over every
// user's Assignment, one over the binary encoding of the collector state
// after every simulated client reported. An intended change to either
// contract is a wire-version change and must re-record its constants.
//
// The finalized estimator then answers a 20-query workload at λ = 1, 2 and
// 3, and one fingerprint per λ, Σᵢ (i+1)·answerᵢ, must match the constant
// recorded alongside, so an estimator rewrite that moves any answer fails
// here even when the state bytes hold. The fingerprints compare within
// 1e-9 relative, not bit for bit: a platform that fuses multiply-adds may
// move an answer's last bit. The HIO-capped row runs d = 4, where 5 of its
// 81 groups pass the streaming cap and keep their reports, so it pins the
// v3 state and the answers of HIO's report-scan estimator as well.
func TestDeploymentStateGolden(t *testing.T) {
	hdgOverrides := privmdr.NewHDGWithOptions(privmdr.Options{G1: 8, G2: 2, Sigma: 0.3})
	cases := []struct {
		name        string
		mech        privmdr.Mechanism
		d           int
		assignments string
		state       string
		answers     [3]float64 // fingerprint at λ = 1, 2, 3
	}{
		{"Uni", mustMechanism(t, "Uni"), 3,
			"c88a0d45914924ede0331aa9f1f1d613eabb2e7c0cf5fd3e3b8c9616054e808b",
			"b00964a42a003419dfb1b91a009d757738da44b589ce30d343f38931ce3194dc",
			[3]float64{105, 52.5, 26.25}},
		{"MSW", mustMechanism(t, "MSW"), 3,
			"8dd22ebddf1b9401326c9b9a36a089d35e5da9941fb0fcc38c8969675b52f53f",
			"d715f5b622cee5ef4f4b2d1fab5ba38829442bbca2e520b6d10c29b55a5569f8",
			[3]float64{133.61097260985238, 84.56578094189726, 55.46118569232417}},
		{"CALM", mustMechanism(t, "CALM"), 3,
			"50db57af1f1f4a73f7819eb4d42780ffa1a40a37377da22d5a5575c438dad5cd",
			"b2ff0d60283a505ebddb2801d4fee8d73fac2d84b85aa6cf5b775da777327326",
			[3]float64{121.41514201738087, 67.85092236276756, 40.06873748311018}},
		{"HIO", mustMechanism(t, "HIO"), 3,
			"eadc58c1ac57db508aef1b75f196753061c0c33cd363a5f2cdfacbe02be8fc2d",
			"6f4a7d17ada41b2f8c510b640b739588905da86b531e3c0070f9753d513f7729",
			[3]float64{176.78880413835898, 146.87434606293334, -41.16137506933903}},
		{"HIO-capped", mustMechanism(t, "HIO"), 4,
			"2dd9905a94bbf9aebf529e058ca0b292b65eb017092bc825b303e1b2e283df1e",
			"6193ea61c8be4d23cc0af7feb8a8e8373166b5e8f86aa004549ba15a766a4f1e",
			[3]float64{260.92588395977475, 77.89100844852297, 62.98758234137499}},
		{"LHIO", mustMechanism(t, "LHIO"), 3,
			"16d5e9763989dd45509fd5744a5a2c87bc036b25854fef4138c370395a8073c0",
			"1a8366d1501ebfdbb6a2b931fd81b877cca61791bbea3b27b18000c922ff63bd",
			[3]float64{156.90294724817934, 112.83622162997493, 57.249620908592014}},
		{"TDG", mustMechanism(t, "TDG"), 3,
			"62abaa914de2136e449dbba344d9d33ee34a9337f128eba89f427cd2425d6fc8",
			"ab371c36f1cfe51e54f26520fbb929df5f278c7adb03a117fe0ec419efa02a8f",
			[3]float64{104.19492387331945, 52.58922950181173, 25.812975931124793}},
		{"ITDG", mustMechanism(t, "ITDG"), 3,
			"62abaa914de2136e449dbba344d9d33ee34a9337f128eba89f427cd2425d6fc8",
			"7a1ac75d73da67792ac9bf1e0c89c647071ebfb99829c23b05198d4a13f0eefa",
			[3]float64{101.78652624851401, 51.637188962982655, 24.971961958126535}},
		{"HDG", mustMechanism(t, "HDG"), 3,
			"c51ddd7fb8ad4c850aaca3ee785df859b0e0406331ecd2eecfc084e1e4fa43d5",
			"1a4e8a10794f354adaf822a65bff965fb9155056f5fa0dfc8380ecea2f81be5c",
			[3]float64{145.85736867868377, 105.59064909857537, 66.13882637345138}},
		{"IHDG", mustMechanism(t, "IHDG"), 3,
			"c51ddd7fb8ad4c850aaca3ee785df859b0e0406331ecd2eecfc084e1e4fa43d5",
			"d7b3a420243214bf37365593d13e1c43994fcf58dc0ff971241981cf09ef26e1",
			[3]float64{151.83020249227295, 111.83511884976461, 71.47147089903437}},
		{"HDG-overrides", hdgOverrides, 3,
			"0a3f5a57c148010f4ce9995c9070c8d8a0bf49926fac0340b0ade2a028e79465",
			"f558433b2c8f401ccf81c0b1097909fbf2b4652b3c09ca32b0d06e6c62326827",
			[3]float64{151.92264276099974, 107.35228908133266, 72.23332634154664}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds, err := privmdr.GenerateDataset("normal", privmdr.GenOptions{N: 6000, D: tc.d, C: 16, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			p := privmdr.Params{N: ds.N(), D: ds.D(), C: ds.C, Eps: 1.0, Seed: 9}
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
			est, err := coll.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			for lambda := 1; lambda <= 3; lambda++ {
				qs, err := privmdr.RandomWorkload(20, lambda, p.D, p.C, 0.5, 9)
				if err != nil {
					t.Fatal(err)
				}
				ans, err := privmdr.AnswerBatch(est, qs)
				if err != nil {
					t.Fatal(err)
				}
				got := 0.0
				for i, a := range ans {
					got += float64(i+1) * a
				}
				if want := tc.answers[lambda-1]; math.Abs(got-want) > 1e-9*math.Abs(want) {
					t.Errorf("λ = %d: answer fingerprint %v, want %v", lambda, got, want)
				}
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
