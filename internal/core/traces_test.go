package core

import (
	"testing"

	"privmdr/internal/ldprand"
	"privmdr/internal/query"
)

func TestTraceSourceInterfaces(t *testing.T) {
	ds := correlatedDS(t, 8000, 3, 16)
	// HDG with traces.
	hest, err := NewHDG(Options{CollectTraces: true}).fit(ds, 1.0, ldprand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	var hts TraceSource = hest
	if hts.LastAlg2ConvergenceTrace() != nil {
		t.Error("no Algorithm 2 has run yet")
	}
	q3 := query.Query{{Attr: 0, Lo: 1, Hi: 9}, {Attr: 1, Lo: 2, Hi: 10}, {Attr: 2, Lo: 0, Hi: 7}}
	if _, err := hest.Answer(q3); err != nil {
		t.Fatal(err)
	}
	if len(hts.Alg1ConvergenceTraces()) == 0 {
		t.Error("lambda=3 answering should have built response matrices")
	}
	if len(hts.LastAlg2ConvergenceTrace()) == 0 {
		t.Error("lambda=3 answering should record an Algorithm 2 trace")
	}
	g1, g2 := hest.G1, hest.G2
	if g1 < g2 || g2 < 2 {
		t.Errorf("granularities (%d,%d) invalid", g1, g2)
	}

	// TDG with traces: Alg1 is always empty, Alg2 populates.
	test_, err := NewTDG(Options{CollectTraces: true}).fit(ds, 1.0, ldprand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	var tts TraceSource = test_
	if tts.Alg1ConvergenceTraces() != nil {
		t.Error("TDG builds no response matrices")
	}
	if _, err := test_.Answer(q3); err != nil {
		t.Fatal(err)
	}
	if len(tts.LastAlg2ConvergenceTrace()) == 0 {
		t.Error("TDG lambda=3 should record an Algorithm 2 trace")
	}
}
