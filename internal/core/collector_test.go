package core

import (
	"math"
	"testing"

	"privmdr/internal/dataset"
	"privmdr/internal/ldprand"
	"privmdr/internal/mech"
	"privmdr/internal/query"
)

func TestHDGProtocolResolution(t *testing.T) {
	pr, err := NewHDG(Options{}).Protocol(mech.Params{N: 1_000_000, D: 6, C: 64, Eps: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	g1, g2 := pr.(*gridProtocol).Granularities()
	if g1 != 16 || g2 != 4 {
		t.Errorf("resolved granularities (%d,%d), Table 2 says (16,4)", g1, g2)
	}
	if got := pr.NumGroups(); got != 6+15 {
		t.Errorf("NumGroups = %d, want 21", got)
	}
	bad := []mech.Params{
		{N: 0, D: 6, C: 64, Eps: 1},
		{N: 100, D: 1, C: 64, Eps: 1},
		{N: 100, D: 3, C: 48, Eps: 1},
		{N: 100, D: 3, C: 64, Eps: 0},
		{N: 5, D: 6, C: 64, Eps: 1}, // fewer users than groups
	}
	for i, b := range bad {
		if _, err := NewHDG(Options{}).Protocol(b); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, b)
		}
	}
	// Non-divisor granularity override.
	if _, err := NewHDG(Options{G1: 12}).Protocol(mech.Params{N: 100, D: 3, C: 64, Eps: 1}); err == nil {
		t.Error("non-power granularity override accepted")
	}
}

// TestGridProtocolRejectsBadG2 vets a g₂ override when the protocol is
// built. Go's 64 % -4 is 0, so a divisibility check alone passes g₂ = -4,
// and clients would then compute negative cells that the aggregator rejects
// only at Finalize. A negative g₁ override is rejected too, where lifting
// it to g₂ would deploy a granularity nobody asked for.
func TestGridProtocolRejectsBadG2(t *testing.T) {
	p := mech.Params{N: 1000, D: 3, C: 64, Eps: 1}
	cases := []struct {
		name string
		m    mech.Mechanism
	}{
		{"HDG g2=-4", NewHDG(Options{G1: 16, G2: -4})},
		{"HDG g1=-16", NewHDG(Options{G1: -16, G2: 4})},
		{"TDG g2=-4", NewTDG(Options{G2: -4})},
		{"HDG g2=1", NewHDG(Options{G1: 16, G2: 1})},
		{"TDG g2=1", NewTDG(Options{G2: 1})},
		{"TDG g2=12", NewTDG(Options{G2: 12})},
	}
	for _, tc := range cases {
		if _, err := tc.m.Protocol(p); err == nil {
			t.Errorf("%s: protocol built", tc.name)
		}
	}
}

func TestCollectorAssignmentsArePublicAndBalanced(t *testing.T) {
	p := mech.Params{N: 2100, D: 3, C: 16, Eps: 1, Seed: 5}
	c1, err := NewHDG(Options{}).Protocol(p)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewHDG(Options{}).Protocol(p)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	for u := 0; u < p.N; u++ {
		a1, err := c1.Assignment(u)
		if err != nil {
			t.Fatal(err)
		}
		a2, _ := c2.Assignment(u)
		if a1 != a2 {
			t.Fatal("assignments must be a pure function of public parameters")
		}
		counts[a1.Group]++
		// Structural checks.
		if a1.Group < 3 {
			if a1.Attr2 != -1 || a1.Attr1 != a1.Group {
				t.Fatalf("1-D assignment malformed: %+v", a1)
			}
		} else if a1.Attr1 >= a1.Attr2 {
			t.Fatalf("2-D assignment malformed: %+v", a1)
		}
	}
	// 3 + 3 grids, near-even split.
	if len(counts) != 6 {
		t.Fatalf("expected 6 groups, got %d", len(counts))
	}
	for g, n := range counts {
		if n < 2100/6-1 || n > 2100/6+1 {
			t.Errorf("group %d has %d users, want ≈ 350", g, n)
		}
	}
	if _, err := c1.Assignment(-1); err == nil {
		t.Error("negative user should fail")
	}
	if _, err := c1.Assignment(p.N); err == nil {
		t.Error("out-of-range user should fail")
	}
}

func TestCollectorEndToEndMatchesTruth(t *testing.T) {
	// Full deployment flow: every simulated client perturbs its own record;
	// the collector aggregates; the estimator answers near truth at a
	// generous budget.
	ds, err := dataset.Normal(dataset.GenOptions{N: 40_000, D: 3, C: 16, Seed: 9, Rho: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	p := mech.Params{N: ds.N(), D: 3, C: 16, Eps: 2.0, Seed: 13}
	proto, err := NewHDG(Options{}).Protocol(p)
	if err != nil {
		t.Fatal(err)
	}
	coll, err := proto.NewCollector()
	if err != nil {
		t.Fatal(err)
	}
	clientRng := ldprand.New(17)
	record := make([]int, 3)
	for u := 0; u < ds.N(); u++ {
		a, err := proto.Assignment(u)
		if err != nil {
			t.Fatal(err)
		}
		for t2 := 0; t2 < 3; t2++ {
			record[t2] = ds.Value(t2, u)
		}
		rep, err := proto.ClientReport(a, record, clientRng)
		if err != nil {
			t.Fatal(err)
		}
		if err := coll.Submit(rep); err != nil {
			t.Fatal(err)
		}
	}
	if got := coll.Received(); got != ds.N() {
		t.Fatalf("collector received %d reports, want %d", got, ds.N())
	}
	est, err := coll.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	qs, _ := query.RandomWorkload(ldprand.New(19), 40, 2, 3, 16, 0.5)
	truth := query.TrueAnswers(ds, qs)
	answers := make([]float64, len(qs))
	for i, q := range qs {
		a, err := est.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		answers[i] = a
	}
	if mae := query.MAE(answers, truth); mae > 0.08 {
		t.Errorf("collector pipeline MAE %g, want small at eps=2", mae)
	}
}

func TestCollectorLifecycle(t *testing.T) {
	p := mech.Params{N: 100, D: 3, C: 16, Eps: 1, Seed: 1}
	proto, err := NewHDG(Options{}).Protocol(p)
	if err != nil {
		t.Fatal(err)
	}
	coll, err := proto.NewCollector()
	if err != nil {
		t.Fatal(err)
	}
	good := clientReportMust(t, proto, 0)
	bad := good
	bad.Group = 99
	if err := coll.Submit(bad); err == nil {
		t.Error("out-of-range group should fail")
	}
	if _, err := coll.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := coll.Finalize(); err == nil {
		t.Error("double finalize should fail")
	}
	if err := coll.Submit(good); err == nil {
		t.Error("submit after finalize should fail")
	}
	if err := coll.SubmitBatch([]mech.Report{good}); err == nil {
		t.Error("batch submit after finalize should fail")
	}
}

func clientReportMust(t *testing.T, proto mech.Protocol, user int) mech.Report {
	t.Helper()
	a, err := proto.Assignment(user)
	if err != nil {
		t.Fatal(err)
	}
	r, err := proto.ClientReport(a, []int{1, 2, 3}, ldprand.New(uint64(user)))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestClientReportValidation(t *testing.T) {
	p := mech.Params{N: 100, D: 3, C: 16, Eps: 1, Seed: 1}
	proto, err := NewHDG(Options{}).Protocol(p)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := proto.Assignment(0)
	rng := ldprand.New(2)
	if _, err := proto.ClientReport(a, []int{1, 2}, rng); err == nil {
		t.Error("short record should fail")
	}
	if _, err := proto.ClientReport(a, []int{1, 2, 99}, rng); err == nil {
		t.Error("out-of-domain value should fail")
	}
	if _, err := proto.ClientReport(mech.Assignment{Group: -1}, []int{1, 2, 3}, rng); err == nil {
		t.Error("invalid assignment should fail")
	}
}

func TestCollectorRejectsMalformedPayloads(t *testing.T) {
	p := mech.Params{N: 100, D: 3, C: 16, Eps: 1, Seed: 1}
	proto, err := NewHDG(Options{}).Protocol(p)
	if err != nil {
		t.Fatal(err)
	}
	coll, err := proto.NewCollector()
	if err != nil {
		t.Fatal(err)
	}
	good := clientReportMust(t, proto, 0)
	evil := good
	evil.Value = 1 << 30 // far outside any OLH hash range
	if err := coll.Submit(evil); err == nil {
		t.Error("out-of-range OLH value should be rejected")
	}
	// An atomic batch with one bad report must leave no trace.
	if err := coll.SubmitBatch([]mech.Report{good, evil}); err == nil {
		t.Error("batch with malformed report should be rejected")
	}
	if got := coll.Received(); got != 0 {
		t.Errorf("rejected batch left %d reports behind", got)
	}
}

func TestCollectorToleratesMissingUsers(t *testing.T) {
	// Partial participation (dropouts) must not break finalization.
	ds, _ := dataset.Uniform(dataset.GenOptions{N: 5000, D: 3, C: 16, Seed: 21})
	p := mech.Params{N: ds.N(), D: 3, C: 16, Eps: 2.0, Seed: 23}
	proto, err := NewHDG(Options{}).Protocol(p)
	if err != nil {
		t.Fatal(err)
	}
	coll, err := proto.NewCollector()
	if err != nil {
		t.Fatal(err)
	}
	rng := ldprand.New(25)
	record := make([]int, 3)
	for u := 0; u < ds.N(); u += 2 { // half the users drop out
		a, _ := proto.Assignment(u)
		for t2 := 0; t2 < 3; t2++ {
			record[t2] = ds.Value(t2, u)
		}
		rep, err := proto.ClientReport(a, record, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := coll.Submit(rep); err != nil {
			t.Fatal(err)
		}
	}
	est, err := coll.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	got, err := est.Answer(query.Query{{Attr: 0, Lo: 0, Hi: 7}, {Attr: 1, Lo: 0, Hi: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.25) > 0.1 {
		t.Errorf("half-participation answer %g, want ≈ 0.25", got)
	}
}

func TestTDGProtocolEndToEnd(t *testing.T) {
	ds, _ := dataset.Uniform(dataset.GenOptions{N: 9000, D: 3, C: 16, Seed: 31})
	p := mech.Params{N: ds.N(), D: 3, C: 16, Eps: 2.0, Seed: 33}
	proto, err := NewTDG(Options{}).Protocol(p)
	if err != nil {
		t.Fatal(err)
	}
	if proto.NumGroups() != 3 {
		t.Fatalf("TDG d=3 should have 3 pair groups, got %d", proto.NumGroups())
	}
	est, err := mech.Run(proto, ds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := est.Answer(query.Query{{Attr: 0, Lo: 0, Hi: 7}, {Attr: 2, Lo: 0, Hi: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.25) > 0.1 {
		t.Errorf("TDG protocol answer %g, want ≈ 0.25", got)
	}
}
