package bench

import (
	"bytes"
	"strings"
	"testing"
)

func smokeCfg() RunConfig {
	return RunConfig{Scale: Smoke, N: 6000, Reps: 1, Queries: 20, Seed: 7}
}

func TestScaleDefaults(t *testing.T) {
	var c RunConfig
	if c.scale() != Default {
		t.Errorf("zero config scale = %s", c.scale())
	}
	if c.n() != 100_000 || c.reps() != 3 || c.queries() != 100 {
		t.Errorf("default scale values wrong: %d %d %d", c.n(), c.reps(), c.queries())
	}
	p := RunConfig{Scale: Paper}
	if p.n() != 1_000_000 || p.reps() != 10 || p.queries() != 200 {
		t.Errorf("paper scale values wrong")
	}
	if len(p.epsilons()) != 10 {
		t.Errorf("paper epsilon sweep has %d points", len(p.epsilons()))
	}
	o := RunConfig{N: 123, Reps: 2, Queries: 9}
	if o.n() != 123 || o.reps() != 2 || o.queries() != 9 {
		t.Errorf("overrides ignored")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"fig18", "fig19", "fig20", "fig21", "fig23", "fig24", "fig25", "fig26",
		"fig27", "fig28", "table2",
		"ablation-maxent", "ablation-fo", "ablation-postprocess",
	}
	for _, id := range want {
		if _, err := ByID(id); err != nil {
			t.Errorf("experiment %s not registered: %v", id, err)
		}
	}
	if len(Registry()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(Registry()), len(want))
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown id should fail")
	}
}

func TestMechFactory(t *testing.T) {
	for _, n := range append(append([]string{}, allMechNames...), "ITDG", "IHDG") {
		m, err := newMech(n)
		if err != nil {
			t.Errorf("%s: %v", n, err)
			continue
		}
		if m.Name() != n {
			t.Errorf("factory name mismatch: %s vs %s", m.Name(), n)
		}
	}
	if _, err := newMech("nope"); err == nil {
		t.Error("unknown mechanism should fail")
	}
}

func TestFilterMechs(t *testing.T) {
	cfg := RunConfig{Mechs: []string{"HDG", "Uni"}}
	got := cfg.filterMechs(allMechNames)
	if len(got) != 2 || got[0] != "Uni" || got[1] != "HDG" {
		t.Errorf("filterMechs = %v", got)
	}
	if got := (RunConfig{}).filterMechs(noHIONames); len(got) != len(noHIONames) {
		t.Errorf("empty filter should pass defaults")
	}
}

func TestTable2Experiment(t *testing.T) {
	e, err := ByID("table2")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := e.Run(smokeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || len(rs[0].Rows) != 19 {
		t.Fatalf("table2 shape wrong: %d results", len(rs))
	}
	// Spot-check the canonical cell: d=6, lg n=6, eps=1.0 → 16,4.
	for _, row := range rs[0].Rows {
		if row[0] == "6, 6.0" {
			if row[5] != "16,4" {
				t.Errorf("d=6 n=1e6 eps=1.0 cell = %s, want 16,4", row[5])
			}
		}
	}
	var buf bytes.Buffer
	if err := rs[0].Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "16,4") {
		t.Error("render lost table content")
	}
	buf.Reset()
	if err := rs[0].RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "16,4") {
		t.Error("CSV render lost table content")
	}
}

func TestFig1Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := smokeCfg()
	cfg.Mechs = []string{"Uni", "TDG", "HDG"}
	e, _ := ByID("fig1")
	rs, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 4 datasets × 2 lambdas.
	if len(rs) != 8 {
		t.Fatalf("fig1 produced %d panels, want 8", len(rs))
	}
	for _, r := range rs {
		for _, series := range r.Series {
			for xi := range r.Xs {
				st := r.Get(series, xi)
				if !st.OK {
					t.Errorf("%s: %s missing at %s", r.Title, series, r.Xs[xi])
				}
				if st.Mean < 0 || st.Mean > 10 {
					t.Errorf("%s: %s MAE %g out of sane range", r.Title, series, st.Mean)
				}
			}
		}
	}
}

func TestResultRenderMAEGrid(t *testing.T) {
	r := &Result{
		ID: "x", Title: "t", XLabel: "eps",
		Xs:     []string{"0.5", "1.0"},
		Series: []string{"HDG"},
	}
	r.Set("HDG", 0, Stat{Mean: 0.1, Std: 0.01, OK: true})
	r.AddNote("hello %d", 42)
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "0.10000") || !strings.Contains(out, "hello 42") {
		t.Errorf("render output missing content:\n%s", out)
	}
	// The unset point renders as "-".
	if !strings.Contains(out, "-") {
		t.Error("missing placeholder for absent stat")
	}
	buf.Reset()
	if err := r.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 || lines[0] != "eps,HDG" {
		t.Errorf("CSV shape wrong:\n%s", buf.String())
	}
}

func TestTruth2D(t *testing.T) {
	cfg := smokeCfg()
	cache := make(dsCache)
	ds, err := cache.get("ipums", getOpts(cfg, 4000, 4, 16), defaultRho)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := makeWorkload(cfg, ds, 2, 0.5, "truthcheck")
	if err != nil {
		t.Fatal(err)
	}
	// truth2D (used inside makeWorkload for 2-D) must agree with the scan.
	for i, q := range wl.queries {
		want := 0.0
		n := ds.N()
		for r := 0; r < n; r++ {
			if q.Matches(ds, r) {
				want++
			}
		}
		want /= float64(n)
		if diff := wl.truth[i] - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("truth mismatch at %d: %g vs %g", i, wl.truth[i], want)
		}
	}
}

func TestDsCacheReuses(t *testing.T) {
	cache := make(dsCache)
	cfg := smokeCfg()
	a, err := cache.get("normal", getOpts(cfg, 1000, 3, 16), defaultRho)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cache.get("normal", getOpts(cfg, 1000, 3, 16), defaultRho)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cache did not reuse the dataset")
	}
	c, err := cache.get("normal", getOpts(cfg, 1000, 3, 16), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different rho must not share a cache entry")
	}
}

func TestAverageTraces(t *testing.T) {
	got := averageTraces([][]float64{{4, 2}, {2}})
	if len(got) != 2 || got[0] != 3 || got[1] != 2 {
		t.Errorf("averageTraces = %v", got)
	}
	if len(averageTraces(nil)) != 0 {
		t.Error("empty input should average to empty")
	}
}

func TestMeanStd(t *testing.T) {
	s := meanStd([]float64{1, 3})
	if !s.OK || s.Mean != 2 || s.Std != 1 {
		t.Errorf("meanStd = %+v", s)
	}
	if meanStd(nil).OK {
		t.Error("empty meanStd should not be OK")
	}
}

func TestEvalPointSkipsInfeasible(t *testing.T) {
	// HIO at d=6, c=16 needs 3^6 = 729 groups; 500 users cannot fill them →
	// the stat must be marked not-OK with a note, like the omitted curves in
	// the paper.
	cfg := smokeCfg()
	cache := make(dsCache)
	ds, err := cache.get("normal", getOpts(cfg, 500, 6, 16), defaultRho)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := makeWorkload(cfg, ds, 2, 0.5, "skiptest")
	if err != nil {
		t.Fatal(err)
	}
	mechs, err := standardMechs([]string{"Uni", "HIO"})
	if err != nil {
		t.Fatal(err)
	}
	stats, notes := evalPoint(cfg, ds, 1.0, []workload{wl}, mechs, "skiptest")
	if !stats["Uni"][0].OK {
		t.Error("Uni should succeed")
	}
	if stats["HIO"][0].OK {
		t.Error("HIO should be skipped")
	}
	if len(notes) == 0 {
		t.Error("skip should leave a note")
	}
}

// TestPerfPointCollectorHeap checks that the perf harness's heap column
// measures the collector: LHIO's count vectors (~240 KB at d = 3, c = 64)
// must show up even though the input reports (~640 KB at n = 20000) are no
// longer needed once ingested. If those reports are collected inside the
// measurement, the column reads 0.
func TestPerfPointCollectorHeap(t *testing.T) {
	pt, err := perfPoint("LHIO", 20_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if pt.CollectorHeapBytes == 0 {
		t.Fatalf("LHIO collector heap measured as 0 B: %+v", pt)
	}
}

// TestPerfPointFinalizeWarms checks that finalize_ms counts the estimator
// warm-up estimate_ms counts. HDG builds its Algorithm 1 response matrices
// only when warmed, and that is most of its finalize, so a finalize timed
// without it reads a small fraction of the refresh.
func TestPerfPointFinalizeWarms(t *testing.T) {
	pt, err := perfPoint("HDG", 20_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if pt.FinalizeMillis < pt.EstimateMillis/4 {
		t.Fatalf("HDG finalize_ms %.3f < estimate_ms/4 (%.3f / 4)", pt.FinalizeMillis, pt.EstimateMillis)
	}
}
