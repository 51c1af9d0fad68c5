package main

import (
	"encoding/json"
	"errors"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tiny runs a workload at 1/32 of its report counts with every check on,
// in two rounds of 600 ms.
func tiny(t *testing.T, workload string, trace, withhold bool) (*result, error) {
	t.Helper()
	return run(config{
		workload: workload,
		seed:     7,
		window:   1200 * time.Millisecond,
		trace:    trace,
		dir:      t.TempDir(),
		rounds:   2,
		scale:    32,
		withhold: withhold,
	})
}

func workloadNames() []string {
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func sortedNames(m map[string]metric) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func metricNames(ms []namedMetric) []string {
	var names []string
	for _, m := range ms {
		names = append(names, m.name)
	}
	sort.Strings(names)
	return names
}

func TestWorkloadsPassTheirChecks(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(name+"/trace="+strconv.FormatBool(trace), func(t *testing.T) {
				res, err := tiny(t, name, trace, false)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct %v, %d of %d operations failed", res.Correct, res.Failed, res.Attempted)
				}
				want := metricNames(endToEnd(0, windowStats{}, 0))
				if trace {
					want = metricNames(perLayer(nil))
				}
				got := sortedNames(res.Metrics)
				if strings.Join(got, " ") != strings.Join(want, " ") {
					t.Fatalf("metrics %v, want %v", got, want)
				}
				if !trace {
					positive := []string{"setup_s", "reports_per_s", "submit_p50_ms", "query_p50_ms", "mae", "heap_mb"}
					if !raceEnabled {
						positive = append(positive, "fresh_p50_ms")
					}
					for _, n := range positive {
						if res.Metrics[n].Value <= 0 {
							t.Errorf("%s = %v, want > 0", n, res.Metrics[n].Value)
						}
					}
				}
			})
		}
	}
}

// TestAccountingCheckFails is the negative case: a ledger that forgets one
// ACKed frame must fail the run.
func TestAccountingCheckFails(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res, err := tiny(t, name, false, true)
			var ce *checkError
			if !errors.As(err, &ce) || !strings.Contains(err.Error(), "accounting") {
				t.Fatalf("err = %v, want an accounting check failure", err)
			}
			if res == nil || res.Correct {
				t.Fatalf("result %+v, want correct false", res)
			}
		})
	}
}

// TestNoInternalImports keeps the benchmark on the public API, so internal
// refactors cannot force a change to it.
func TestNoInternalImports(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p == "privmdr/internal" || strings.HasPrefix(p, "privmdr/internal/") {
				t.Errorf("%s imports %s", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with what the benchmark
// prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, " ") != strings.Join(workloadNames(), " ") {
		t.Errorf("workloads %v, the benchmark runs %v", names, workloadNames())
	}
	same := func(kind string, got []def, want []namedMetric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: %+v, the benchmark prints %+v", kind, i, g, m)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd(0, windowStats{}, 0))
	same("per_layer", b.PerLayer, perLayer(nil))
}
