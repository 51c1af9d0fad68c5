// Package bench is the reproduction harness: one registered experiment per
// table and figure in the paper's evaluation (Section 5 and Appendix A).
// Each experiment regenerates the corresponding plot's data — the same
// x-axis, the same mechanisms, the same MAE metric — at a configurable
// scale, so the paper's qualitative claims can be checked on a laptop and
// its quantitative shapes at full scale.
package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Scale selects the experiment size.
type Scale string

// Supported scales. Smoke is for CI and the bench_test.go targets; Default
// runs the whole suite on a laptop; Paper uses the publication parameters
// (n = 10⁶, 10 repeats, |Q| = 200).
const (
	Smoke   Scale = "smoke"
	Default Scale = "default"
	Paper   Scale = "paper"
)

// RunConfig configures a run. Zero fields fall back to the scale's
// defaults.
type RunConfig struct {
	Scale   Scale
	N       int // users (ignored by experiments that sweep n)
	Reps    int // repetitions per point
	Queries int // workload size per point
	Seed    uint64
	Mechs   []string // restrict mechanisms (paper names); nil → experiment default
}

// Validate rejects a scale or mechanism name the harness does not know,
// listing the known values: unchecked, an unknown scale would run the
// default one and an unknown mechanism would drop out of every table.
func (c RunConfig) Validate() error {
	switch c.Scale {
	case "", Smoke, Default, Paper:
	default:
		return fmt.Errorf("bench: unknown scale %q (known: %s, %s, %s)", c.Scale, Smoke, Default, Paper)
	}
	for _, m := range c.Mechs {
		if _, err := newMech(m); err != nil {
			return err
		}
	}
	return nil
}

func (c RunConfig) scale() Scale {
	switch c.Scale {
	case Smoke, Default, Paper:
		return c.Scale
	default:
		return Default
	}
}

func (c RunConfig) n() int {
	if c.N > 0 {
		return c.N
	}
	switch c.scale() {
	case Smoke:
		return 20_000
	case Paper:
		return 1_000_000
	default:
		return 100_000
	}
}

func (c RunConfig) reps() int {
	if c.Reps > 0 {
		return c.Reps
	}
	switch c.scale() {
	case Smoke:
		return 1
	case Paper:
		return 10
	default:
		return 3
	}
}

func (c RunConfig) queries() int {
	if c.Queries > 0 {
		return c.Queries
	}
	switch c.scale() {
	case Smoke:
		return 50
	case Paper:
		return 200
	default:
		return 100
	}
}

// epsilons returns the privacy-budget sweep for the scale (the paper's
// x-axis is 0.2..2.0 in steps of 0.2).
func (c RunConfig) epsilons() []float64 {
	switch c.scale() {
	case Smoke:
		return []float64{1.0}
	case Paper:
		return []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0}
	default:
		return []float64{0.2, 0.6, 1.0, 1.4, 1.8}
	}
}

// Stat is one cell of a result table: mean ± std over repetitions. OK is
// false when the mechanism could not run at this point (e.g. HIO's group
// count exceeding the population), mirroring the omitted curves in the
// paper's plots.
type Stat struct {
	Mean, Std float64
	OK        bool
}

// Result is one panel of a figure (or one table): rows indexed by the
// x-axis, one column of Stats per series.
type Result struct {
	ID     string // experiment id, e.g. "fig1"
	Title  string // panel title, e.g. "Figure 1(e): Normal, lambda=2"
	XLabel string
	Xs     []string
	Series []string          // column order
	Cells  map[string][]Stat // series → per-x stats
	Notes  []string

	// Table overrides the Stat grid for text-valued results (Table 2).
	Header []string
	Rows   [][]string
}

// AddNote appends a human-readable remark (shown under the panel).
func (r *Result) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Set stores a stat.
func (r *Result) Set(series string, xi int, s Stat) {
	if r.Cells == nil {
		r.Cells = make(map[string][]Stat)
	}
	col, ok := r.Cells[series]
	if !ok {
		col = make([]Stat, len(r.Xs))
		r.Cells[series] = col
	}
	col[xi] = s
}

// Get fetches a stat (zero Stat when missing).
func (r *Result) Get(series string, xi int) Stat {
	col, ok := r.Cells[series]
	if !ok || xi >= len(col) {
		return Stat{}
	}
	return col[xi]
}

// Render writes the panel as an aligned text table.
func (r *Result) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "## %s [%s]\n", r.Title, r.ID); err != nil {
		return err
	}
	if len(r.Rows) > 0 {
		widths := make([]int, len(r.Header))
		for i, h := range r.Header {
			widths[i] = len(h)
		}
		for _, row := range r.Rows {
			for i, cell := range row {
				if i < len(widths) && len(cell) > widths[i] {
					widths[i] = len(cell)
				}
			}
		}
		line := func(cells []string) error {
			parts := make([]string, len(cells))
			for i, cell := range cells {
				parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
			}
			_, err := fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
			return err
		}
		if err := line(r.Header); err != nil {
			return err
		}
		for _, row := range r.Rows {
			if err := line(row); err != nil {
				return err
			}
		}
	} else {
		if _, err := fmt.Fprintf(w, "  %-14s", r.XLabel); err != nil {
			return err
		}
		for _, s := range r.Series {
			if _, err := fmt.Fprintf(w, "  %-16s", s); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		for xi, x := range r.Xs {
			if _, err := fmt.Fprintf(w, "  %-14s", x); err != nil {
				return err
			}
			for _, s := range r.Series {
				st := r.Get(s, xi)
				cell := "-"
				if st.OK {
					cell = fmt.Sprintf("%.5f±%.5f", st.Mean, st.Std)
				}
				if _, err := fmt.Fprintf(w, "  %-16s", cell); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// RenderCSV writes the panel as CSV (series columns hold the means; a
// missing value renders empty).
func (r *Result) RenderCSV(w io.Writer) error {
	if len(r.Rows) > 0 {
		if _, err := fmt.Fprintln(w, strings.Join(r.Header, ",")); err != nil {
			return err
		}
		for _, row := range r.Rows {
			if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
				return err
			}
		}
		return nil
	}
	cols := append([]string{r.XLabel}, r.Series...)
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for xi, x := range r.Xs {
		cells := []string{x}
		for _, s := range r.Series {
			st := r.Get(s, xi)
			if st.OK {
				cells = append(cells, fmt.Sprintf("%g", st.Mean))
			} else {
				cells = append(cells, "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Experiment reproduces one table or figure.
type Experiment struct {
	ID    string // registry key, e.g. "fig1"
	Paper string // what it reproduces, e.g. "Figure 1"
	Title string
	Run   func(cfg RunConfig) ([]*Result, error)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Registry lists every experiment in the paper's order: figures by number,
// then tables, then the extra ablations.
func Registry() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool {
		return experimentOrder(out[i].ID) < experimentOrder(out[j].ID)
	})
	return out
}

// experimentOrder maps ids to a sortable key: figN → N, tableN → 100+N,
// ablations → 200+.
func experimentOrder(id string) int {
	if n, ok := strings.CutPrefix(id, "fig"); ok {
		if v, err := strconv.Atoi(n); err == nil {
			return v
		}
	}
	if n, ok := strings.CutPrefix(id, "table"); ok {
		if v, err := strconv.Atoi(n); err == nil {
			return 100 + v
		}
	}
	return 200 + len(id)
}

// ByID resolves an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if strings.EqualFold(e.ID, id) {
			return e, nil
		}
	}
	var ids []string
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (known: %s)", id, strings.Join(ids, ", "))
}

// meanStd folds repetition MAEs into a Stat.
func meanStd(values []float64) Stat {
	if len(values) == 0 {
		return Stat{}
	}
	m := 0.0
	for _, v := range values {
		m += v
	}
	m /= float64(len(values))
	s := 0.0
	for _, v := range values {
		s += (v - m) * (v - m)
	}
	return Stat{Mean: m, Std: math.Sqrt(s / float64(len(values))), OK: true}
}
