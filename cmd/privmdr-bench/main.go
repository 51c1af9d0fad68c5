// privmdr-bench regenerates the tables and figures of "Answering
// Multi-Dimensional Range Queries under Local Differential Privacy"
// (Yang et al., PVLDB 2020) from this module's implementation.
//
// Usage:
//
//	privmdr-bench -list
//	privmdr-bench -exp fig1 -scale default
//	privmdr-bench -exp all -scale smoke -csv out/
//	privmdr-bench -exp fig3 -mechs HDG,TDG,CALM -n 50000 -reps 2
//
// Scales: smoke (CI-sized), default (laptop-sized, n = 10⁵), paper
// (n = 10⁶, 10 repeats, |Q| = 200 — hours of compute). An unknown scale
// or mechanism name fails before any experiment runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"privmdr/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run parses args, rejects unknown -scale and -mechs values before any
// experiment starts, and renders the selected experiments to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("privmdr-bench", flag.ExitOnError)
	var (
		list    = fs.Bool("list", false, "list experiments and exit")
		exp     = fs.String("exp", "", "experiment id (figN, table2, ablation-*) or 'all'")
		scale   = fs.String("scale", "default", "smoke | default | paper")
		n       = fs.Int("n", 0, "override user count")
		reps    = fs.Int("reps", 0, "override repetitions per point")
		queries = fs.Int("queries", 0, "override workload size")
		seed    = fs.Uint64("seed", 2020, "root random seed")
		mechs   = fs.String("mechs", "", "comma-separated mechanism filter (e.g. HDG,TDG)")
		csvDir  = fs.String("csv", "", "also write one CSV per panel into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list || *exp == "" {
		fmt.Fprintln(stdout, "experiments:")
		for _, e := range bench.Registry() {
			fmt.Fprintf(stdout, "  %-22s %-28s %s\n", e.ID, e.Paper, e.Title)
		}
		if *exp == "" && !*list {
			fmt.Fprintln(stdout, "\nrun one with: privmdr-bench -exp <id> [-scale smoke|default|paper]")
		}
		return nil
	}

	cfg := bench.RunConfig{
		Scale:   bench.Scale(*scale),
		N:       *n,
		Reps:    *reps,
		Queries: *queries,
		Seed:    *seed,
	}
	if *mechs != "" {
		for _, m := range strings.Split(*mechs, ",") {
			cfg.Mechs = append(cfg.Mechs, strings.TrimSpace(m))
		}
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	var todo []bench.Experiment
	if strings.EqualFold(*exp, "all") {
		todo = bench.Registry()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, err := bench.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			todo = append(todo, e)
		}
	}

	for _, e := range todo {
		start := time.Now()
		fmt.Fprintf(stdout, "=== %s (%s) — %s\n", e.ID, e.Paper, e.Title)
		results, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s failed: %w", e.ID, err)
		}
		for pi, r := range results {
			if err := r.Render(stdout); err != nil {
				return err
			}
			if *csvDir != "" {
				if err := writeCSV(*csvDir, e.ID, pi, r); err != nil {
					return err
				}
			}
		}
		fmt.Fprintf(stdout, "=== %s done in %v\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func writeCSV(dir, id string, panel int, r *bench.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s_panel%02d.csv", id, panel))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return r.RenderCSV(f)
}
