package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"privmdr/internal/bench"
)

func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	r := &bench.Result{
		ID: "figX", Title: "t", XLabel: "eps",
		Xs:     []string{"1.0"},
		Series: []string{"HDG"},
	}
	r.Set("HDG", 0, bench.Stat{Mean: 0.5, OK: true})
	if err := writeCSV(dir, "figX", 3, r); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "figX_panel03.csv"))
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	if !strings.Contains(got, "eps,HDG") || !strings.Contains(got, "0.5") {
		t.Errorf("unexpected CSV contents:\n%s", got)
	}
}

// TestUnknownScaleOrMechanismFails checks that a misspelled -scale or
// -mechs value fails before any experiment runs, naming the known values.
// Unchecked, "-scale smok" ran the default scale and "-mechs HDG,tdg"
// printed HDG-only tables, both exiting 0. Every case runs table2, which
// takes milliseconds at any scale, so a regression fails fast.
func TestUnknownScaleOrMechanismFails(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "table2", "-scale", "smok"}, "known: smoke, default, paper"},
		{[]string{"-exp", "table2", "-scale", "smoke", "-mechs", "HDG,tdg"}, `"tdg" (known: Uni, MSW, CALM, HIO, LHIO, TDG, HDG, ITDG, IHDG)`},
		{[]string{"-exp", "table2", "-scale", "smoke", "-mechs", "HDG,"}, `unknown mechanism ""`},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote output before rejecting the flags:\n%s", tc.args, out.String())
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-exp", "table2", "-scale", "smoke", "-mechs", "ITDG,IHDG"}, &out); err != nil {
		t.Fatalf("known mechanisms ITDG and IHDG rejected: %v", err)
	}
	if !strings.Contains(out.String(), "=== table2 done") {
		t.Errorf("table2 did not run:\n%s", out.String())
	}
}
