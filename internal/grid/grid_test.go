package grid

import (
	"math"
	"testing"
	"testing/quick"

	"privmdr/internal/ldprand"
)

func TestNewGrid1DValidation(t *testing.T) {
	if _, err := NewGrid1D(64, 0); err == nil {
		t.Error("granularity 0 should fail")
	}
	if _, err := NewGrid1D(64, 128); err == nil {
		t.Error("granularity > domain should fail")
	}
	if _, err := NewGrid1D(64, 3); err == nil {
		t.Error("non-divisor granularity should fail")
	}
	g, err := NewGrid1D(64, 16)
	if err != nil {
		t.Fatal(err)
	}
	if g.CellWidth() != 4 || len(g.Freq) != 16 {
		t.Errorf("unexpected shape: width=%d cells=%d", g.CellWidth(), len(g.Freq))
	}
}

func TestGrid1DCellRoundTrip(t *testing.T) {
	g, _ := NewGrid1D(64, 8)
	f := func(vRaw uint8) bool {
		v := int(vRaw) % 64
		i := g.CellOf(v)
		lo, hi := g.CellInterval(i)
		return lo <= v && v <= hi && i >= 0 && i < 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGrid1DCellsPartition(t *testing.T) {
	g, _ := NewGrid1D(32, 4)
	covered := make([]int, 32)
	for i := 0; i < 4; i++ {
		lo, hi := g.CellInterval(i)
		for v := lo; v <= hi; v++ {
			covered[v]++
		}
	}
	for v, c := range covered {
		if c != 1 {
			t.Fatalf("value %d covered %d times", v, c)
		}
	}
}

func TestGrid1DAnswerUniformExact(t *testing.T) {
	// With an exactly uniform in-cell distribution the uniform assumption is
	// exact: check against brute force.
	g, _ := NewGrid1D(16, 4)
	g.Freq = []float64{0.1, 0.2, 0.3, 0.4}
	// Implied per-value mass: cell f / 4.
	value := func(v int) float64 { return g.Freq[v/4] / 4 }
	rng := ldprand.New(1)
	for trial := 0; trial < 100; trial++ {
		lo := rng.IntN(16)
		hi := lo + rng.IntN(16-lo)
		want := 0.0
		for v := lo; v <= hi; v++ {
			want += value(v)
		}
		if got := g.AnswerUniform(lo, hi); math.Abs(got-want) > 1e-12 {
			t.Fatalf("AnswerUniform(%d,%d) = %g, want %g", lo, hi, got, want)
		}
	}
	if got := g.AnswerUniform(0, 15); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("full range = %g, want 1", got)
	}
}

func TestNewGrid2DValidation(t *testing.T) {
	if _, err := NewGrid2D(64, 5); err == nil {
		t.Error("non-divisor granularity should fail")
	}
	g, err := NewGrid2D(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.CellWidth() != 16 || len(g.Freq) != 16 {
		t.Errorf("unexpected shape: width=%d cells=%d", g.CellWidth(), len(g.Freq))
	}
}

func TestGrid2DCellRoundTrip(t *testing.T) {
	g, _ := NewGrid2D(64, 8)
	f := func(aRaw, bRaw uint8) bool {
		a, b := int(aRaw)%64, int(bRaw)%64
		i := g.CellOf(a, b)
		r0, r1, c0, c1 := g.CellRect(i)
		return r0 <= a && a <= r1 && c0 <= b && b <= c1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGrid2DClassify(t *testing.T) {
	g, _ := NewGrid2D(16, 4) // cells 4×4
	// Query covering exactly cell (1,1): [4,7]×[4,7].
	cell := g.CellOf(5, 5)
	class, r0, r1, c0, c1 := g.Classify(cell, 4, 7, 4, 7)
	if class != Complete || r0 != 4 || r1 != 7 || c0 != 4 || c1 != 7 {
		t.Errorf("exact cover: got class %v rect (%d,%d,%d,%d)", class, r0, r1, c0, c1)
	}
	// Query [5,6]×[4,7] partially covers it.
	class, r0, r1, _, _ = g.Classify(cell, 5, 6, 4, 7)
	if class != Partial || r0 != 5 || r1 != 6 {
		t.Errorf("partial cover: got class %v rows (%d,%d)", class, r0, r1)
	}
	// Disjoint.
	class, _, _, _, _ = g.Classify(cell, 8, 15, 8, 15)
	if class != Disjoint {
		t.Errorf("disjoint: got class %v", class)
	}
}

func TestGrid2DClassifyAgainstBruteForce(t *testing.T) {
	g, _ := NewGrid2D(32, 8)
	rng := ldprand.New(2)
	for trial := 0; trial < 200; trial++ {
		qr0 := rng.IntN(32)
		qr1 := qr0 + rng.IntN(32-qr0)
		qc0 := rng.IntN(32)
		qc1 := qc0 + rng.IntN(32-qc0)
		for i := range g.Freq {
			r0, r1, c0, c1 := g.CellRect(i)
			inside, outside := 0, 0
			for r := r0; r <= r1; r++ {
				for c := c0; c <= c1; c++ {
					if r >= qr0 && r <= qr1 && c >= qc0 && c <= qc1 {
						inside++
					} else {
						outside++
					}
				}
			}
			class, _, _, _, _ := g.Classify(i, qr0, qr1, qc0, qc1)
			var want Overlap
			switch {
			case inside == 0:
				want = Disjoint
			case outside == 0:
				want = Complete
			default:
				want = Partial
			}
			if class != want {
				t.Fatalf("cell %d query (%d,%d,%d,%d): class %v, want %v", i, qr0, qr1, qc0, qc1, class, want)
			}
		}
	}
}

func TestGrid2DAnswerUniformExact(t *testing.T) {
	g, _ := NewGrid2D(8, 2) // cells 4×4
	g.Freq = []float64{0.1, 0.2, 0.3, 0.4}
	value := func(r, c int) float64 { return g.Freq[(r/4)*2+c/4] / 16 }
	rng := ldprand.New(3)
	for trial := 0; trial < 200; trial++ {
		r0 := rng.IntN(8)
		r1 := r0 + rng.IntN(8-r0)
		c0 := rng.IntN(8)
		c1 := c0 + rng.IntN(8-c0)
		want := 0.0
		for r := r0; r <= r1; r++ {
			for c := c0; c <= c1; c++ {
				want += value(r, c)
			}
		}
		if got := g.AnswerUniform(r0, r1, c0, c1); math.Abs(got-want) > 1e-12 {
			t.Fatalf("AnswerUniform(%d,%d,%d,%d) = %g, want %g", r0, r1, c0, c1, got, want)
		}
	}
}

func TestGrid2DGranularityOne(t *testing.T) {
	// The degenerate 1×1 grid is legal (the guideline can clamp to tiny
	// grids at very low epsilon) and answers everything by uniformity.
	g, err := NewGrid2D(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Freq[0] = 1
	if got := g.AnswerUniform(0, 7, 0, 7); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("quarter query on 1×1 grid = %g, want 0.25", got)
	}
}

// --- golden equivalence with the seed's per-cell scans ---

// seedAnswerUniform1D is the seed implementation of Grid1D.AnswerUniform:
// classify every cell of the grid against the range. Kept as the golden
// reference for the span/prefix-sum rewrite.
func seedAnswerUniform1D(g *Grid1D, lo, hi int) float64 {
	w := g.CellWidth()
	ans := 0.0
	for i := 0; i < g.G; i++ {
		cLo, cHi := i*w, (i+1)*w-1
		oLo, oHi := max(lo, cLo), min(hi, cHi)
		if oLo > oHi {
			continue
		}
		overlap := oHi - oLo + 1
		if overlap == w {
			ans += g.Freq[i]
		} else {
			ans += g.Freq[i] * float64(overlap) / float64(w)
		}
	}
	return ans
}

// seedAnswerUniform2D is the seed implementation of Grid2D.AnswerUniform:
// Classify every cell, pro-rate partials by overlap area.
func seedAnswerUniform2D(g *Grid2D, qr0, qr1, qc0, qc1 int) float64 {
	w := g.CellWidth()
	area := float64(w * w)
	ans := 0.0
	for i := range g.Freq {
		class, ir0, ir1, ic0, ic1 := g.Classify(i, qr0, qr1, qc0, qc1)
		switch class {
		case Complete:
			ans += g.Freq[i]
		case Partial:
			frac := float64((ir1-ir0+1)*(ic1-ic0+1)) / area
			ans += g.Freq[i] * frac
		}
	}
	return ans
}

func TestGrid1DAnswerUniformGolden(t *testing.T) {
	rng := ldprand.New(11)
	for _, shape := range [][2]int{{64, 64}, {64, 16}, {64, 4}, {32, 1}, {16, 16}} {
		c, gran := shape[0], shape[1]
		g, err := NewGrid1D(c, gran)
		if err != nil {
			t.Fatal(err)
		}
		for i := range g.Freq {
			g.Freq[i] = rng.Float64()*0.4 - 0.1 // include negatives, as pre-NormSub grids do
		}
		for _, sealed := range []bool{false, true} {
			if sealed {
				g.Seal()
			}
			for trial := 0; trial < 300; trial++ {
				lo := rng.IntN(c)
				hi := lo + rng.IntN(c-lo)
				want := seedAnswerUniform1D(g, lo, hi)
				if got := g.AnswerUniform(lo, hi); math.Abs(got-want) > 1e-9 {
					t.Fatalf("c=%d g=%d sealed=%v AnswerUniform(%d,%d) = %g, seed scan %g", c, gran, sealed, lo, hi, got, want)
				}
			}
		}
	}
}

func TestGrid2DAnswerUniformGolden(t *testing.T) {
	rng := ldprand.New(12)
	for _, shape := range [][2]int{{64, 64}, {64, 8}, {64, 2}, {32, 1}, {16, 4}} {
		c, gran := shape[0], shape[1]
		g, err := NewGrid2D(c, gran)
		if err != nil {
			t.Fatal(err)
		}
		for i := range g.Freq {
			g.Freq[i] = rng.Float64()*0.1 - 0.02
		}
		for _, sealed := range []bool{false, true} {
			if sealed {
				g.Seal()
			}
			for trial := 0; trial < 300; trial++ {
				r0 := rng.IntN(c)
				r1 := r0 + rng.IntN(c-r0)
				c0 := rng.IntN(c)
				c1 := c0 + rng.IntN(c-c0)
				want := seedAnswerUniform2D(g, r0, r1, c0, c1)
				if got := g.AnswerUniform(r0, r1, c0, c1); math.Abs(got-want) > 1e-9 {
					t.Fatalf("c=%d g=%d sealed=%v AnswerUniform(%d,%d,%d,%d) = %g, seed scan %g",
						c, gran, sealed, r0, r1, c0, c1, got, want)
				}
			}
		}
	}
}

// TestGrid2DSealedAlignedIsBlockSum pins the sealed answer's exactness at
// cell corners: a cell-aligned rectangle touches only prefix entries, so
// AnswerUniform equals BlockSum bit for bit.
func TestGrid2DSealedAlignedIsBlockSum(t *testing.T) {
	g, _ := NewGrid2D(64, 8) // cells 8×8
	rng := ldprand.New(16)
	for i := range g.Freq {
		g.Freq[i] = rng.Float64()*0.1 - 0.02
	}
	g.Seal()
	for trial := 0; trial < 300; trial++ {
		r0 := rng.IntN(8)
		r1 := r0 + rng.IntN(8-r0)
		c0 := rng.IntN(8)
		c1 := c0 + rng.IntN(8-c0)
		want := g.BlockSum(r0, r1, c0, c1)
		if got := g.AnswerUniform(r0*8, (r1+1)*8-1, c0*8, (c1+1)*8-1); got != want {
			t.Fatalf("cells [%d,%d]×[%d,%d]: AnswerUniform %v, BlockSum %v", r0, r1, c0, c1, got, want)
		}
	}
}

func TestGrid2DCompleteBlock(t *testing.T) {
	g, _ := NewGrid2D(32, 8) // cells 4×4
	rng := ldprand.New(13)
	for trial := 0; trial < 500; trial++ {
		qr0 := rng.IntN(32)
		qr1 := qr0 + rng.IntN(32-qr0)
		qc0 := rng.IntN(32)
		qc1 := qc0 + rng.IntN(32-qc0)
		r0, r1, c0, c1, ok := g.CompleteBlock(qr0, qr1, qc0, qc1)
		for i := range g.Freq {
			class, _, _, _, _ := g.Classify(i, qr0, qr1, qc0, qc1)
			row, col := i/g.G, i%g.G
			inBlock := ok && row >= r0 && row <= r1 && col >= c0 && col <= c1
			if (class == Complete) != inBlock {
				t.Fatalf("query (%d,%d,%d,%d) cell %d: classify %v, block membership %v", qr0, qr1, qc0, qc1, i, class, inBlock)
			}
		}
	}
}

func TestGridSealDoesNotChangeAnswers(t *testing.T) {
	rng := ldprand.New(14)
	g2, _ := NewGrid2D(64, 16)
	for i := range g2.Freq {
		g2.Freq[i] = rng.Float64()
	}
	type q struct{ r0, r1, c0, c1 int }
	var qs []q
	var unsealed []float64
	for trial := 0; trial < 200; trial++ {
		r0 := rng.IntN(64)
		r1 := r0 + rng.IntN(64-r0)
		c0 := rng.IntN(64)
		c1 := c0 + rng.IntN(64-c0)
		qs = append(qs, q{r0, r1, c0, c1})
		unsealed = append(unsealed, g2.AnswerUniform(r0, r1, c0, c1))
	}
	g2.Seal()
	for i, query := range qs {
		got := g2.AnswerUniform(query.r0, query.r1, query.c0, query.c1)
		if math.Abs(got-unsealed[i]) > 1e-9 {
			t.Fatalf("query %+v: sealed %g vs unsealed %g", query, got, unsealed[i])
		}
	}
}

// BenchmarkGrid2DAnswerUniform contrasts the sealed path (four bilinear
// prefix lookups) with the unsealed touched-cell loop and the seed's
// full-grid scan on a production-sized grid.
func BenchmarkGrid2DAnswerUniform(b *testing.B) {
	g, _ := NewGrid2D(1024, 64)
	rng := ldprand.New(15)
	for i := range g.Freq {
		g.Freq[i] = rng.Float64()
	}
	type q struct{ r0, r1, c0, c1 int }
	qs := make([]q, 256)
	for i := range qs {
		r0 := rng.IntN(1024)
		r1 := r0 + rng.IntN(1024-r0)
		c0 := rng.IntN(1024)
		c1 := c0 + rng.IntN(1024-c0)
		qs[i] = q{r0, r1, c0, c1}
	}
	b.Run("seed-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := qs[i%len(qs)]
			seedAnswerUniform2D(g, k.r0, k.r1, k.c0, k.c1)
		}
	})
	b.Run("unsealed-span", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := qs[i%len(qs)]
			g.AnswerUniform(k.r0, k.r1, k.c0, k.c1)
		}
	})
	g.Seal()
	b.Run("sealed-prefix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := qs[i%len(qs)]
			g.AnswerUniform(k.r0, k.r1, k.c0, k.c1)
		}
	})
}
