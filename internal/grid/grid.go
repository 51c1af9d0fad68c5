// Package grid implements the 1-D and 2-D grids at the heart of TDG and HDG
// (Section 4.1): equal-width partitions of an attribute domain (or of the
// Cartesian product of two attribute domains) into cells whose noisy
// frequencies are collected with a frequency oracle. The package owns the
// cell geometry, the classification of cells against a range query
// (complete / partial / disjoint), and the uniformity-assumption answering
// rule used by TDG.
//
// Answering is span-based: only the cells a query touches are visited, and a
// grid that has been Sealed answers from precomputed prefix sums in O(1) —
// the 1-D interior by one subtraction plus its two boundary cells, a 2-D
// rectangle by bilinear lookups at its four corners — instead of scanning
// every cell.
package grid

import (
	"fmt"

	"privmdr/internal/mathx"
)

// Grid1D partitions the domain [0, C) into G equal cells of width C/G.
// Freq holds the (noisy, later post-processed) cell frequencies.
type Grid1D struct {
	C, G int
	Freq []float64

	// prefix holds Prefix1D(Freq) once the grid is Sealed; nil while the
	// frequencies are still being post-processed.
	prefix []float64
}

// NewGrid1D builds an empty 1-D grid; g must divide c.
func NewGrid1D(c, g int) (*Grid1D, error) {
	if g < 1 || g > c || c%g != 0 {
		return nil, fmt.Errorf("grid: granularity %d does not divide domain %d", g, c)
	}
	return &Grid1D{C: c, G: g, Freq: make([]float64, g)}, nil
}

// Seal freezes the grid for answering: it precomputes the prefix sums that
// make range answers O(1). Call it once all mutation of Freq (estimation,
// consistency post-processing) is done; mutating Freq afterwards requires a
// new Seal. A sealed grid is safe for concurrent AnswerUniform calls.
func (g *Grid1D) Seal() { g.prefix = mathx.Prefix1D(g.Freq) }

// CellWidth returns the number of domain values per cell.
func (g *Grid1D) CellWidth() int { return g.C / g.G }

// CellOf maps a domain value to its cell index.
func (g *Grid1D) CellOf(v int) int { return v / g.CellWidth() }

// CellInterval returns the inclusive value interval covered by cell i.
func (g *Grid1D) CellInterval(i int) (lo, hi int) {
	w := g.CellWidth()
	return i * w, (i+1)*w - 1
}

// rangeSum returns the sum of Freq over the inclusive cell span [i0, i1],
// from prefix sums when sealed.
func (g *Grid1D) rangeSum(i0, i1 int) float64 {
	if g.prefix != nil {
		return g.prefix[i1+1] - g.prefix[i0]
	}
	s := 0.0
	for i := i0; i <= i1; i++ {
		s += g.Freq[i]
	}
	return s
}

// AnswerUniform answers the 1-D range [lo,hi] from cell frequencies,
// pro-rating partially covered cells by their overlap fraction (the
// uniformity assumption). Only the touched cell span [CellOf(lo),
// CellOf(hi)] is considered; on a sealed grid the interior is one prefix
// subtraction.
func (g *Grid1D) AnswerUniform(lo, hi int) float64 {
	w := g.CellWidth()
	iLo, iHi := lo/w, hi/w
	if iLo == iHi {
		overlap := hi - lo + 1
		if overlap == w {
			return g.Freq[iLo]
		}
		return g.Freq[iLo] * float64(overlap) / float64(w)
	}
	ans := 0.0
	full0, full1 := iLo, iHi // inclusive span of completely covered cells
	if head := (iLo+1)*w - lo; head != w {
		ans += g.Freq[iLo] * float64(head) / float64(w)
		full0 = iLo + 1
	}
	if tail := hi - iHi*w + 1; tail != w {
		ans += g.Freq[iHi] * float64(tail) / float64(w)
		full1 = iHi - 1
	}
	if full0 <= full1 {
		ans += g.rangeSum(full0, full1)
	}
	return ans
}

// Grid2D partitions [0, C)×[0, C) into G×G equal cells (row-major; the row
// axis is the first attribute of the pair).
type Grid2D struct {
	C, G int
	Freq []float64 // length G*G, row-major

	// prefix holds the 2-D prefix sums of Freq once the grid is Sealed.
	prefix *mathx.Prefix2D
}

// NewGrid2D builds an empty 2-D grid; g must divide c.
func NewGrid2D(c, g int) (*Grid2D, error) {
	if g < 1 || g > c || c%g != 0 {
		return nil, fmt.Errorf("grid: granularity %d does not divide domain %d", g, c)
	}
	return &Grid2D{C: c, G: g, Freq: make([]float64, g*g)}, nil
}

// Seal freezes the grid for answering: it precomputes 2-D prefix sums so a
// range answer costs O(1). Call it once all mutation of Freq is done; a
// sealed grid is safe for concurrent AnswerUniform/BlockSum calls.
func (g *Grid2D) Seal() {
	p, err := mathx.NewPrefix2D(g.Freq, g.G, g.G)
	if err != nil {
		// Unreachable: Freq always has exactly G*G entries by construction.
		panic(fmt.Sprintf("grid: sealing %d×%d grid: %v", g.G, g.G, err))
	}
	g.prefix = p
}

// CellWidth returns the number of domain values per cell side.
func (g *Grid2D) CellWidth() int { return g.C / g.G }

// CellOf maps a pair of domain values (v1 on the row axis, v2 on the column
// axis) to the flattened cell index.
func (g *Grid2D) CellOf(v1, v2 int) int {
	w := g.CellWidth()
	return (v1/w)*g.G + v2/w
}

// CellRect returns the inclusive value rectangle covered by flattened cell i:
// rows [r0,r1] on the first attribute, columns [c0,c1] on the second.
func (g *Grid2D) CellRect(i int) (r0, r1, c0, c1 int) {
	w := g.CellWidth()
	row, col := i/g.G, i%g.G
	return row * w, (row+1)*w - 1, col * w, (col+1)*w - 1
}

// Overlap classifies cell i against the query rectangle [qr0,qr1]×[qc0,qc1]
// and returns the intersection.
type Overlap int

// Overlap classifications.
const (
	Disjoint Overlap = iota
	Partial
	Complete
)

// Classify returns the overlap class of cell i with the query rectangle and
// the intersection rectangle (valid when not Disjoint).
func (g *Grid2D) Classify(i, qr0, qr1, qc0, qc1 int) (Overlap, int, int, int, int) {
	r0, r1, c0, c1 := g.CellRect(i)
	ir0, ir1 := max(qr0, r0), min(qr1, r1)
	ic0, ic1 := max(qc0, c0), min(qc1, c1)
	if ir0 > ir1 || ic0 > ic1 {
		return Disjoint, 0, 0, 0, 0
	}
	if ir0 == r0 && ir1 == r1 && ic0 == c0 && ic1 == c1 {
		return Complete, ir0, ir1, ic0, ic1
	}
	return Partial, ir0, ir1, ic0, ic1
}

// BlockSum returns the sum of Freq over the inclusive cell block
// [r0,r1]×[c0,c1] — O(1) on a sealed grid.
func (g *Grid2D) BlockSum(r0, r1, c0, c1 int) float64 {
	if r0 > r1 || c0 > c1 {
		return 0
	}
	if g.prefix != nil {
		return g.prefix.RangeSum(r0, r1, c0, c1)
	}
	s := 0.0
	for r := r0; r <= r1; r++ {
		row := g.Freq[r*g.G : r*g.G+g.G]
		for c := c0; c <= c1; c++ {
			s += row[c]
		}
	}
	return s
}

// CompleteBlock returns the inclusive cell-index rectangle of the cells that
// lie entirely inside the query rectangle [qr0,qr1]×[qc0,qc1]; ok is false
// when no cell is completely covered. Every touched cell outside the block
// is partially covered.
func (g *Grid2D) CompleteBlock(qr0, qr1, qc0, qc1 int) (r0, r1, c0, c1 int, ok bool) {
	w := g.CellWidth()
	r0 = (qr0 + w - 1) / w
	r1 = (qr1+1)/w - 1
	c0 = (qc0 + w - 1) / w
	c1 = (qc1+1)/w - 1
	return r0, r1, c0, c1, r0 <= r1 && c0 <= c1
}

// AnswerUniform answers the 2-D range query [qr0,qr1]×[qc0,qc1] from cell
// frequencies under the uniformity assumption (TDG's Phase 3 rule): complete
// cells contribute their whole frequency; partial cells contribute
// proportionally to the overlapped area. On a sealed grid the answer is one
// inclusion–exclusion over massBelow at the rectangle's four corners — O(1)
// whatever the grid size; an unsealed grid visits the touched cells.
func (g *Grid2D) AnswerUniform(qr0, qr1, qc0, qc1 int) float64 {
	w := g.CellWidth()
	if g.prefix != nil {
		r0, r1 := g.locate(qr0, w), g.locate(qr1+1, w)
		c0, c1 := g.locate(qc0, w), g.locate(qc1+1, w)
		return g.massBelow(r1, c1) - g.massBelow(r0, c1) - g.massBelow(r1, c0) + g.massBelow(r0, c0)
	}
	ans := 0.0
	for r := qr0 / w; r <= qr1/w; r++ {
		fr := overlapFrac(r, w, qr0, qr1)
		for c := qc0 / w; c <= qc1/w; c++ {
			ans += g.Freq[r*g.G+c] * fr * overlapFrac(c, w, qc0, qc1)
		}
	}
	return ans
}

// overlapFrac is the fraction of cell i (width w) inside the value interval
// [lo, hi].
func overlapFrac(i, w, lo, hi int) float64 {
	return float64(min(hi, (i+1)*w-1)-max(lo, i*w)+1) / float64(w)
}

// boundary is a value boundary x (0 ≤ x ≤ C) on one axis: it lies a
// fraction t of the way from cell boundary i to i1 = i+1 (clamped to G,
// where t is 0).
type boundary struct {
	i, i1 int
	t     float64
}

// locate places the value boundary x on an axis of cell width w.
func (g *Grid2D) locate(x, w int) boundary {
	i := x / w
	return boundary{i, min(i+1, g.G), float64(x-i*w) / float64(w)}
}

// massBelow returns the uniformity-rule mass of the value rectangle
// [0,x)×[0,y) on a sealed grid. Under in-cell uniformity that mass is
// bilinear inside each cell, so it is the bilinear interpolation of the cell
// prefix sums; at cell corners it is the prefix sum itself, which makes
// cell-aligned answers exactly BlockSum.
func (g *Grid2D) massBelow(x, y boundary) float64 {
	p := g.prefix
	s00, s10, s01, s11 := p.At(x.i, y.i), p.At(x.i1, y.i), p.At(x.i, y.i1), p.At(x.i1, y.i1)
	return s00 + x.t*(s10-s00) + y.t*(s01-s00) + x.t*y.t*(s11-s10-s01+s00)
}
