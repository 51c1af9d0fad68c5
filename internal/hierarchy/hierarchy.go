// Package hierarchy implements the interval hierarchies behind the HIO and
// LHIO baselines (Sections 3.3–3.4): a branching-b recursive partition of
// the ordinal domain [0, c), the canonical (minimal) decomposition of a
// range into tree intervals, and the constrained-inference consistency step
// of Hay et al. generalized to per-level variances and mixed branching.
//
// Domains are not required to be powers of b: level ℓ holds
// k_ℓ = min(b^ℓ, c) equal-width intervals, so the deepest level always
// consists of the c singletons and every level's width divides the previous
// one's (both c and b are powers of two in the paper's experiments).
package hierarchy

import (
	"fmt"
)

// Node identifies one interval: Index-th interval of the given Level.
type Node struct {
	Level, Index int
}

// Tree is the static shape of a 1-D hierarchy over [0, C) with branching B.
type Tree struct {
	B, C   int
	counts []int // counts[ℓ] = number of intervals at level ℓ
}

// New builds the hierarchy shape. c must be a multiple of every level's
// interval count, which holds whenever b and c are powers of two (b = 4 and
// c = 2^k in the paper); other shapes are rejected.
func New(b, c int) (*Tree, error) {
	if b < 2 {
		return nil, fmt.Errorf("hierarchy: branching factor %d < 2", b)
	}
	if c < 2 {
		return nil, fmt.Errorf("hierarchy: domain %d < 2", c)
	}
	t := &Tree{B: b, C: c}
	k := 1
	for {
		if c%k != 0 {
			return nil, fmt.Errorf("hierarchy: level count %d does not divide domain %d (use power-of-two b and c)", k, c)
		}
		t.counts = append(t.counts, k)
		if k == c {
			break
		}
		k *= b
		if k > c {
			k = c
		}
	}
	return t, nil
}

// NumLevels returns h+1, the number of levels including the root level 0.
func (t *Tree) NumLevels() int { return len(t.counts) }

// H returns the deepest level index (leaves).
func (t *Tree) H() int { return len(t.counts) - 1 }

// CountAt returns the number of intervals at a level.
func (t *Tree) CountAt(level int) int { return t.counts[level] }

// Width returns the interval width at a level.
func (t *Tree) Width(level int) int { return t.C / t.counts[level] }

// Interval returns the inclusive value range of a node.
func (t *Tree) Interval(level, idx int) (lo, hi int) {
	w := t.Width(level)
	return idx * w, (idx+1)*w - 1
}

// IndexOf returns the index of the level-ℓ interval containing value v.
func (t *Tree) IndexOf(level, v int) int { return v / t.Width(level) }

// ChildFactor returns how many level-(ℓ+1) intervals one level-ℓ interval
// splits into (b except possibly at the capped last level).
func (t *Tree) ChildFactor(level int) int {
	return t.counts[level+1] / t.counts[level]
}

// Decompose appends to dst the canonical minimal set of tree intervals
// whose disjoint union is the inclusive range [lo, hi], in depth-first
// order (ascending by interval), and returns the extended slice. It
// allocates only when dst lacks room.
func (t *Tree) Decompose(dst []Node, lo, hi int) ([]Node, error) {
	if lo < 0 || hi >= t.C || lo > hi {
		return dst, fmt.Errorf("hierarchy: range [%d,%d] invalid for domain %d", lo, hi, t.C)
	}
	// Pending nodes, the next to visit on top: children are pushed last
	// first, so nodes come out depth first, left to right. The stack holds
	// at most (b−1)·H + 1 nodes; past the array it spills to the heap.
	var buf [64]Node
	stack := append(buf[:0], Node{})
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nLo, nHi := t.Interval(nd.Level, nd.Index)
		if nLo > hi || nHi < lo {
			continue
		}
		if nLo >= lo && nHi <= hi {
			dst = append(dst, nd)
			continue
		}
		f := t.ChildFactor(nd.Level)
		for ch := f - 1; ch >= 0; ch-- {
			stack = append(stack, Node{Level: nd.Level + 1, Index: nd.Index*f + ch})
		}
	}
	return dst, nil
}

// ConstrainedInference performs the two-pass consistency of Hay et al. over
// noisy per-level estimates x (x[ℓ] has CountAt(ℓ) entries) with per-level
// estimate variances v. The bottom-up pass combines each node's own estimate
// with the sum of its (already combined) children by inverse-variance
// weighting; the top-down pass spreads each node's residual equally over its
// children. The result is consistent: every node equals the sum of its
// children. x is not modified.
func (t *Tree) ConstrainedInference(x [][]float64, v []float64) ([][]float64, error) {
	if len(x) != t.NumLevels() || len(v) != t.NumLevels() {
		return nil, fmt.Errorf("hierarchy: got %d levels of estimates and %d variances, want %d", len(x), len(v), t.NumLevels())
	}
	for l := range x {
		if len(x[l]) != t.CountAt(l) {
			return nil, fmt.Errorf("hierarchy: level %d has %d estimates, want %d", l, len(x[l]), t.CountAt(l))
		}
		if v[l] <= 0 {
			return nil, fmt.Errorf("hierarchy: level %d variance %g must be positive", l, v[l])
		}
	}
	h := t.H()
	z := make([][]float64, len(x))
	zVar := make([]float64, len(x))
	z[h] = append([]float64(nil), x[h]...)
	zVar[h] = v[h]
	for l := h - 1; l >= 0; l-- {
		f := t.ChildFactor(l)
		z[l] = make([]float64, t.CountAt(l))
		sumVar := float64(f) * zVar[l+1]
		for i := range z[l] {
			sumChild := 0.0
			for ch := 0; ch < f; ch++ {
				sumChild += z[l+1][i*f+ch]
			}
			z[l][i] = (sumVar*x[l][i] + v[l]*sumChild) / (sumVar + v[l])
		}
		zVar[l] = v[l] * sumVar / (v[l] + sumVar)
	}
	// Top-down: push residuals so children sum exactly to their parent.
	out := make([][]float64, len(x))
	out[0] = append([]float64(nil), z[0]...)
	for l := 0; l < h; l++ {
		f := t.ChildFactor(l)
		out[l+1] = make([]float64, t.CountAt(l+1))
		for i := range out[l] {
			sumChild := 0.0
			for ch := 0; ch < f; ch++ {
				sumChild += z[l+1][i*f+ch]
			}
			resid := (out[l][i] - sumChild) / float64(f)
			for ch := 0; ch < f; ch++ {
				out[l+1][i*f+ch] = z[l+1][i*f+ch] + resid
			}
		}
	}
	return out, nil
}
