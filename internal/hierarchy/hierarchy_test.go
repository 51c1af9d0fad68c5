package hierarchy

import (
	"math"
	"testing"
	"testing/quick"

	"privmdr/internal/ldprand"
)

func TestShapePowerOfB(t *testing.T) {
	tr, err := New(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 4, 16, 64}
	if tr.NumLevels() != len(want) {
		t.Fatalf("NumLevels = %d, want %d", tr.NumLevels(), len(want))
	}
	for l, k := range want {
		if tr.CountAt(l) != k {
			t.Errorf("CountAt(%d) = %d, want %d", l, tr.CountAt(l), k)
		}
		if tr.Width(l) != 64/k {
			t.Errorf("Width(%d) = %d, want %d", l, tr.Width(l), 64/k)
		}
	}
	if tr.H() != 3 {
		t.Errorf("H = %d, want 3", tr.H())
	}
}

func TestShapeCappedLastLevel(t *testing.T) {
	// c = 32, b = 4: 4^3 = 64 > 32, so the last level caps at 32 singletons.
	tr, err := New(4, 32)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 4, 16, 32}
	for l, k := range want {
		if tr.CountAt(l) != k {
			t.Errorf("CountAt(%d) = %d, want %d", l, tr.CountAt(l), k)
		}
	}
	if tr.ChildFactor(2) != 2 {
		t.Errorf("capped ChildFactor = %d, want 2", tr.ChildFactor(2))
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(1, 64); err == nil {
		t.Error("branching 1 should fail")
	}
	if _, err := New(4, 1); err == nil {
		t.Error("domain 1 should fail")
	}
	if _, err := New(4, 6); err == nil {
		t.Error("domain 6 should fail: level count 4 does not divide 6")
	}
}

func TestIntervalIndexRoundTrip(t *testing.T) {
	tr, _ := New(4, 64)
	f := func(vRaw uint8, lRaw uint8) bool {
		v := int(vRaw) % 64
		l := int(lRaw) % tr.NumLevels()
		idx := tr.IndexOf(l, v)
		lo, hi := tr.Interval(l, idx)
		return lo <= v && v <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalsPartitionDomain(t *testing.T) {
	tr, _ := New(4, 64)
	for l := 0; l < tr.NumLevels(); l++ {
		covered := make([]bool, 64)
		for i := 0; i < tr.CountAt(l); i++ {
			lo, hi := tr.Interval(l, i)
			for v := lo; v <= hi; v++ {
				if covered[v] {
					t.Fatalf("level %d: value %d covered twice", l, v)
				}
				covered[v] = true
			}
		}
		for v, c := range covered {
			if !c {
				t.Fatalf("level %d: value %d not covered", l, v)
			}
		}
	}
}

func TestDecomposeExactCover(t *testing.T) {
	for _, c := range []int{16, 32, 64, 256} {
		tr, err := New(4, c)
		if err != nil {
			t.Fatal(err)
		}
		rng := ldprand.New(uint64(c))
		for trial := 0; trial < 100; trial++ {
			lo := rng.IntN(c)
			hi := lo + rng.IntN(c-lo)
			// Decompose appends: the caller's prefix stays, and the nodes
			// follow in ascending order.
			sentinel := Node{Level: -1}
			nodes, err := tr.Decompose([]Node{sentinel}, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if nodes[0] != sentinel {
				t.Fatalf("c=%d [%d,%d]: dst prefix overwritten: %v", c, lo, hi, nodes[0])
			}
			nodes = nodes[1:]
			covered := make([]int, c)
			next := lo
			for _, nd := range nodes {
				nLo, nHi := tr.Interval(nd.Level, nd.Index)
				if nLo != next {
					t.Fatalf("c=%d [%d,%d]: node %v starts at %d, want %d", c, lo, hi, nd, nLo, next)
				}
				next = nHi + 1
				for v := nLo; v <= nHi; v++ {
					covered[v]++
				}
			}
			for v := 0; v < c; v++ {
				want := 0
				if v >= lo && v <= hi {
					want = 1
				}
				if covered[v] != want {
					t.Fatalf("c=%d [%d,%d]: value %d covered %d times, want %d", c, lo, hi, v, covered[v], want)
				}
			}
		}
	}
}

func TestDecomposePieceBound(t *testing.T) {
	// Canonical decomposition uses at most 2(b−1) pieces per level.
	tr, _ := New(4, 256)
	rng := ldprand.New(7)
	bound := 2 * 3 * tr.NumLevels()
	for trial := 0; trial < 200; trial++ {
		lo := rng.IntN(256)
		hi := lo + rng.IntN(256-lo)
		nodes, _ := tr.Decompose(nil, lo, hi)
		if len(nodes) > bound {
			t.Fatalf("[%d,%d]: %d pieces exceeds bound %d", lo, hi, len(nodes), bound)
		}
	}
}

func TestDecomposeFullRangeIsRoot(t *testing.T) {
	tr, _ := New(4, 64)
	nodes, err := tr.Decompose(nil, 0, 63)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 1 || nodes[0].Level != 0 || nodes[0].Index != 0 {
		t.Errorf("full range should decompose to the root, got %v", nodes)
	}
}

func TestDecomposeSingleton(t *testing.T) {
	tr, _ := New(4, 64)
	nodes, err := tr.Decompose(nil, 17, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 1 || nodes[0].Level != tr.H() || nodes[0].Index != 17 {
		t.Errorf("singleton should be one leaf, got %v", nodes)
	}
}

func TestDecomposeErrors(t *testing.T) {
	tr, _ := New(4, 64)
	for _, r := range [][2]int{{-1, 5}, {5, 64}, {10, 5}} {
		if _, err := tr.Decompose(nil, r[0], r[1]); err == nil {
			t.Errorf("Decompose(%d,%d) should fail", r[0], r[1])
		}
	}
}

// makeConsistentLevels builds exact per-level aggregates of a leaf
// distribution.
func makeConsistentLevels(tr *Tree, leaves []float64) [][]float64 {
	x := make([][]float64, tr.NumLevels())
	for l := 0; l < tr.NumLevels(); l++ {
		x[l] = make([]float64, tr.CountAt(l))
		for i := range x[l] {
			lo, hi := tr.Interval(l, i)
			for v := lo; v <= hi; v++ {
				x[l][i] += leaves[v]
			}
		}
	}
	return x
}

func TestConstrainedInferenceFixedPoint(t *testing.T) {
	// Already-consistent input must come back unchanged.
	tr, _ := New(4, 16)
	leaves := []float64{1, 2, 3, 4, 5, 6, 7, 8, 8, 7, 6, 5, 4, 3, 2, 1}
	x := makeConsistentLevels(tr, leaves)
	v := make([]float64, tr.NumLevels())
	for i := range v {
		v[i] = 1
	}
	out, err := tr.ConstrainedInference(x, v)
	if err != nil {
		t.Fatal(err)
	}
	for l := range x {
		for i := range x[l] {
			if math.Abs(out[l][i]-x[l][i]) > 1e-9 {
				t.Fatalf("level %d idx %d changed: %g → %g", l, i, x[l][i], out[l][i])
			}
		}
	}
}

func TestConstrainedInferenceConsistency(t *testing.T) {
	// Noisy input: output must satisfy parent = Σ children at every level.
	tr, _ := New(4, 64)
	rng := ldprand.New(11)
	x := make([][]float64, tr.NumLevels())
	v := make([]float64, tr.NumLevels())
	for l := range x {
		x[l] = make([]float64, tr.CountAt(l))
		for i := range x[l] {
			x[l][i] = rng.Float64()
		}
		v[l] = 0.5 + rng.Float64()
	}
	out, err := tr.ConstrainedInference(x, v)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < tr.H(); l++ {
		f := tr.ChildFactor(l)
		for i := range out[l] {
			sum := 0.0
			for ch := 0; ch < f; ch++ {
				sum += out[l+1][i*f+ch]
			}
			if math.Abs(sum-out[l][i]) > 1e-9 {
				t.Fatalf("level %d node %d: children sum %g != parent %g", l, i, sum, out[l][i])
			}
		}
	}
}

func TestConstrainedInferenceReducesError(t *testing.T) {
	// Average over trials: CI estimates of leaf counts should beat the raw
	// noisy leaves when every level carries independent noise.
	tr, _ := New(4, 16)
	leaves := make([]float64, 16)
	for i := range leaves {
		leaves[i] = float64(i + 1)
	}
	truth := makeConsistentLevels(tr, leaves)
	rng := ldprand.New(13)
	noise := 1.0
	var rawErr, ciErr float64
	trials := 200
	for trial := 0; trial < trials; trial++ {
		x := make([][]float64, tr.NumLevels())
		v := make([]float64, tr.NumLevels())
		for l := range x {
			x[l] = make([]float64, tr.CountAt(l))
			for i := range x[l] {
				x[l][i] = truth[l][i] + rng.NormFloat64()*noise
			}
			v[l] = noise * noise
		}
		out, err := tr.ConstrainedInference(x, v)
		if err != nil {
			t.Fatal(err)
		}
		h := tr.H()
		for i := range leaves {
			rawErr += (x[h][i] - truth[h][i]) * (x[h][i] - truth[h][i])
			ciErr += (out[h][i] - truth[h][i]) * (out[h][i] - truth[h][i])
		}
	}
	if ciErr >= rawErr {
		t.Errorf("constrained inference did not reduce leaf error: %g vs %g", ciErr, rawErr)
	}
}

func TestConstrainedInferenceErrors(t *testing.T) {
	tr, _ := New(4, 16)
	if _, err := tr.ConstrainedInference(make([][]float64, 2), []float64{1, 1}); err == nil {
		t.Error("wrong level count should fail")
	}
	x := [][]float64{{1}, {1, 1, 1, 1}, make([]float64, 16)}
	if _, err := tr.ConstrainedInference(x, []float64{1, 1, 0}); err == nil {
		t.Error("non-positive variance should fail")
	}
	bad := [][]float64{{1}, {1, 1}, make([]float64, 16)}
	if _, err := tr.ConstrainedInference(bad, []float64{1, 1, 1}); err == nil {
		t.Error("wrong level width should fail")
	}
}
