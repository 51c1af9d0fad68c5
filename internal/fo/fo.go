// Package fo implements the categorical frequency oracles from Section 2.2
// of the paper: Generalized Randomized Response (GRR) and Optimized Local
// Hash (OLH), plus the CALM-style adaptive switch between them.
//
// A frequency oracle is the ε-LDP primitive every mechanism in this module is
// built from: each user perturbs one categorical value v ∈ [0,c) into a
// Report on the client side. The aggregator folds the reports into a
// fixed-size integer sufficient statistic as they arrive (Fold) and keeps
// nothing else; the oracle turns that statistic into unbiased frequency
// estimates for every value of the domain (EstimateCounts).
package fo

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"sync"

	"privmdr/internal/ldprand"
)

// Report is a single user's sanitized message. For GRR only Value is used;
// for OLH, Seed identifies the user's hash function and Value is the
// perturbed hashed value.
type Report struct {
	Seed  uint64
	Value int
}

// Oracle is a categorical frequency oracle over the domain [0, Domain()),
// defined by its fold: the aggregator sees reports only through Fold and
// estimates only through EstimateCounts.
type Oracle interface {
	// Name identifies the protocol ("grr", "olh" or "hadamard").
	Name() string
	// Domain is the input domain size c.
	Domain() int
	// Perturb sanitizes one user's value. This is the ε-LDP boundary: the
	// aggregator sees nothing about the user except the returned Report.
	Perturb(v int, rng *rand.Rand) Report
	// CheckReport rejects reports whose fields cannot have been produced
	// by an honest client of this oracle — the aggregator's first line of
	// defense against malformed wire payloads.
	CheckReport(r Report) error
	// StatLen is the length of the count vector Fold adds to.
	StatLen() int
	// Fold adds a run of reports, of any length, to counts (length
	// StatLen). The reports must have passed CheckReport. Concurrent calls
	// are safe when they target distinct count vectors.
	Fold(run []Report, counts []int64)
	// EstimateCounts converts a folded statistic over n reports into
	// unbiased frequency estimates for all c values (fractions; they need
	// not be in [0,1]). With n = 0 every estimate is 0.
	EstimateCounts(counts []int64, n int) []float64
	// Var is the per-value estimation variance with n reports, ignoring the
	// small f_v-dependent term (Equations 2 and 3 of the paper).
	Var(n int) float64
}

// GRR is generalized randomized response: report the true value with
// probability p = e^ε/(e^ε+c−1), otherwise a uniformly random other value.
type GRR struct {
	eps  float64
	c    int
	p, q float64 // q = 1/(e^ε+c−1)
}

// NewGRR returns a GRR oracle for domain size c under budget eps.
func NewGRR(eps float64, c int) (*GRR, error) {
	if c < 2 {
		return nil, fmt.Errorf("fo: GRR domain must be at least 2, got %d", c)
	}
	if eps <= 0 {
		return nil, fmt.Errorf("fo: epsilon must be positive, got %g", eps)
	}
	ee := math.Exp(eps)
	return &GRR{eps: eps, c: c, p: ee / (ee + float64(c) - 1), q: 1 / (ee + float64(c) - 1)}, nil
}

// Name implements Oracle.
func (g *GRR) Name() string { return "grr" }

// Domain implements Oracle.
func (g *GRR) Domain() int { return g.c }

// P returns the truthful-report probability.
func (g *GRR) P() float64 { return g.p }

// Q returns the per-other-value lie probability.
func (g *GRR) Q() float64 { return g.q }

// Perturb implements Oracle.
func (g *GRR) Perturb(v int, rng *rand.Rand) Report {
	if rng.Float64() < g.p {
		return Report{Value: v}
	}
	// Uniform over the c-1 other values.
	y := rng.IntN(g.c - 1)
	if y >= v {
		y++
	}
	return Report{Value: y}
}

// CheckReport implements Oracle: GRR reports carry a bare domain value.
func (g *GRR) CheckReport(r Report) error {
	if r.Value < 0 || r.Value >= g.c {
		return fmt.Errorf("fo: GRR report value %d outside [0,%d)", r.Value, g.c)
	}
	if r.Seed != 0 {
		return fmt.Errorf("fo: GRR report carries unexpected seed %d", r.Seed)
	}
	return nil
}

// EstimateCounts implements Oracle over the folded bucket counts:
// f_v = (count_v/n − q)/(p − q).
func (g *GRR) EstimateCounts(counts []int64, n int) []float64 {
	est := make([]float64, g.c)
	if n == 0 {
		return est
	}
	nf := float64(n)
	for v := range est {
		est[v] = (float64(counts[v])/nf - g.q) / (g.p - g.q)
	}
	return est
}

// Var implements Oracle (Equation 2).
func (g *GRR) Var(n int) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	ee := math.Exp(g.eps)
	return (float64(g.c) - 2 + ee) / ((ee - 1) * (ee - 1) * float64(n))
}

// OLH is optimized local hash: the user hashes v into a small domain
// [0, g) with a per-user hash function and runs GRR on the hashed value.
// g = ⌊e^ε⌉+1 minimizes the estimation variance.
type OLH struct {
	eps float64
	c   int
	g   int     // compressed domain size c'
	gw  uint64  // g as the precomputed multiply-shift (Lemire) reducer word
	p   float64 // e^ε/(e^ε+g−1)

	// hv is the per-domain-value inner hash table — SplitMix64(v + φ) for
	// every v in [0, c) — that Fold reads. Built on the first Fold: HIO
	// groups past their streaming cap construct OLH oracles over interval
	// domains far too large to materialize O(c) state, and they never fold.
	hvOnce sync.Once
	hv     []uint64
}

// NewOLH returns an OLH oracle for domain size c under budget eps.
func NewOLH(eps float64, c int) (*OLH, error) {
	if c < 2 {
		return nil, fmt.Errorf("fo: OLH domain must be at least 2, got %d", c)
	}
	if eps <= 0 {
		return nil, fmt.Errorf("fo: epsilon must be positive, got %g", eps)
	}
	g := int(math.Round(math.Exp(eps))) + 1
	if g < 2 {
		g = 2
	}
	ee := math.Exp(eps)
	return &OLH{eps: eps, c: c, g: g, gw: uint64(g), p: ee / (ee + float64(g) - 1)}, nil
}

// Name implements Oracle.
func (o *OLH) Name() string { return "olh" }

// Domain implements Oracle.
func (o *OLH) Domain() int { return o.c }

// HashRange returns the compressed domain size g = c'.
func (o *OLH) HashRange() int { return o.g }

// Hash evaluates the seeded hash family member at value v. The family is a
// splitmix64 finalizer over (seed, v), reduced to [0, g) with a multiply-
// shift (Lemire) reduction — the high 64 bits of x·g — which costs one
// multiply where the old `x % g` cost a hardware divide; for the domain
// sizes used here it behaves as a universal family.
func (o *OLH) Hash(seed uint64, v uint64) int {
	h, _ := bits.Mul64(ldprand.SplitMix64(seed^ldprand.SplitMix64(v+0x9e3779b97f4a7c15)), o.gw)
	return int(h)
}

// valueHashes returns the precomputed inner hash per domain value, i.e.
// hv[v] = SplitMix64(v + φ), so Hash(seed, v) ≡ Lemire(SplitMix64(seed ^
// hv[v]), g). The first caller builds it; concurrent first callers wait.
func (o *OLH) valueHashes() []uint64 {
	o.hvOnce.Do(func() {
		hv := make([]uint64, o.c)
		for v := range hv {
			hv[v] = ldprand.SplitMix64(uint64(v) + 0x9e3779b97f4a7c15)
		}
		o.hv = hv
	})
	return o.hv
}

// Perturb implements Oracle.
func (o *OLH) Perturb(v int, rng *rand.Rand) Report {
	seed := rng.Uint64()
	h := o.Hash(seed, uint64(v))
	// GRR over the hashed domain [0, g).
	var y int
	if rng.Float64() < o.p {
		y = h
	} else {
		y = rng.IntN(o.g - 1)
		if y >= h {
			y++
		}
	}
	return Report{Seed: seed, Value: y}
}

// CheckReport implements Oracle: the hashed value must lie in [0, g); the
// seed is the user's free choice of hash function and cannot be vetted.
func (o *OLH) CheckReport(r Report) error {
	if r.Value < 0 || r.Value >= o.g {
		return fmt.Errorf("fo: OLH report value %d outside hash range [0,%d)", r.Value, o.g)
	}
	return nil
}

// EstimateCounts implements Oracle over the folded support vector:
// f_v = (support_v/n − 1/g)/(p − 1/g).
func (o *OLH) EstimateCounts(counts []int64, n int) []float64 {
	est := make([]float64, o.c)
	if n == 0 {
		return est
	}
	nf := float64(n)
	qs := 1 / float64(o.g)
	denom := o.p - qs
	for v := range est {
		est[v] = (float64(counts[v])/nf - qs) / denom
	}
	return est
}

// EstimateOne estimates the frequency of a single value v by scanning the
// reports, without materializing the whole domain. It is the one
// report-scan estimator left: HIO's groups past the streaming cap keep
// their reports, because their interval domains are far too large to fold.
func (o *OLH) EstimateOne(reports []Report, v uint64) float64 {
	if len(reports) == 0 {
		return 0
	}
	support := 0
	for _, r := range reports {
		if o.Hash(r.Seed, v) == r.Value {
			support++
		}
	}
	n := float64(len(reports))
	qs := 1 / float64(o.g)
	return (float64(support)/n - qs) / (o.p - qs)
}

// EstimateOneCount is EstimateOne over a pre-folded support tally: given
// support_v (the count Fold accumulated for value v) and the group's
// report count, it evaluates the same debias expression in the same
// operation order, so it is bit-identical to EstimateOne over any report
// multiset folding to (support, n). Used by streaming HIO, which looks one
// interval's support out of its folded vector instead of rescanning
// reports.
func (o *OLH) EstimateOneCount(support int64, n int) float64 {
	if n == 0 {
		return 0
	}
	qs := 1 / float64(o.g)
	return (float64(support)/float64(n) - qs) / (o.p - qs)
}

// Var implements Oracle (Equation 3 generalized to the rounded g).
func (o *OLH) Var(n int) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	// Var = q(1−q)/(n(p−q)²) with q = 1/g; with g = e^ε+1 this reduces to
	// the paper's 4e^ε/((e^ε−1)² n).
	q := 1 / float64(o.g)
	d := o.p - q
	return q * (1 - q) / (float64(n) * d * d)
}
