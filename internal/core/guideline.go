// Package core implements the paper's primary contribution: the
// Two-Dimensional Grids (TDG) and Hybrid-Dimensional Grids (HDG) mechanisms
// of Section 4, together with the granularity-selection guideline of
// Section 4.6 that makes them "consistently effective".
//
// Both run one grid protocol (collector.go): one fine 1-D group per
// attribute, then one coarse g₂×g₂ group per attribute pair. TDG has no
// 1-D groups, and neither has CALM (internal/baselines), which runs the
// protocol at g₂ = c. The aggregator answers without 1-D grids by TDG's
// uniformity rule and with them by HDG's Algorithm 1.
package core

import (
	"fmt"
	"math"

	"privmdr/internal/mathx"
)

// Default guideline constants (Section 4.6): tuned by the authors on
// synthetic data across n, c, d settings.
const (
	DefaultAlpha1 = 0.7
	DefaultAlpha2 = 0.03
)

// Granularity1D returns the raw (unrounded) guideline value for 1-D grids:
// g₁ = ∛(n₁(e^ε−1)²α₁² / (2m₁e^ε)), expressed through the per-group
// population nPerGroup = n₁/m₁.
func Granularity1D(eps, nPerGroup, alpha1 float64) float64 {
	ee := math.Exp(eps)
	return math.Cbrt(nPerGroup * (ee - 1) * (ee - 1) * alpha1 * alpha1 / (2 * ee))
}

// Granularity2D returns the raw (unrounded) guideline value for 2-D grids:
// g₂ = √(2α₂(e^ε−1)·√(n₂/(m₂e^ε))).
func Granularity2D(eps, nPerGroup, alpha2 float64) float64 {
	ee := math.Exp(eps)
	return math.Sqrt(2 * alpha2 * (ee - 1) * math.Sqrt(nPerGroup/ee))
}

// RoundGranularity applies the paper's final selection rule: the power of
// two closest (in linear distance) to the raw value, at most c, at least 2.
func RoundGranularity(raw float64, c int) int {
	g := mathx.RoundPow2(raw, c)
	if g < 2 {
		g = 2
	}
	if g > c {
		g = c
	}
	return g
}

// Granularities returns the rounded (g₁, g₂) pair for the given per-group
// population, enforcing g₁ ≥ g₂ (the 1-D grids are the finer-grained ones by
// construction; equality degenerates HDG gracefully toward TDG).
func Granularities(eps, nPerGroup float64, c int, alpha1, alpha2 float64) (g1, g2 int) {
	if alpha1 <= 0 {
		alpha1 = DefaultAlpha1
	}
	if alpha2 <= 0 {
		alpha2 = DefaultAlpha2
	}
	g1 = RoundGranularity(Granularity1D(eps, nPerGroup, alpha1), c)
	g2 = RoundGranularity(Granularity2D(eps, nPerGroup, alpha2), c)
	if g1 < g2 {
		g1 = g2
	}
	return g1, g2
}

// HDGGroups returns HDG's group structure for d attributes: m₁ = d 1-D
// groups and m₂ = (d choose 2) 2-D groups.
func HDGGroups(d int) (m1, m2 int) {
	return d, d * (d - 1) / 2
}

// HDGGranularities computes the guideline's (g₁, g₂) for HDG with the
// default even split (every group the same population: nPerGroup =
// n/(d + (d choose 2))).
func HDGGranularities(eps float64, n, d, c int, alpha1, alpha2 float64) (g1, g2 int, err error) {
	if d < 2 {
		return 0, 0, fmt.Errorf("core: HDG needs at least 2 attributes, got %d", d)
	}
	m1, m2 := HDGGroups(d)
	nPerGroup := float64(n) / float64(m1+m2)
	g1, g2 = Granularities(eps, nPerGroup, c, alpha1, alpha2)
	return g1, g2, nil
}

// TDGGranularity computes the guideline's g₂ for TDG, whose only groups are
// the (d choose 2) 2-D ones.
func TDGGranularity(eps float64, n, d, c int, alpha2 float64) (int, error) {
	if d < 2 {
		return 0, fmt.Errorf("core: TDG needs at least 2 attributes, got %d", d)
	}
	if alpha2 <= 0 {
		alpha2 = DefaultAlpha2
	}
	m2 := d * (d - 1) / 2
	nPerGroup := float64(n) / float64(m2)
	return RoundGranularity(Granularity2D(eps, nPerGroup, alpha2), c), nil
}
