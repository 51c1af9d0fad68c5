package baselines

import (
	"math/rand/v2"

	"privmdr/internal/core"
	"privmdr/internal/dataset"
	"privmdr/internal/fo"
	"privmdr/internal/mech"
)

// CALM adapts the marginal-release mechanism of Zhang et al. (CCS 2018) to
// range queries (Section 3.2): users are divided into (d choose 2) groups,
// each reporting its pair's full-resolution c×c joint cell through the
// adaptive frequency oracle; marginals are made non-negative and mutually
// consistent; a 2-D range query sums the noisy marginal cells it covers, and
// a λ-D query is estimated from its 2-D answers by Algorithm 2, the weighted
// update that stands in for PriView's maximum-entropy step (Section 4.4
// finds the two almost equally accurate, weighted update converging faster).
//
// TDG (Section 4.1) is CALM with its c×c marginals binned into g₂×g₂ grids,
// so CALM runs the grid protocol TDG and HDG share, without HDG's 1-D
// groups, at g₂ = c: no cell is ever cut, and the uniformity rule reduces
// to summing whole cells.
//
// CALM overcomes the correlation and dimensionality challenges but not the
// large-domain one: summing Θ((ωc)²) noisy cells makes its error grow with c,
// which is the effect Figure 3 isolates.
type CALM struct{}

// NewCALM returns a CALM mechanism with default post-processing.
func NewCALM() *CALM { return &CALM{} }

// Name implements mech.Mechanism.
func (*CALM) Name() string { return "CALM" }

// Fit implements mech.Mechanism as a thin wrapper over the protocol path.
func (m *CALM) Fit(ds *dataset.Dataset, eps float64, rng *rand.Rand) (mech.Estimator, error) {
	return mech.FitViaProtocol(m, ds, eps, rng)
}

// Protocol implements mech.Mechanism: the grid protocol without 1-D groups
// at g₂ = c, with TDG's default post-processing and the oracle NewAuto
// picks for the c² domain (GRR, OLH or Hadamard response).
func (m *CALM) Protocol(p mech.Params) (mech.Protocol, error) {
	if err := p.Validate(2); err != nil {
		return nil, err
	}
	oracle, err := fo.NewAuto(p.Eps, p.C*p.C)
	if err != nil {
		return nil, err
	}
	return core.NewPairGridProtocol("CALM", p, p.C, oracle, core.Options{})
}
