// Package baselines implements the five comparison mechanisms of the
// paper's evaluation (Section 3 and Section 5.1): the Uni benchmark, the
// Multiplied Square Wave extension (MSW), the CALM marginal-release
// adaptation, the hierarchy-based HIO, and its low-dimensional improvement
// LHIO.
package baselines

import (
	"fmt"
	"math/rand/v2"

	"privmdr/internal/dataset"
	"privmdr/internal/mech"
	"privmdr/internal/query"
)

// Uni is the benchmark mechanism that always outputs the uniform guess:
// the answer of a query is its domain volume. It touches no user data and is
// the "zero information" yardstick every LDP mechanism must beat.
type Uni struct{}

// NewUni returns the uniform-guess benchmark.
func NewUni() *Uni { return &Uni{} }

// Name implements mech.Mechanism.
func (*Uni) Name() string { return "Uni" }

// Fit implements mech.Mechanism as a thin wrapper over the protocol path.
func (u *Uni) Fit(ds *dataset.Dataset, eps float64, rng *rand.Rand) (mech.Estimator, error) {
	return mech.FitViaProtocol(u, ds, eps, rng)
}

// uniProtocol is Uni's deployment face: one group, and reports that carry
// no information at all — the client side exists only so every mechanism
// shares the same wire flow.
type uniProtocol struct {
	p mech.Params
}

// Protocol implements mech.Mechanism.
func (*Uni) Protocol(p mech.Params) (mech.Protocol, error) {
	if err := p.Validate(1); err != nil {
		return nil, err
	}
	return &uniProtocol{p: p}, nil
}

// Name implements mech.Protocol.
func (*uniProtocol) Name() string { return "Uni" }

// Params implements mech.Protocol.
func (pr *uniProtocol) Params() mech.Params { return pr.p }

// NumGroups implements mech.Protocol.
func (*uniProtocol) NumGroups() int { return 1 }

// Assignment implements mech.Protocol.
func (pr *uniProtocol) Assignment(user int) (mech.Assignment, error) {
	if user < 0 || user >= pr.p.N {
		return mech.Assignment{}, fmt.Errorf("baselines: user %d outside [0,%d)", user, pr.p.N)
	}
	return mech.Assignment{Group: 0, Attr1: -1, Attr2: -1}, nil
}

// ClientReport implements mech.Protocol: an empty presence ping.
func (pr *uniProtocol) ClientReport(a mech.Assignment, record []int, rng *rand.Rand) (mech.Report, error) {
	if a.Group != 0 {
		return mech.Report{}, fmt.Errorf("baselines: Uni has a single group, got %d", a.Group)
	}
	if err := mech.CheckRecord(pr.p, record); err != nil {
		return mech.Report{}, err
	}
	return mech.Report{Group: 0}, nil
}

// NewCollector implements mech.Protocol. Uni's group statistic is empty —
// its reports carry no information — so the streaming store only tracks the
// report tally.
func (pr *uniProtocol) NewCollector() (mech.Collector, error) {
	check := func(r mech.Report) error {
		if r.Seed != 0 || r.Value != 0 {
			return fmt.Errorf("baselines: Uni report must be empty")
		}
		return nil
	}
	return mech.NewCountCollector(pr, check, []mech.GroupSpec{{}}, pr.estimate)
}

// estimate is the uniform guess: it reads none of the statistics. The
// collector still snapshots or drains before calling it, so estimating a
// finalized Uni collector is an error like everywhere else.
func (pr *uniProtocol) estimate([]mech.GroupCounts) (mech.Estimator, error) {
	d, cc := pr.p.D, pr.p.C
	return mech.EstimatorFunc(func(q query.Query) (float64, error) {
		if err := q.Validate(d, cc); err != nil {
			return 0, err
		}
		return q.Volume(cc), nil
	}), nil
}
