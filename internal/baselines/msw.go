package baselines

import (
	"fmt"
	"math/rand/v2"

	"privmdr/internal/dataset"
	"privmdr/internal/mathx"
	"privmdr/internal/mech"
	"privmdr/internal/query"
	"privmdr/internal/sw"
)

// MSW is Multiplied Square Wave (Section 3.5): users are divided into d
// groups, each reporting one attribute through the Square Wave mechanism;
// per-attribute distributions are reconstructed with EMS, and a
// multi-dimensional query is answered by the product of its 1-D answers —
// an implicit independence assumption that fails exactly when attributes
// correlate.
type MSW struct{}

// NewMSW returns an MSW mechanism with the paper's EMS reconstruction.
func NewMSW() *MSW { return &MSW{} }

// Name implements mech.Mechanism.
func (*MSW) Name() string { return "MSW" }

// Fit implements mech.Mechanism as a thin wrapper over the protocol path.
func (m *MSW) Fit(ds *dataset.Dataset, eps float64, rng *rand.Rand) (mech.Estimator, error) {
	return mech.FitViaProtocol(m, ds, eps, rng)
}

// mswProtocol is MSW's deployment face: one group per attribute, each
// reporting through the Square Wave mechanism; Report.Value is the bucket
// index of the perturbed point.
type mswProtocol struct {
	p    mech.Params
	wave *sw.SW // one instance: every attribute shares the domain
	as   *mech.Assigner
}

// Protocol implements mech.Mechanism.
func (*MSW) Protocol(p mech.Params) (mech.Protocol, error) {
	if err := p.Validate(1); err != nil {
		return nil, err
	}
	wave, err := sw.New(p.Eps, p.C)
	if err != nil {
		return nil, err
	}
	as, err := mech.NewAssigner(p.Seed, mech.EvenBounds(p.N, p.D))
	if err != nil {
		return nil, err
	}
	return &mswProtocol{p: p, wave: wave, as: as}, nil
}

// Name implements mech.Protocol.
func (*mswProtocol) Name() string { return "MSW" }

// Params implements mech.Protocol.
func (pr *mswProtocol) Params() mech.Params { return pr.p }

// NumGroups implements mech.Protocol.
func (pr *mswProtocol) NumGroups() int { return pr.p.D }

// Assignment implements mech.Protocol: group g reports attribute g.
func (pr *mswProtocol) Assignment(user int) (mech.Assignment, error) {
	g, err := pr.as.GroupOf(user)
	if err != nil {
		return mech.Assignment{}, err
	}
	return mech.Assignment{Group: g, Attr1: g, Attr2: -1}, nil
}

// ClientReport implements mech.Protocol.
func (pr *mswProtocol) ClientReport(a mech.Assignment, record []int, rng *rand.Rand) (mech.Report, error) {
	if a.Group < 0 || a.Group >= pr.p.D {
		return mech.Report{}, fmt.Errorf("baselines: assignment group %d outside [0,%d)", a.Group, pr.p.D)
	}
	if err := mech.CheckRecord(pr.p, record); err != nil {
		return mech.Report{}, err
	}
	y := pr.wave.Perturb(record[a.Group], rng)
	return mech.Report{Group: a.Group, Value: pr.wave.Bucket(y)}, nil
}

// NewCollector implements mech.Protocol. The collector streams: a report
// is one Square-Wave bucket, so the group statistic is the per-bucket
// histogram EM reconstruction reads at finalize.
func (pr *mswProtocol) NewCollector() (mech.Collector, error) {
	check := func(r mech.Report) error {
		if r.Value < 0 || r.Value >= pr.wave.B {
			return fmt.Errorf("baselines: MSW report bucket %d outside [0,%d)", r.Value, pr.wave.B)
		}
		if r.Seed != 0 {
			return fmt.Errorf("baselines: MSW report carries unexpected seed %d", r.Seed)
		}
		return nil
	}
	specs := make([]mech.GroupSpec, pr.p.D)
	spec := mech.GroupSpec{
		Len: pr.wave.B,
		Fold: func(rs []mech.Report, counts []int64) {
			for i := range rs {
				counts[rs[i].Value]++
			}
		},
	}
	for g := range specs {
		specs[g] = spec
	}
	return mech.NewCountCollector(pr, check, specs, pr.estimate)
}

// estimate runs EMS over each attribute's streamed bucket histogram and
// answers queries as products of 1-D range answers.
func (pr *mswProtocol) estimate(byGroup []mech.GroupCounts) (mech.Estimator, error) {
	d, cc := pr.p.D, pr.p.C
	// cdf[a] holds the prefix sums of attribute a's reconstructed
	// distribution, so a 1-D range answer is one subtraction.
	cdf := make([][]float64, d)
	for a := 0; a < d; a++ {
		dist, err := pr.wave.Reconstruct(byGroup[a].Counts)
		if err != nil {
			return nil, err
		}
		cdf[a] = mathx.Prefix1D(dist)
	}
	return mech.EstimatorFunc(func(q query.Query) (float64, error) {
		if err := q.Validate(d, cc); err != nil {
			return 0, err
		}
		ans := 1.0
		for _, p := range q {
			ans *= cdf[p.Attr][p.Hi+1] - cdf[p.Attr][p.Lo]
		}
		return ans, nil
	}), nil
}
