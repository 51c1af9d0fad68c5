package mech

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"

	"privmdr/internal/dataset"
	"privmdr/internal/ldprand"
)

// Params are the public parameters of an LDP deployment. Every field is
// known to (or published to) all parties — aggregator and clients alike —
// and none depends on any user's data. Seed drives the public user→group
// assignment and, in simulations, the per-user client randomness; a real
// client perturbs with OS entropy instead and nothing changes for the
// aggregator.
type Params struct {
	N    int     `json:"n"`    // number of enrolled users
	D    int     `json:"d"`    // attributes per record
	C    int     `json:"c"`    // per-attribute domain size
	Eps  float64 `json:"eps"`  // privacy budget per user
	Seed uint64  `json:"seed"` // public assignment seed
}

// Validate checks the mechanism-independent constraints; protocols layer
// their own (power-of-two domains, minimum attribute counts, …) on top.
func (p Params) Validate(minAttrs int) error {
	if p.N < 1 {
		return fmt.Errorf("mech: params need at least 1 user, got %d", p.N)
	}
	if p.D < minAttrs {
		return fmt.Errorf("mech: need at least %d attributes, params have %d", minAttrs, p.D)
	}
	if p.C < 2 {
		return fmt.Errorf("mech: domain size %d must be at least 2", p.C)
	}
	if p.Eps <= 0 {
		return fmt.Errorf("mech: epsilon must be positive, got %g", p.Eps)
	}
	return nil
}

// Assignment tells one user which report to produce. Group indexes the
// mechanism's canonical group order and is authoritative; the remaining
// fields describe the group so a client (or an auditor) can see what is
// reported. Attr1 < 0 means the group encodes the whole record (HIO);
// Attr2 < 0 means a single-attribute group. Domain is the frequency-oracle
// input domain, or 0 when the group's report is not a categorical
// frequency-oracle message.
type Assignment struct {
	Group  int
	Attr1  int
	Attr2  int
	Domain int
}

// Protocol is the deployment-shaped face of a mechanism: the explicit split
// between the client side (Assignment + ClientReport) and the aggregator
// side (NewCollector). A Protocol is a pure function of public parameters —
// both parties construct an identical instance from Params alone, so the
// only user-derived bytes that ever cross the wire are Reports.
type Protocol interface {
	// Name is the mechanism name (HDG, TDG, Uni, …).
	Name() string
	// Params returns the public parameters the protocol was built from.
	Params() Params
	// NumGroups is the number of user groups ("principle of dividing
	// users", Section 2.3); Report.Group ranges over [0, NumGroups).
	NumGroups() int
	// Assignment returns user i's group assignment — a pure function of
	// Params, never of user data.
	Assignment(user int) (Assignment, error)
	// ClientReport runs the client side for one user: encode the record
	// for the assigned group and perturb it into the single ε-LDP report.
	// This is the privacy boundary; rng is the client's own entropy.
	ClientReport(a Assignment, record []int, rng *rand.Rand) (Report, error)
	// NewCollector returns a fresh aggregator for this protocol instance.
	NewCollector() (Collector, error)
}

// Collector is the aggregator side of a deployment. Submit and SubmitBatch
// are safe for concurrent use. Estimate post-processes a point-in-time
// snapshot of everything received into an Estimator without closing
// ingestion — it may be called any number of times, concurrently with
// submissions, which is what lets a long-lived server re-estimate
// continuously (epoch serving). Finalize is Estimate over everything
// received plus a permanent close of ingestion: the terminal transition.
// Estimates depend only on the multiset of submitted reports, never on
// arrival order, so an Estimate over a report prefix is bit-identical to a
// one-shot Finalize of a fresh collector fed the same prefix.
type Collector interface {
	Submit(r Report) error
	SubmitBatch(rs []Report) error
	// Received reports how many reports have been accepted so far.
	Received() int
	// Estimate builds an Estimator from a consistent snapshot of the
	// reports accepted so far, leaving ingestion open. It fails with
	// ErrFinalized once Finalize has closed the collector.
	Estimate() (Estimator, error)
	// Finalize builds the final Estimator and permanently closes ingestion;
	// a second call (and any later Submit, State, Merge, or Estimate) fails
	// with ErrFinalized.
	Finalize() (Estimator, error)
}

// ClientRand returns the canonical per-user randomness stream simulations
// use for client-side perturbation: independent across users and a pure
// function of (Params.Seed, user), which is what makes the whole protocol
// path reproducible and order-independent. Production clients should use
// OS entropy instead — the aggregator cannot tell the difference.
func ClientRand(p Params, user int) *rand.Rand {
	return ldprand.Split(p.Seed, 0x636c69656e740000+uint64(user))
}

// Assigner is the public user→group assignment shared by every protocol: a
// permutation of the n users, seeded from Params.Seed, cut into contiguous
// group chunks by the bounds slice (group g holds permutation positions
// [bounds[g], bounds[g+1])). Both sides derive the identical Assigner from
// public data.
type Assigner struct {
	bounds  []int
	groupOf []int32 // nil for the trivial single-group assignment
}

// EvenBounds cuts n users into m near-equal groups; every group is
// non-empty when n ≥ m.
func EvenBounds(n, m int) []int {
	bounds := make([]int, m+1)
	for g := 1; g <= m; g++ {
		bounds[g] = g * n / m
	}
	return bounds
}

// NewAssigner builds the assignment for the given group bounds. It fails if
// any group would be empty.
func NewAssigner(seed uint64, bounds []int) (*Assigner, error) {
	m := len(bounds) - 1
	if m < 1 {
		return nil, fmt.Errorf("mech: assigner needs at least one group")
	}
	n := bounds[m]
	for g := 0; g < m; g++ {
		if bounds[g] >= bounds[g+1] {
			return nil, fmt.Errorf("mech: %d users cannot populate %d groups", n, m)
		}
	}
	a := &Assigner{bounds: bounds}
	if m == 1 {
		return a, nil // one group: the permutation is irrelevant
	}
	perm := ldprand.Perm(ldprand.Split(seed, 0x61737367), n)
	a.groupOf = make([]int32, n)
	g := 0
	for pos, user := range perm {
		for pos >= bounds[g+1] {
			g++
		}
		a.groupOf[user] = int32(g)
	}
	return a, nil
}

// N returns the number of users.
func (a *Assigner) N() int { return a.bounds[len(a.bounds)-1] }

// NumGroups returns the number of groups.
func (a *Assigner) NumGroups() int { return len(a.bounds) - 1 }

// GroupSize returns the population of group g.
func (a *Assigner) GroupSize(g int) int { return a.bounds[g+1] - a.bounds[g] }

// GroupOf returns user i's group.
func (a *Assigner) GroupOf(user int) (int, error) {
	if user < 0 || user >= a.N() {
		return 0, fmt.Errorf("mech: user %d outside [0,%d)", user, a.N())
	}
	if a.groupOf == nil {
		return 0, nil
	}
	return int(a.groupOf[user]), nil
}

// Run simulates a full deployment in one process: every user's client side
// produces its report with ClientRand, and all reports are submitted to a
// fresh collector and finalized. It is the implementation behind Fit — and
// because reports are independent across users and aggregation is
// order-independent, any other schedule (batched, concurrent, partial)
// over the same protocol yields the same estimator for the reports it
// submits.
func Run(p Protocol, ds *dataset.Dataset) (Estimator, error) {
	pp := p.Params()
	if ds == nil || ds.N() == 0 {
		return nil, fmt.Errorf("mech: empty dataset")
	}
	if ds.N() != pp.N || ds.D() != pp.D || ds.C != pp.C {
		return nil, fmt.Errorf("mech: dataset shape (n=%d d=%d c=%d) does not match params (n=%d d=%d c=%d)",
			ds.N(), ds.D(), ds.C, pp.N, pp.D, pp.C)
	}
	coll, err := p.NewCollector()
	if err != nil {
		return nil, err
	}
	// Reports are submitted in frames from a small worker pool rather than
	// one at a time from the simulation loop: the estimator is bit-identical
	// under any schedule (every collector statistic is a vector of commuting
	// integer adds, and every collector is safe for concurrent submission),
	// framed submission hands the collectors' folds long same-group runs,
	// and the workers spread the fold cost — which matters most for
	// oracle-heavy protocols like HIO, whose fold walks the group's whole
	// domain for every report — across the machine. The client side stays a single
	// deterministic loop; only aggregation is concurrent.
	const runFrame = 1024
	workers := min(runtime.GOMAXPROCS(0), 8)
	frames := make(chan []Report, workers)
	var wg sync.WaitGroup
	var submitErr error
	var submitOnce sync.Once
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for frame := range frames {
				if err := coll.SubmitBatch(frame); err != nil {
					submitOnce.Do(func() { submitErr = err })
				}
			}
		}()
	}
	record := make([]int, pp.D)
	frame := make([]Report, 0, runFrame)
	clientErr := func() error {
		for user := 0; user < pp.N; user++ {
			a, err := p.Assignment(user)
			if err != nil {
				return err
			}
			for t := 0; t < pp.D; t++ {
				record[t] = ds.Value(t, user)
			}
			rep, err := p.ClientReport(a, record, ClientRand(pp, user))
			if err != nil {
				return err
			}
			frame = append(frame, rep)
			if len(frame) == runFrame {
				frames <- frame
				frame = make([]Report, 0, runFrame)
			}
		}
		if len(frame) > 0 {
			frames <- frame
		}
		return nil
	}()
	close(frames)
	wg.Wait()
	if clientErr != nil {
		return nil, clientErr
	}
	if submitErr != nil {
		return nil, submitErr
	}
	return coll.Finalize()
}

// FitViaProtocol implements Mechanism.Fit on top of the protocol path: the
// public parameters are read off the dataset, the protocol seed is drawn
// from rng, and the deployment is simulated with Run. Identical rng states
// give identical estimators.
func FitViaProtocol(m Mechanism, ds *dataset.Dataset, eps float64, rng *rand.Rand) (Estimator, error) {
	if ds == nil || ds.N() == 0 {
		return nil, fmt.Errorf("mech: empty dataset")
	}
	p, err := m.Protocol(Params{N: ds.N(), D: ds.D(), C: ds.C, Eps: eps, Seed: rng.Uint64()})
	if err != nil {
		return nil, err
	}
	return Run(p, ds)
}

// CheckRecord validates a client record against the public parameters.
func CheckRecord(p Params, record []int) error {
	if len(record) != p.D {
		return fmt.Errorf("mech: record has %d attributes, want %d", len(record), p.D)
	}
	for t, v := range record {
		if v < 0 || v >= p.C {
			return fmt.Errorf("mech: attribute %d value %d outside [0,%d)", t, v, p.C)
		}
	}
	return nil
}
