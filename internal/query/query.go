// Package query defines multi-dimensional range queries, the random
// workloads used in the paper's evaluation (volume-ω queries, full 2-D
// range/marginal enumerations, 0-count and non-0-count filters), exact
// answer computation over a dataset, and the MAE utility metric.
package query

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"

	"privmdr/internal/dataset"
)

// Pred is one conjunct of a range query: attribute Attr restricted to the
// inclusive interval [Lo, Hi] (0-based). The JSON form is the wire format
// of the HTTP query service.
type Pred struct {
	Attr int `json:"attr"`
	Lo   int `json:"lo"`
	Hi   int `json:"hi"`
}

// Query is a conjunction of predicates over distinct attributes. Its answer
// is the fraction of records satisfying every predicate.
type Query []Pred

// Validate checks the query against a d-attribute, domain-c schema:
// distinct in-range attributes and non-empty in-range intervals. It is on
// the per-query answering hot path, so duplicate detection is a λ² scan
// (λ ≤ d, small) rather than a map allocation.
func (q Query) Validate(d, c int) error {
	if len(q) == 0 {
		return fmt.Errorf("query: empty query")
	}
	for i, p := range q {
		if p.Attr < 0 || p.Attr >= d {
			return fmt.Errorf("query: attribute %d outside [0,%d)", p.Attr, d)
		}
		for j := 0; j < i; j++ {
			if q[j].Attr == p.Attr {
				return fmt.Errorf("query: attribute %d appears twice", p.Attr)
			}
		}
		if p.Lo < 0 || p.Hi >= c || p.Lo > p.Hi {
			return fmt.Errorf("query: predicate on attribute %d has invalid interval [%d,%d] for domain %d", p.Attr, p.Lo, p.Hi, c)
		}
	}
	return nil
}

// Volume returns the fraction of the full domain the query covers assuming
// independence: Π (Hi−Lo+1)/c.
func (q Query) Volume(c int) float64 {
	v := 1.0
	for _, p := range q {
		v *= float64(p.Hi-p.Lo+1) / float64(c)
	}
	return v
}

// Sorted returns the query with predicates ordered by attribute. When the
// predicates are already ordered — every workload generator emits them that
// way — q itself is returned without copying; otherwise a sorted copy is
// made, so the receiver is never mutated. Treat the result as read-only.
func (q Query) Sorted() Query {
	sorted := true
	for i := 1; i < len(q); i++ {
		if q[i].Attr < q[i-1].Attr {
			sorted = false
			break
		}
	}
	if sorted {
		return q
	}
	out := make(Query, len(q))
	copy(out, q)
	sort.Slice(out, func(i, j int) bool { return out[i].Attr < out[j].Attr })
	return out
}

// Matches reports whether record row of ds satisfies the query.
func (q Query) Matches(ds *dataset.Dataset, row int) bool {
	for _, p := range q {
		v := int(ds.Cols[p.Attr][row])
		if v < p.Lo || v > p.Hi {
			return false
		}
	}
	return true
}

// Random generates one λ-dimensional query with per-attribute volume omega:
// each chosen attribute gets an interval of length round(ω·c) (at least 1)
// with a uniformly random placement.
func Random(rng *rand.Rand, lambda, d, c int, omega float64) (Query, error) {
	if lambda < 1 || lambda > d {
		return nil, fmt.Errorf("query: lambda %d outside [1,%d]", lambda, d)
	}
	if omega <= 0 || omega > 1 {
		return nil, fmt.Errorf("query: omega %g outside (0,1]", omega)
	}
	length := int(float64(c)*omega + 0.5)
	if length < 1 {
		length = 1
	}
	if length > c {
		length = c
	}
	attrs := rng.Perm(d)[:lambda]
	sort.Ints(attrs)
	q := make(Query, lambda)
	for i, a := range attrs {
		lo := rng.IntN(c - length + 1)
		q[i] = Pred{Attr: a, Lo: lo, Hi: lo + length - 1}
	}
	return q, nil
}

// RandomWorkload generates num independent random queries.
func RandomWorkload(rng *rand.Rand, num, lambda, d, c int, omega float64) ([]Query, error) {
	qs := make([]Query, num)
	for i := range qs {
		q, err := Random(rng, lambda, d, c, omega)
		if err != nil {
			return nil, err
		}
		qs[i] = q
	}
	return qs, nil
}

// CountFilter selects queries by their true answer: Zero keeps only queries
// with answer 0 (Appendix A.4's "0-count" workload), NonZero the others.
type CountFilter int

// Filter values for FilteredWorkload.
const (
	Any CountFilter = iota
	Zero
	NonZero
)

// FilteredWorkload generates num random queries whose true answer over ds
// passes the filter. It gives up (returning what it found) after
// maxAttempts total draws to stay robust on datasets where one class is
// rare; callers should check the returned length.
func FilteredWorkload(rng *rand.Rand, ds *dataset.Dataset, num, lambda int, omega float64, filter CountFilter, maxAttempts int) ([]Query, []float64, error) {
	if maxAttempts <= 0 {
		maxAttempts = 200 * num
	}
	var qs []Query
	var truth []float64
	for attempt := 0; attempt < maxAttempts && len(qs) < num; attempt++ {
		q, err := Random(rng, lambda, ds.D(), ds.C, omega)
		if err != nil {
			return nil, nil, err
		}
		ans := TrueAnswer(ds, q)
		switch filter {
		case Zero:
			if ans != 0 {
				continue
			}
		case NonZero:
			if ans == 0 {
				continue
			}
		}
		qs = append(qs, q)
		truth = append(truth, ans)
	}
	return qs, truth, nil
}

// Full2DRange enumerates every 2-D range query of per-attribute volume omega
// over every attribute pair — the Appendix A.3 "full 2-D range queries"
// workload. Single-cell marginal queries are produced by Full2DMarginals.
func Full2DRange(d, c int, omega float64) []Query {
	length := int(float64(c)*omega + 0.5)
	if length < 1 {
		length = 1
	}
	if length > c {
		length = c
	}
	var qs []Query
	for a := 0; a < d; a++ {
		for b := a + 1; b < d; b++ {
			for la := 0; la+length-1 < c; la++ {
				for lb := 0; lb+length-1 < c; lb++ {
					qs = append(qs, Query{
						{Attr: a, Lo: la, Hi: la + length - 1},
						{Attr: b, Lo: lb, Hi: lb + length - 1},
					})
				}
			}
		}
	}
	return qs
}

// Full2DMarginals enumerates every single-cell 2-D query (the full 2-D
// marginal workload of Appendix A.3): (d choose 2)·c² queries.
func Full2DMarginals(d, c int) []Query {
	var qs []Query
	for a := 0; a < d; a++ {
		for b := a + 1; b < d; b++ {
			for va := 0; va < c; va++ {
				for vb := 0; vb < c; vb++ {
					qs = append(qs, Query{
						{Attr: a, Lo: va, Hi: va},
						{Attr: b, Lo: vb, Hi: vb},
					})
				}
			}
		}
	}
	return qs
}

// TrueAnswer computes the exact fraction of records satisfying q.
func TrueAnswer(ds *dataset.Dataset, q Query) float64 {
	n := ds.N()
	if n == 0 {
		return 0
	}
	count := 0
	for i := 0; i < n; i++ {
		if q.Matches(ds, i) {
			count++
		}
	}
	return float64(count) / float64(n)
}

// TrueAnswers computes exact answers for a whole workload, parallelizing
// across queries.
func TrueAnswers(ds *dataset.Dataset, qs []Query) []float64 {
	out := make([]float64, len(qs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(qs) {
		workers = len(qs)
	}
	if workers <= 1 {
		for i, q := range qs {
			out[i] = TrueAnswer(ds, q)
		}
		return out
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = TrueAnswer(ds, qs[i])
			}
		}()
	}
	for i := range qs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// MAE returns the mean absolute error between estimates and truth.
func MAE(est, truth []float64) float64 {
	if len(est) != len(truth) || len(est) == 0 {
		return 0
	}
	s := 0.0
	for i := range est {
		d := est[i] - truth[i]
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s / float64(len(est))
}
