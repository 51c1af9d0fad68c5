package mech

import (
	"sync"

	"privmdr/internal/fo"
)

// foRunPool recycles the []fo.Report buffers OracleSpec's fold unwraps
// wire reports into, so the warm ingest path allocates nothing per run.
// Reports hold no pointers, so a pooled buffer retains no references between
// uses.
var foRunPool = sync.Pool{New: func() any { return new([]fo.Report) }}

// maxPooledRunScratch caps the per-report scratch the batch-ingest pools
// retain, in reports. Typical network frames (hundreds to a few thousand
// reports) stay far under it and run zero-alloc warm; a one-off giant batch
// allocates transiently — amortized over its own length — instead of
// pinning O(batch) pool memory for the process lifetime.
const maxPooledRunScratch = 8192

// OracleSpec is the GroupSpec for a group that streams through a frequency
// oracle: its fold unwraps a same-group run into a pooled buffer and hands
// it to the oracle's Fold. It is the one adapter between the wire Report
// and fo.Report shapes, shared by every oracle-backed mechanism (HDG, TDG,
// CALM, and the levels of HIO and LHIO). The fold satisfies GroupSpec's
// concurrency contract — an oracle's Fold is safe on distinct count vectors
// and foRunPool is a sync.Pool — so the sharded collector may run it on the
// same group's different stripes from concurrent writers.
func OracleSpec(o fo.Oracle) GroupSpec {
	return GroupSpec{
		Len: o.StatLen(),
		Fold: func(rs []Report, counts []int64) {
			bp := foRunPool.Get().(*[]fo.Report)
			run := (*bp)[:0]
			for i := range rs {
				run = append(run, fo.Report{Seed: rs[i].Seed, Value: rs[i].Value})
			}
			o.Fold(run, counts)
			if cap(run) > maxPooledRunScratch {
				run = nil
			}
			*bp = run[:0]
			foRunPool.Put(bp)
		},
	}
}
