package mech

import "fmt"

// DiffStates computes the incremental state between two snapshots of the
// same collector: cur − prev, where prev is an earlier State() export of the
// collector that later exported cur. The result is itself a CollectorState —
// same version, deployment identity, and group layout — carrying only what
// arrived between the two snapshots, so a standard Merge of the delta into a
// downstream collector that already holds prev reconstructs cur exactly.
// That makes DiffStates the shard-side half of delta pushing: a shard
// remembers the last state it shipped and sends only the difference.
//
//   - v2 (count states): per group, the delta report tally is cur.N − prev.N
//     and the delta vector is the element-wise difference of the folded
//     counts. Entries may be negative (Hadamard folds ±1), which the v2
//     codec's zigzag varints encode natively.
//   - v3 (hybrid states): streamed groups diff like v2; a retained group's
//     delta is its report suffix beyond prev's length (retained stores are
//     append-only, so prev is always a prefix).
//
// v1 (report) states are an input-only format — Merge folds them in, but no
// collector exports one — so DiffStates rejects them.
//
// A zero-value prev (Version 0) means "nothing shipped yet": the delta is
// cur itself. DiffStates never mutates its arguments; the returned state
// shares no mutable backing with either (count vectors are fresh, report
// suffixes reuse cur's immutable snapshot slices).
func DiffStates(cur, prev CollectorState) (CollectorState, error) {
	if err := cur.Validate(); err != nil {
		return CollectorState{}, err
	}
	if cur.Version == StateVersion {
		return CollectorState{}, fmt.Errorf("mech: cannot diff a v1 report state; no collector exports one")
	}
	if prev.Version == 0 {
		return cur, nil
	}
	if err := prev.Validate(); err != nil {
		return CollectorState{}, err
	}
	if cur.Version != prev.Version || cur.Mech != prev.Mech || cur.Params != prev.Params {
		return CollectorState{}, fmt.Errorf("mech: cannot diff %s v%d state against %s v%d state: %w",
			cur.Mech, cur.Version, prev.Mech, prev.Version, ErrStateMismatch)
	}
	if len(cur.Counts) != len(prev.Counts) {
		return CollectorState{}, fmt.Errorf("mech: cannot diff %d-group state against %d-group state: %w",
			len(cur.Counts), len(prev.Counts), ErrStateMismatch)
	}
	out := CollectorState{Version: cur.Version, Mech: cur.Mech, Params: cur.Params,
		Counts: make([]GroupCounts, len(cur.Counts))}
	for g := range cur.Counts {
		cg, pg := cur.Counts[g], prev.Counts[g]
		if cg.N < pg.N {
			return CollectorState{}, fmt.Errorf("mech: group %d regressed from %d to %d reports; prev is not an earlier snapshot of cur",
				g, pg.N, cg.N)
		}
		if len(cg.Counts) != len(pg.Counts) {
			return CollectorState{}, fmt.Errorf("mech: group %d count-vector length changed from %d to %d: %w",
				g, len(pg.Counts), len(cg.Counts), ErrStateMismatch)
		}
		// A v3 retained group diffs by report suffix. (A retained group never
		// carries counts and a streamed group never carries reports, so the
		// shape checks above and the N regression check cover mixed inputs.)
		if len(cg.Reports) < len(pg.Reports) {
			return CollectorState{}, fmt.Errorf("mech: group %d regressed from %d to %d retained reports; prev is not an earlier snapshot of cur",
				g, len(pg.Reports), len(cg.Reports))
		}
		gc := GroupCounts{N: cg.N - pg.N}
		if len(cg.Counts) > 0 {
			gc.Counts = make([]int64, len(cg.Counts))
			for i := range cg.Counts {
				gc.Counts[i] = cg.Counts[i] - pg.Counts[i]
			}
		}
		if len(cg.Reports) > 0 {
			suffix := cg.Reports[len(pg.Reports):]
			gc.Reports = suffix[:len(suffix):len(suffix)]
		}
		out.Counts[g] = gc
	}
	return out, nil
}
