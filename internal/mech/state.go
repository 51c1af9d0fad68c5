package mech

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// This file defines the mergeable collector state every mechanism exports:
// the sufficient statistic of an aggregation in progress. Because estimation
// depends only on the multiset of accepted reports (aggregation is pure
// counting until deterministic post-processing), that statistic comes in
// three shapes, distinguished by the state version:
//
//   - v1 (ReportState): the per-group report multisets themselves — the
//     shape every pre-streaming snapshot carries. It is input only: the
//     codecs and Validate accept it and every collector folds it in on
//     Merge, but no collector exports it and DiffStates refuses it.
//   - v2 (CountState): per-group folded count vectors plus report tallies —
//     the O(domain) form every fully streaming collector (all 7 mechanisms
//     in their default configurations) exports. Merging two count states is
//     element-wise integer addition.
//   - v3 (HybridState): v2 plus, for the rare group whose enumeration
//     domain exceeds its collector's streaming cap (HIO far above paper
//     scale), the group's raw report multiset instead of a count vector.
//     Only collectors configured with at least one retained group export
//     it; each group carries counts or reports, never both.
//
// Either way, exporting states from N sharded collectors and merging in any
// order finalizes to a bit-identical estimator as one collector ingesting
// everything; merging a v1 state replays its reports through SubmitBatch,
// which is the warm-restart path for snapshots written before the collector
// switched to streaming.

// ErrFinalized reports an operation against a collector whose ingestion has
// already been closed by Finalize. Servers map it to 409 Conflict.
var ErrFinalized = errors.New("collector already finalized")

// ErrStateMismatch reports a Merge whose state belongs to a different
// deployment: wrong mechanism, different public Params (including the
// assignment seed), or an incompatible group layout. Servers map it to
// 409 Conflict, distinguishing it from a malformed payload (400).
var ErrStateMismatch = errors.New("collector state mismatch")

// StateVersion is the report-multiset (v1) CollectorState wire-format
// version, carried in both the binary and the JSON encodings.
const StateVersion = 1

// StateVersionCounts is the count-vector (v2) CollectorState wire-format
// version: instead of report multisets the state carries each group's folded
// sufficient statistic, shrinking snapshots from O(n) to O(groups × domain).
const StateVersionCounts = 2

// StateVersionHybrid is the mixed (v3) CollectorState wire-format version: a
// count state in which individual groups may carry their raw report multiset
// instead of a count vector. It exists for collectors with a per-group
// streaming cap (HIO's 4096-value cap): groups whose enumeration domain
// fits the cap fold as in v2, the rare over-cap group retains reports. A
// group carries counts or reports, never both, and a retained group's N
// always equals len(Reports).
const StateVersionHybrid = 3

// GroupCounts is one group's folded sufficient statistic: how many reports
// the group accepted and their count vector (GRR bucket counts, OLH support
// tallies, Hadamard signed row counts, SW bucket counts, …). Counts may be
// empty for groups whose reports carry no information (Uni). Entries can be
// negative (Hadamard folds ±1), so the binary codec packs them as zigzag
// varints. In a v3 (hybrid) state a retained group carries Reports — its
// raw report multiset — instead of Counts; v2 states never set Reports.
type GroupCounts struct {
	N       int64    `json:"n"`
	Counts  []int64  `json:"counts,omitempty"`
	Reports []Report `json:"reports,omitempty"`
}

// CollectorState is a versioned, self-describing snapshot of a collector's
// aggregation state: the public deployment identity (mechanism name +
// Params) and the sufficient statistic received so far — per-group report
// multisets (Version 1, Groups set), per-group count vectors (Version 2,
// Counts set), or count vectors with individual retained-report groups
// (Version 3, Counts set with per-group Reports). It is the unit of sharded
// aggregation — export with
// StatefulCollector.State, ship or persist it, and combine with
// StatefulCollector.Merge. Reports in Groups[g] all carry Group == g; both
// codecs enforce this.
type CollectorState struct {
	Version int           `json:"version"`
	Mech    string        `json:"mech"`
	Params  Params        `json:"params"`
	Groups  [][]Report    `json:"groups,omitempty"`
	Counts  []GroupCounts `json:"counts,omitempty"`
}

// StatefulCollector is a Collector whose aggregation state can be exported
// and merged — the mergeable-sketch property that makes sharded ingestion
// and warm restarts possible. Every collector in this module implements it.
//
// The invariant: for any partition of a deployment's reports across N
// collectors of the same protocol, merging the N states into any one of
// them (or a fresh collector) in any order and finalizing yields an
// estimator bit-identical to a single collector that ingested all reports.
type StatefulCollector interface {
	Collector
	// State snapshots the reports accepted so far. It fails with
	// ErrFinalized once ingestion is closed.
	State() (CollectorState, error)
	// Merge folds another collector's exported state into this one. The
	// state must come from the same deployment — same mechanism, identical
	// Params (seed included), same group count — or Merge fails with
	// ErrStateMismatch; a structurally invalid state fails with an ordinary
	// error, and ErrFinalized is returned once ingestion is closed.
	Merge(CollectorState) error
}

// Received is the total number of reports carried by the state.
func (st CollectorState) Received() int {
	if st.Version == StateVersionCounts || st.Version == StateVersionHybrid {
		n := int64(0)
		for _, g := range st.Counts {
			n += g.N
		}
		return int(n)
	}
	n := 0
	for _, g := range st.Groups {
		n += len(g)
	}
	return n
}

// maxStateMechName bounds the mechanism-name field in the wire format, so a
// hostile length prefix cannot drive a large allocation.
const maxStateMechName = 64

// maxStateGroups bounds the group count a state may carry. Group slice
// headers cost ~24 bytes each while an empty group costs one wire byte, so
// without a cap a small payload could claim tens of millions of empty
// groups and amplify itself ~24x in memory before Merge ever checks the
// layout. 2²¹ (~2M) groups is far above any protocol in this module (HIO's
// levels^d group count is bounded by its user count) while capping the
// decoder's worst-case slice-header allocation at ~50 MB.
const maxStateGroups = 1 << 21

// maxStateCounts bounds one group's count-vector length in a v2 state. The
// largest statistic in this module is CALM's Hadamard order at c = 2¹⁰
// (K = 2²¹ rows); 2²⁴ leaves headroom while capping a single group's decode
// allocation at 128 MB — and the decoder additionally requires at least one
// payload byte per claimed entry before allocating.
const maxStateCounts = 1 << 24

// Validate checks the state's structural invariants — supported version,
// bounded mechanism name, and the shape matching the version: report
// multisets with every report tagged with its group index (v1), count
// groups with non-negative report tallies (v2), or count groups where a
// retained group carries its reports instead of a vector (v3). It vets
// structure only; deployment identity is Merge's job.
func (st CollectorState) Validate() error {
	switch st.Version {
	case StateVersion:
		if len(st.Counts) != 0 {
			return fmt.Errorf("mech: report state (v1) carries %d count groups", len(st.Counts))
		}
		if len(st.Groups) > maxStateGroups {
			return fmt.Errorf("mech: collector state carries %d groups, limit %d", len(st.Groups), maxStateGroups)
		}
		for g, rs := range st.Groups {
			for i, r := range rs {
				if r.Group != g {
					return fmt.Errorf("mech: state group %d report %d tagged with group %d", g, i, r.Group)
				}
				if r.Value < 0 {
					return fmt.Errorf("mech: state group %d report %d has negative value %d", g, i, r.Value)
				}
			}
		}
	case StateVersionCounts, StateVersionHybrid:
		if len(st.Groups) != 0 {
			return fmt.Errorf("mech: count state (v%d) carries %d report groups", st.Version, len(st.Groups))
		}
		if len(st.Counts) > maxStateGroups {
			return fmt.Errorf("mech: collector state carries %d groups, limit %d", len(st.Counts), maxStateGroups)
		}
		for g, gc := range st.Counts {
			if gc.N < 0 {
				return fmt.Errorf("mech: state group %d carries negative report count %d", g, gc.N)
			}
			if len(gc.Counts) > maxStateCounts {
				return fmt.Errorf("mech: state group %d carries %d counts, limit %d", g, len(gc.Counts), maxStateCounts)
			}
			if st.Version == StateVersionCounts {
				if len(gc.Reports) != 0 {
					return fmt.Errorf("mech: count state (v2) group %d carries %d retained reports", g, len(gc.Reports))
				}
				continue
			}
			// v3: a retained group carries reports instead of a vector, and its
			// tally is exactly its multiset size.
			if len(gc.Reports) > 0 {
				if len(gc.Counts) != 0 {
					return fmt.Errorf("mech: hybrid state group %d carries both %d counts and %d reports", g, len(gc.Counts), len(gc.Reports))
				}
				if gc.N != int64(len(gc.Reports)) {
					return fmt.Errorf("mech: hybrid state group %d tallies %d reports but retains %d", g, gc.N, len(gc.Reports))
				}
			}
			for i, r := range gc.Reports {
				if r.Group != g {
					return fmt.Errorf("mech: state group %d report %d tagged with group %d", g, i, r.Group)
				}
				if r.Value < 0 {
					return fmt.Errorf("mech: state group %d report %d has negative value %d", g, i, r.Value)
				}
			}
		}
	default:
		return fmt.Errorf("mech: unsupported collector state version %d", st.Version)
	}
	if len(st.Mech) == 0 || len(st.Mech) > maxStateMechName {
		return fmt.Errorf("mech: collector state mechanism name length %d outside [1,%d]", len(st.Mech), maxStateMechName)
	}
	return nil
}

// stateMagic leads every binary collector state, making snapshots on disk
// self-identifying.
var stateMagic = [4]byte{'P', 'M', 'C', 'S'}

// AppendBinary appends the state's binary encoding to dst:
//
//	4 bytes  magic "PMCS"
//	1 byte   version (1 reports, 2 counts, 3 hybrid)
//	uvarint  mechanism-name length, then the name bytes
//	uvarint  N, D, C
//	8 bytes  little-endian IEEE-754 bits of Eps
//	8 bytes  little-endian Seed
//	uvarint  group count
//	v1, per group: uvarint report count, then each report's binary encoding
//	v2, per group: uvarint report count, uvarint count-vector length, then
//	               each count as a zigzag varint
//	v3, per group: the v2 group encoding, then uvarint retained-report
//	               count and each retained report's binary encoding
//
// All varints are minimal, so every state has exactly one wire form.
func (st CollectorState) AppendBinary(dst []byte) ([]byte, error) {
	if err := st.Validate(); err != nil {
		return dst, err
	}
	if st.Params.N < 0 || st.Params.D < 0 || st.Params.C < 0 {
		return dst, fmt.Errorf("mech: cannot encode state with negative params %+v", st.Params)
	}
	dst = append(dst, stateMagic[:]...)
	dst = append(dst, byte(st.Version))
	dst = binary.AppendUvarint(dst, uint64(len(st.Mech)))
	dst = append(dst, st.Mech...)
	dst = binary.AppendUvarint(dst, uint64(st.Params.N))
	dst = binary.AppendUvarint(dst, uint64(st.Params.D))
	dst = binary.AppendUvarint(dst, uint64(st.Params.C))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(st.Params.Eps))
	dst = binary.LittleEndian.AppendUint64(dst, st.Params.Seed)
	if st.Version == StateVersionCounts || st.Version == StateVersionHybrid {
		dst = binary.AppendUvarint(dst, uint64(len(st.Counts)))
		for _, gc := range st.Counts {
			dst = binary.AppendUvarint(dst, uint64(gc.N))
			dst = binary.AppendUvarint(dst, uint64(len(gc.Counts)))
			for _, c := range gc.Counts {
				dst = binary.AppendVarint(dst, c)
			}
			if st.Version == StateVersionHybrid {
				dst = binary.AppendUvarint(dst, uint64(len(gc.Reports)))
				var err error
				for _, r := range gc.Reports {
					dst, err = r.AppendBinary(dst)
					if err != nil {
						return dst, err
					}
				}
			}
		}
		return dst, nil
	}
	dst = binary.AppendUvarint(dst, uint64(len(st.Groups)))
	var err error
	for _, rs := range st.Groups {
		dst = binary.AppendUvarint(dst, uint64(len(rs)))
		for _, r := range rs {
			dst, err = r.AppendBinary(dst)
			if err != nil {
				return dst, err
			}
		}
	}
	return dst, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (st CollectorState) MarshalBinary() ([]byte, error) {
	size := 64 + st.Received()*8
	if st.Version == StateVersionCounts || st.Version == StateVersionHybrid {
		size = 64
		for _, gc := range st.Counts {
			size += 11 + 2*len(gc.Counts) + 8*len(gc.Reports)
		}
	}
	return st.AppendBinary(make([]byte, 0, size))
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. It rejects unknown
// magic/version bytes, truncated or overlong varints, implausible counts,
// reports tagged with the wrong group, and trailing bytes — arbitrary input
// never panics and never drives an unbounded allocation.
func (st *CollectorState) UnmarshalBinary(data []byte) error {
	if len(data) < len(stateMagic)+1 {
		return fmt.Errorf("mech: collector state truncated at header")
	}
	if [4]byte(data[:4]) != stateMagic {
		return fmt.Errorf("mech: collector state magic %q unknown", data[:4])
	}
	if data[4] != StateVersion && data[4] != StateVersionCounts && data[4] != StateVersionHybrid {
		return fmt.Errorf("mech: unsupported collector state version %d", data[4])
	}
	out := CollectorState{Version: int(data[4])}
	data = data[5:]
	nameLen, n, err := UvarintStrict(data, "state name length")
	if err != nil {
		return err
	}
	data = data[n:]
	if nameLen == 0 || nameLen > maxStateMechName {
		return fmt.Errorf("mech: collector state mechanism name length %d outside [1,%d]", nameLen, maxStateMechName)
	}
	if uint64(len(data)) < nameLen {
		return fmt.Errorf("mech: collector state truncated in mechanism name")
	}
	out.Mech = string(data[:nameLen])
	data = data[nameLen:]

	const maxInt = int(^uint(0) >> 1)
	for _, f := range []struct {
		what string
		dst  *int
	}{{"params n", &out.Params.N}, {"params d", &out.Params.D}, {"params c", &out.Params.C}} {
		v, n, err := UvarintStrict(data, f.what)
		if err != nil {
			return err
		}
		if v > uint64(maxInt) {
			return fmt.Errorf("mech: collector state %s overflows int", f.what)
		}
		*f.dst = int(v)
		data = data[n:]
	}
	if len(data) < 16 {
		return fmt.Errorf("mech: collector state truncated in params")
	}
	out.Params.Eps = math.Float64frombits(binary.LittleEndian.Uint64(data))
	out.Params.Seed = binary.LittleEndian.Uint64(data[8:])
	data = data[16:]

	groups, n, err := UvarintStrict(data, "state group count")
	if err != nil {
		return err
	}
	data = data[n:]
	// Every group costs at least the one-byte report count that follows, so
	// a huge claimed count with a short payload is rejected before
	// allocating — and even byte-backed counts stop at maxStateGroups,
	// bounding the slice-header amplification a payload can buy.
	if groups > uint64(len(data)) {
		return fmt.Errorf("mech: state claims %d groups but only %d bytes follow", groups, len(data))
	}
	if groups > maxStateGroups {
		return fmt.Errorf("mech: state claims %d groups, limit %d", groups, maxStateGroups)
	}
	if out.Version == StateVersionCounts || out.Version == StateVersionHybrid {
		out.Counts = make([]GroupCounts, groups)
		for g := range out.Counts {
			nRep, n, err := UvarintStrict(data, "state group report count")
			if err != nil {
				return fmt.Errorf("mech: state group %d: %w", g, err)
			}
			if nRep > math.MaxInt64 {
				return fmt.Errorf("mech: state group %d report count overflows int64", g)
			}
			data = data[n:]
			clen, n, err := UvarintStrict(data, "state count-vector length")
			if err != nil {
				return fmt.Errorf("mech: state group %d: %w", g, err)
			}
			data = data[n:]
			// Each count is at least one byte on the wire, and even
			// byte-backed lengths stop at maxStateCounts, bounding the
			// decoder's allocation at 8x the payload size.
			if clen > uint64(len(data)) {
				return fmt.Errorf("mech: state group %d claims %d counts but only %d bytes follow", g, clen, len(data))
			}
			if clen > maxStateCounts {
				return fmt.Errorf("mech: state group %d claims %d counts, limit %d", g, clen, maxStateCounts)
			}
			gc := GroupCounts{N: int64(nRep)}
			if clen > 0 {
				gc.Counts = make([]int64, clen)
				for i := range gc.Counts {
					c, n, err := varintStrict(data, "state count")
					if err != nil {
						return fmt.Errorf("mech: state group %d count %d: %w", g, i, err)
					}
					data = data[n:]
					gc.Counts[i] = c
				}
			}
			if out.Version == StateVersionHybrid {
				count, n, err := UvarintStrict(data, "state retained-report count")
				if err != nil {
					return fmt.Errorf("mech: state group %d: %w", g, err)
				}
				data = data[n:]
				// Each report is at least 4 bytes on the wire.
				if count > uint64(len(data))/4 {
					return fmt.Errorf("mech: state group %d claims %d retained reports but only %d bytes follow", g, count, len(data))
				}
				// Enforce the hybrid shape invariants Validate checks, so any
				// state this decoder accepts validates and re-encodes
				// canonically: counts or reports, never both, and a retained
				// group's tally is its multiset size.
				if count > 0 {
					if clen != 0 {
						return fmt.Errorf("mech: state group %d carries both %d counts and %d retained reports", g, clen, count)
					}
					if nRep != count {
						return fmt.Errorf("mech: state group %d tallies %d reports but retains %d", g, nRep, count)
					}
					rs := make([]Report, 0, count)
					for i := uint64(0); i < count; i++ {
						rep, used, err := decodeReport(data)
						if err != nil {
							return fmt.Errorf("mech: state group %d report %d: %w", g, i, err)
						}
						if rep.Group != g {
							return fmt.Errorf("mech: state group %d report %d tagged with group %d", g, i, rep.Group)
						}
						data = data[used:]
						rs = append(rs, rep)
					}
					gc.Reports = rs
				}
			}
			out.Counts[g] = gc
		}
		if len(data) != 0 {
			return fmt.Errorf("mech: %d trailing bytes after collector state", len(data))
		}
		*st = out
		return nil
	}
	out.Groups = make([][]Report, groups)
	for g := range out.Groups {
		count, n, err := UvarintStrict(data, "state report count")
		if err != nil {
			return fmt.Errorf("mech: state group %d: %w", g, err)
		}
		data = data[n:]
		// Each report is at least 4 bytes on the wire.
		if count > uint64(len(data))/4 {
			return fmt.Errorf("mech: state group %d claims %d reports but only %d bytes follow", g, count, len(data))
		}
		rs := make([]Report, 0, count)
		for i := uint64(0); i < count; i++ {
			rep, used, err := decodeReport(data)
			if err != nil {
				return fmt.Errorf("mech: state group %d report %d: %w", g, i, err)
			}
			if rep.Group != g {
				return fmt.Errorf("mech: state group %d report %d tagged with group %d", g, i, rep.Group)
			}
			data = data[used:]
			rs = append(rs, rep)
		}
		out.Groups[g] = rs
	}
	if len(data) != 0 {
		return fmt.Errorf("mech: %d trailing bytes after collector state", len(data))
	}
	*st = out
	return nil
}
