package mech

import (
	"encoding/binary"
	"fmt"

	"privmdr/internal/fo"
)

// Report is the single sanitized message one user sends to the aggregator.
// It is self-contained for the wire: Group routes it to the right
// frequency-oracle state on the server, Seed carries the user's hash seed
// (OLH) or Hadamard row, and Value the perturbed categorical value, hashed
// value, sign bit, or Square-Wave bucket — whatever the mechanism's client
// side emits. Mechanisms whose reports carry no randomness (Uni, the LHIO
// root level) leave Seed and Value zero.
//
// Reports serialize to JSON (the struct tags below) and to a compact binary
// format (MarshalBinary / AppendBinary): a version byte followed by the
// three fields as varints, 4–13 bytes per report in practice.
type Report struct {
	Group int    `json:"g"`
	Seed  uint64 `json:"s,omitempty"`
	Value int    `json:"v"`
}

// FO converts the wire report into the frequency-oracle message it carries.
func (r Report) FO() fo.Report { return fo.Report{Seed: r.Seed, Value: r.Value} }

// FromFO wraps a frequency-oracle message into a wire report for a group.
func FromFO(group int, r fo.Report) Report {
	return Report{Group: group, Seed: r.Seed, Value: r.Value}
}

// FOReports unwraps a group's wire reports for oracle aggregation.
func FOReports(rs []Report) []fo.Report {
	out := make([]fo.Report, len(rs))
	for i, r := range rs {
		out[i] = r.FO()
	}
	return out
}

// reportVersion is the wire-format version byte leading every binary report.
const reportVersion = 1

// maxBinaryReport bounds one encoded report: version byte plus three
// maximal varints.
const maxBinaryReport = 1 + 3*binary.MaxVarintLen64

// AppendBinary appends the report's binary encoding to dst and returns the
// extended slice.
func (r Report) AppendBinary(dst []byte) ([]byte, error) {
	if r.Group < 0 {
		return dst, fmt.Errorf("mech: cannot encode report with negative group %d", r.Group)
	}
	if r.Value < 0 {
		return dst, fmt.Errorf("mech: cannot encode report with negative value %d", r.Value)
	}
	dst = append(dst, reportVersion)
	dst = binary.AppendUvarint(dst, uint64(r.Group))
	dst = binary.AppendUvarint(dst, r.Seed)
	dst = binary.AppendUvarint(dst, uint64(r.Value))
	return dst, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (r Report) MarshalBinary() ([]byte, error) {
	return r.AppendBinary(make([]byte, 0, maxBinaryReport))
}

// UvarintStrict decodes the minimally-encoded uvarint at the head of data,
// returning the value and the bytes consumed; what names the field in
// errors. Truncated, overflowing, and non-minimal (overlong) encodings are
// all rejected, so every value has exactly one wire form. Every binary
// framing in the module (PMCS, PMSS, PMDP, PMJR, PMAS) and the report codec
// read their varints through it.
func UvarintStrict(data []byte, what string) (uint64, int, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, fmt.Errorf("mech: truncated or overflowing varint for %s", what)
	}
	if n > 1 && v>>(7*(n-1)) == 0 {
		return 0, 0, fmt.Errorf("mech: non-minimal varint for %s", what)
	}
	return v, n, nil
}

// varintStrict decodes a minimally-encoded zigzag varint (the signed
// counterpart of UvarintStrict): the underlying uvarint must be minimal, so
// every signed value has exactly one wire form.
func varintStrict(data []byte, what string) (int64, int, error) {
	u, n, err := UvarintStrict(data, what)
	if err != nil {
		return 0, 0, err
	}
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v, n, nil
}

// decodeReport reads one report from the front of data and returns the
// number of bytes consumed.
func decodeReport(data []byte) (Report, int, error) {
	if len(data) == 0 {
		return Report{}, 0, fmt.Errorf("mech: empty report payload")
	}
	if data[0] != reportVersion {
		return Report{}, 0, fmt.Errorf("mech: unknown report version %d", data[0])
	}
	off := 1
	group, n, err := UvarintStrict(data[off:], "report group")
	if err != nil {
		return Report{}, 0, err
	}
	off += n
	seed, n, err := UvarintStrict(data[off:], "report seed")
	if err != nil {
		return Report{}, 0, err
	}
	off += n
	value, n, err := UvarintStrict(data[off:], "report value")
	if err != nil {
		return Report{}, 0, err
	}
	off += n
	const maxInt = int(^uint(0) >> 1)
	if group > uint64(maxInt) || value > uint64(maxInt) {
		return Report{}, 0, fmt.Errorf("mech: report field overflows int")
	}
	return Report{Group: int(group), Seed: seed, Value: int(value)}, off, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The payload must
// contain exactly one report; trailing bytes are rejected.
func (r *Report) UnmarshalBinary(data []byte) error {
	rep, n, err := decodeReport(data)
	if err != nil {
		return err
	}
	if n != len(data) {
		return fmt.Errorf("mech: %d trailing bytes after report", len(data)-n)
	}
	*r = rep
	return nil
}

// EncodeReports packs a batch of reports into one self-delimiting payload:
// a uvarint count followed by each report's binary encoding. This is the
// frame clients ship over the network and the format the privmdr CLI writes
// to report files.
func EncodeReports(rs []Report) ([]byte, error) {
	out := binary.AppendUvarint(make([]byte, 0, 1+len(rs)*5), uint64(len(rs)))
	var err error
	for _, r := range rs {
		out, err = r.AppendBinary(out)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DecodeReports unpacks a payload written by EncodeReports, rejecting
// truncated, oversized, or trailing data.
func DecodeReports(data []byte) ([]Report, error) {
	out, err := AppendDecodedReports(nil, data)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AppendDecodedReports is DecodeReports into a caller-owned slice: the
// decoded reports are appended to dst (reusing its capacity), which is what
// lets a server decode every incoming frame into a pooled buffer without
// allocating per request. On error the returned slice must be treated as
// scratch — truncate it with [:0] before reuse — but its capacity is
// preserved, so a pooled buffer survives malformed frames.
func AppendDecodedReports(dst []Report, data []byte) ([]Report, error) {
	count, n, err := UvarintStrict(data, "report batch header")
	if err != nil {
		return dst, err
	}
	data = data[n:]
	// Each report is at least 4 bytes; a huge count with a short payload is
	// rejected before allocating.
	if count > uint64(len(data))/4 {
		return dst, fmt.Errorf("mech: batch claims %d reports but only %d bytes follow", count, len(data))
	}
	if need := len(dst) + int(count); cap(dst) < need {
		grown := make([]Report, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	for i := uint64(0); i < count; i++ {
		rep, used, err := decodeReport(data)
		if err != nil {
			return dst, fmt.Errorf("mech: report %d of %d: %w", i, count, err)
		}
		data = data[used:]
		dst = append(dst, rep)
	}
	if len(data) != 0 {
		return dst, fmt.Errorf("mech: %d trailing bytes after report batch", len(data))
	}
	return dst, nil
}
