package dist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"privmdr"
	"privmdr/internal/httpapi"
	"privmdr/internal/mech"
)

// PushEnvelope is one shard→aggregator delta push: the shard's identity, a
// random per-process instance nonce, a per-shard monotonic sequence number,
// and the incremental CollectorState since the shard's previous acknowledged
// push (DiffStates output — count diffs, plus report suffixes for a v3
// state's retained groups).
//
// The sequence number is what makes retries idempotent: the aggregator
// applies seq == last+1, acknowledges seq == last without re-applying (the
// retry of a push whose ACK was lost), and rejects anything else with 409 —
// so a delta can never be double-counted no matter how many times the
// transport replays it.
//
// The nonce is what makes the sequence trustworthy across process lifetimes:
// every shard incarnation draws a fresh random nonce, so the aggregator can
// tell "the same instance retrying seq N" (same nonce — acknowledge, don't
// re-apply) apart from "a restarted or duplicate instance colliding on seq N"
// (different nonce — restart over from seq 1, or reject mid-sequence with
// ErrShardConflict). Without it, a restarted shard's first push would be
// silently swallowed as a duplicate of its previous life's.
type PushEnvelope struct {
	Shard string
	Nonce uint64
	Seq   uint64
	Delta privmdr.CollectorState
}

// pushMagic leads every binary push envelope.
var pushMagic = [4]byte{'P', 'M', 'D', 'P'}

// pushVersion is the envelope's wire-format version byte. Version 2 added
// the instance nonce between the shard ID and the sequence number.
const pushVersion = 2

// maxShardID bounds the shard-ID field, so a hostile length prefix cannot
// drive a large allocation.
const maxShardID = 128

// Validate checks the envelope's structural invariants: a bounded non-empty
// shard ID, a non-zero instance nonce, a positive sequence number (sequences
// start at 1), and a structurally valid delta state.
func (e PushEnvelope) Validate() error {
	if len(e.Shard) == 0 || len(e.Shard) > maxShardID {
		return fmt.Errorf("dist: push shard ID length %d outside [1,%d]", len(e.Shard), maxShardID)
	}
	if e.Nonce == 0 {
		return fmt.Errorf("dist: push instance nonce must be non-zero")
	}
	if e.Seq == 0 {
		return fmt.Errorf("dist: push sequence numbers start at 1")
	}
	return e.Delta.Validate()
}

// AppendBinary appends the envelope's binary encoding to dst:
//
//	4 bytes  magic "PMDP"
//	1 byte   version
//	uvarint  shard-ID length, then the ID bytes
//	uvarint  instance nonce
//	uvarint  sequence number
//	...      the delta CollectorState's binary encoding (self-delimiting)
func (e PushEnvelope) AppendBinary(dst []byte) ([]byte, error) {
	if err := e.Validate(); err != nil {
		return dst, err
	}
	dst = append(dst, pushMagic[:]...)
	dst = append(dst, pushVersion)
	dst = binary.AppendUvarint(dst, uint64(len(e.Shard)))
	dst = append(dst, e.Shard...)
	dst = binary.AppendUvarint(dst, e.Nonce)
	dst = binary.AppendUvarint(dst, e.Seq)
	return e.Delta.AppendBinary(dst)
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (e PushEnvelope) MarshalBinary() ([]byte, error) {
	return e.AppendBinary(make([]byte, 0, 64))
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Arbitrary input
// never panics and never drives an unbounded allocation: the envelope header
// is bounds-checked here and the embedded state rides the CollectorState
// decoder's own caps.
func (e *PushEnvelope) UnmarshalBinary(data []byte) error {
	if len(data) < len(pushMagic)+1 {
		return fmt.Errorf("dist: push envelope truncated at header")
	}
	if [4]byte(data[:4]) != pushMagic {
		return fmt.Errorf("dist: push envelope magic %q unknown", data[:4])
	}
	if data[4] != pushVersion {
		return fmt.Errorf("dist: unsupported push envelope version %d", data[4])
	}
	data = data[5:]
	idLen, n, err := mech.UvarintStrict(data, "push shard ID length")
	if err != nil {
		return err
	}
	data = data[n:]
	if idLen == 0 || idLen > maxShardID {
		return fmt.Errorf("dist: push shard ID length %d outside [1,%d]", idLen, maxShardID)
	}
	if uint64(len(data)) < idLen {
		return fmt.Errorf("dist: push envelope truncated in shard ID")
	}
	out := PushEnvelope{Shard: string(data[:idLen])}
	data = data[idLen:]
	nonce, n, err := mech.UvarintStrict(data, "push instance nonce")
	if err != nil {
		return err
	}
	if nonce == 0 {
		return fmt.Errorf("dist: push instance nonce must be non-zero")
	}
	out.Nonce = nonce
	data = data[n:]
	seq, n, err := mech.UvarintStrict(data, "push sequence number")
	if err != nil {
		return err
	}
	if seq == 0 {
		return fmt.Errorf("dist: push sequence numbers start at 1")
	}
	out.Seq = seq
	data = data[n:]
	if err := out.Delta.UnmarshalBinary(data); err != nil {
		return fmt.Errorf("dist: push delta: %w", err)
	}
	*e = out
	return nil
}

// ── Journal record framing ───────────────────────────────────────────────
//
// The aggregator's write-ahead journal is a flat append-only file of framed
// records, one per applied push, each carrying the push envelope's canonical
// PMDP bytes verbatim. The framing exists so a crash mid-append is
// detectable: a torn or corrupted tail fails the length or CRC check and
// recovery stops there, replaying exactly the prefix of fully-written
// records. Like every other dist codec it is canonical (one wire form per
// record, minimally-encoded varints) and fuzzed (FuzzJournalRecord).

// journalMagic leads every journal record.
var journalMagic = [4]byte{'P', 'M', 'J', 'R'}

// journalRecordVersion is the record framing version byte.
const journalRecordVersion = 1

// maxJournalPayload bounds a record's payload, matching the push-body cap —
// nothing larger can ever have been journaled, so a bigger length prefix is
// corruption, not data.
const maxJournalPayload = httpapi.MaxBody

// crcJournal is the record checksum polynomial (Castagnoli, the usual
// storage CRC).
var crcJournal = crc32.MakeTable(crc32.Castagnoli)

// appendJournalRecord frames payload as one journal record and appends it
// to dst:
//
//	4 bytes  magic "PMJR"
//	1 byte   version
//	uvarint  payload length, then the payload bytes
//	4 bytes  CRC-32C (Castagnoli) of everything above, little-endian
func appendJournalRecord(dst, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, journalMagic[:]...)
	dst = append(dst, journalRecordVersion)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcJournal))
}

// decodeJournalRecord parses the journal record at the head of data,
// returning its payload (aliasing data) and the total framed length
// consumed. Arbitrary input never panics and never drives an allocation;
// any framing defect — short header, wrong magic or version, overlong or
// oversized length, truncated payload, CRC mismatch — is an error, which
// recovery treats as the torn tail of the file.
func decodeJournalRecord(data []byte) (payload []byte, n int, err error) {
	const headerMin = 4 + 1 + 1 // magic + version + at least one length byte
	if len(data) < headerMin {
		return nil, 0, fmt.Errorf("dist: journal record truncated at header")
	}
	if [4]byte(data[:4]) != journalMagic {
		return nil, 0, fmt.Errorf("dist: journal record magic %q unknown", data[:4])
	}
	if data[4] != journalRecordVersion {
		return nil, 0, fmt.Errorf("dist: unsupported journal record version %d", data[4])
	}
	size, ln, err := mech.UvarintStrict(data[5:], "journal record length")
	if err != nil {
		return nil, 0, err
	}
	if size > maxJournalPayload {
		return nil, 0, fmt.Errorf("dist: journal record claims %d bytes (cap %d)", size, maxJournalPayload)
	}
	head := 5 + ln
	total := head + int(size) + 4
	if len(data) < total {
		return nil, 0, fmt.Errorf("dist: journal record truncated in payload")
	}
	want := binary.LittleEndian.Uint32(data[head+int(size):])
	if got := crc32.Checksum(data[:head+int(size)], crcJournal); got != want {
		return nil, 0, fmt.Errorf("dist: journal record CRC mismatch (%08x != %08x)", got, want)
	}
	return data[head : head+int(size)], total, nil
}
