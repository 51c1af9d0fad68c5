package dist

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"privmdr/internal/atomicfile"
	"privmdr/internal/loop"
	"privmdr/internal/mech"
)

// This file is the aggregator's durability layer: a per-tenant write-ahead
// journal of applied push envelopes plus a periodic snapshot that compacts
// it. Reports in an LDP deployment are reported once under a privacy budget
// and can never be re-collected, so the merged-but-unsealed state an
// aggregator crash would otherwise drop is genuinely irreplaceable.
//
// Layout under the data dir, one subdirectory per tenant:
//
//	<data>/<tenant>/journal.wal   — framed PMDP envelope bytes, append-only
//	<data>/<tenant>/snapshot.pmas — the last compaction point: sealed PMSS
//	                                blob + per-shard sequence cursors
//
// The write path journals an envelope (append + fsync) BEFORE merging it
// and before the push is acknowledged, so in the default strict mode an
// acknowledged delta is always on disk: recovery = snapshot + journal
// replay reconstructs every acknowledged push, and shards resume at their
// next sequence number with no re-baseline. With a relaxed sync interval
// the fsync is batched in the background and a crash loses at most the
// un-fsynced tail (see PROTOCOL.md "Durability & recovery" for the
// bounded-loss contract and the gap-acceptance rule that keeps shards
// unwedged afterwards).

// journal is one tenant's append-only WAL of framed envelope records.
type journal struct {
	path string

	mu      sync.Mutex
	f       *os.File
	size    int64
	dirty   bool // bytes written since the last fsync
	scratch []byte
	// failed latches a rollback failure: a partial append that could not be
	// truncated away leaves a torn record mid-stream, and appending past it
	// would turn every later record into an unreachable "torn tail" at
	// recovery — so the journal wedges and every Append fails instead.
	failed error

	syncer *loop.Loop // relaxed mode's background fsync; nil in strict mode
}

// openJournal opens (creating if absent) the journal at path, scans it, and
// returns the journal positioned for appends plus every fully-written
// record's payload in append order. A torn or corrupted tail — a crash
// mid-append — is truncated away so later appends extend a clean prefix;
// torn is the number of trailing bytes dropped that way.
//
// syncInterval <= 0 selects strict mode: every Append fsyncs before
// returning. A positive interval starts a background syncer that fsyncs at
// that cadence instead; Append then returns after the buffered write.
func openJournal(path string, syncInterval time.Duration) (j *journal, records [][]byte, torn int, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, 0, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	good := 0
	for good < len(data) {
		payload, n, err := decodeJournalRecord(data[good:])
		if err != nil {
			break // torn tail: everything before it is intact
		}
		records = append(records, payload)
		good += n
	}
	torn = len(data) - good
	if torn > 0 {
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return nil, nil, 0, err
		}
	}
	if _, err := f.Seek(int64(good), 0); err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	j = &journal{path: path, f: f, size: int64(good)}
	j.syncer = loop.Start(syncInterval, false, func(context.Context) {
		j.mu.Lock()
		defer j.mu.Unlock()
		if j.dirty {
			_ = j.f.Sync()
			j.dirty = false
		}
	})
	return j, records, torn, nil
}

// Append frames payload as one record and writes it. In strict mode (no
// background syncer) the record is fsynced before Append returns — the
// caller may acknowledge the push as durable; in relaxed mode the fsync is
// deferred to the syncer and the record rides the loss window until then.
func (j *journal) Append(payload []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failed != nil {
		return j.failed
	}
	j.scratch = appendJournalRecord(j.scratch[:0], payload)
	n, err := j.f.Write(j.scratch)
	if err == nil && n < len(j.scratch) {
		err = io.ErrShortWrite
	}
	if err != nil {
		// Roll the partial record back so the journal keeps a clean prefix.
		// The failed push is answered 503 and retried, so later appends
		// would land after the torn bytes — and recovery, which stops at
		// the first undecodable record, would then discard every one of
		// those acknowledged records as a "torn tail".
		if n > 0 {
			if rerr := j.rollback(); rerr != nil {
				j.failed = fmt.Errorf("dist: journal wedged: torn record could not be rolled back (%v) after failed append: %w", rerr, err)
				return j.failed
			}
		}
		return err
	}
	j.size += int64(n)
	if j.syncer == nil {
		return j.f.Sync()
	}
	j.dirty = true
	return nil
}

// rollback truncates a partially-written record away, restoring the
// journal to its pre-append length and write position. Caller holds mu.
func (j *journal) rollback() error {
	if err := j.f.Truncate(j.size); err != nil {
		return err
	}
	_, err := j.f.Seek(j.size, 0)
	return err
}

// Size is the current journal length in bytes; records wholly below this
// offset at a snapshot point are covered by that snapshot.
func (j *journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// CompactTo drops the journal's first off bytes — the prefix a just-written
// snapshot covers — by rewriting the surviving tail into a fresh file and
// renaming it over the journal. Appends are blocked only for the O(tail)
// copy; records appended after the caller captured off always survive.
func (j *journal) CompactTo(off int64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if off <= 0 || off > j.size {
		return nil
	}
	if err := j.f.Sync(); err != nil { // the tail must be readable below
		return err
	}
	data, err := os.ReadFile(j.path)
	if err != nil {
		return err
	}
	if int64(len(data)) < off {
		return fmt.Errorf("dist: journal shrank under compaction (%d < %d)", len(data), off)
	}
	tmp := j.path + ".tmp"
	nf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	tail := data[off:]
	if _, err := nf.Write(tail); err != nil {
		nf.Close()
		return err
	}
	if err := nf.Sync(); err != nil {
		nf.Close()
		return err
	}
	if err := os.Rename(tmp, j.path); err != nil {
		nf.Close()
		return err
	}
	atomicfile.SyncDir(filepath.Dir(j.path))
	j.f.Close()
	j.f = nf
	j.size = int64(len(tail))
	return nil
}

// Close stops the syncer, performs a final fsync, and closes the file.
func (j *journal) Close() error {
	j.syncer.Stop()
	j.mu.Lock()
	defer j.mu.Unlock()
	_ = j.f.Sync()
	return j.f.Close()
}

// ── Aggregator snapshot ("PMAS") ─────────────────────────────────────────

// aggSnapshot is one tenant's compaction point: everything the aggregator
// must recover beyond the merged state itself — the epoch counter, the
// sealed report count, every shard's (nonce, seq) cursor, and the sealed
// PMSS blob (which doubles as the payload GET /epoch/latest serves after a
// restart). The journal holds only the envelopes applied after this point.
type aggSnapshot struct {
	epoch         uint64
	sealedReports uint64
	cursors       map[string]shardCursor
	sealed        []byte // EncodeSnapshot(state, epoch) — the PMSS blob
}

// aggSnapMagic leads every snapshot file.
var aggSnapMagic = [4]byte{'P', 'M', 'A', 'S'}

// aggSnapVersion is the snapshot file format version byte.
const aggSnapVersion = 1

// encode serializes the snapshot:
//
//	4 bytes  magic "PMAS"
//	1 byte   version
//	uvarint  epoch, uvarint sealed report count
//	uvarint  cursor count, then per cursor (sorted by shard ID):
//	         uvarint ID length, ID bytes, uvarint nonce, uvarint seq
//	uvarint  PMSS blob length, then the blob
//	4 bytes  CRC-32C of everything above, little-endian
func (s aggSnapshot) encode() []byte {
	out := make([]byte, 0, len(s.sealed)+64+32*len(s.cursors))
	out = append(out, aggSnapMagic[:]...)
	out = append(out, aggSnapVersion)
	out = binary.AppendUvarint(out, s.epoch)
	out = binary.AppendUvarint(out, s.sealedReports)
	out = binary.AppendUvarint(out, uint64(len(s.cursors)))
	ids := make([]string, 0, len(s.cursors))
	for id := range s.cursors {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		cur := s.cursors[id]
		out = binary.AppendUvarint(out, uint64(len(id)))
		out = append(out, id...)
		out = binary.AppendUvarint(out, cur.nonce)
		out = binary.AppendUvarint(out, cur.seq)
	}
	out = binary.AppendUvarint(out, uint64(len(s.sealed)))
	out = append(out, s.sealed...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcJournal))
}

// decodeAggSnapshot parses a snapshot file. Unlike the journal's torn tail,
// a snapshot is written atomically (tmp + fsync + rename), so any defect
// here is real corruption and recovery fails loudly instead of guessing.
func decodeAggSnapshot(data []byte) (aggSnapshot, error) {
	var s aggSnapshot
	if len(data) < 4+1+4 {
		return s, fmt.Errorf("dist: aggregator snapshot truncated")
	}
	if [4]byte(data[:4]) != aggSnapMagic {
		return s, fmt.Errorf("dist: aggregator snapshot magic %q unknown", data[:4])
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(body, crcJournal), binary.LittleEndian.Uint32(tail); got != want {
		return s, fmt.Errorf("dist: aggregator snapshot CRC mismatch (%08x != %08x)", got, want)
	}
	if body[4] != aggSnapVersion {
		return s, fmt.Errorf("dist: unsupported aggregator snapshot version %d", body[4])
	}
	rest := body[5:]
	next := func(what string) (uint64, error) {
		v, n, err := mech.UvarintStrict(rest, what)
		if err != nil {
			return 0, err
		}
		rest = rest[n:]
		return v, nil
	}
	var err error
	if s.epoch, err = next("snapshot epoch"); err != nil {
		return s, err
	}
	if s.sealedReports, err = next("snapshot report count"); err != nil {
		return s, err
	}
	nCursors, err := next("snapshot cursor count")
	if err != nil {
		return s, err
	}
	if nCursors > uint64(len(rest)) { // ≥ 1 byte per cursor on the wire
		return s, fmt.Errorf("dist: snapshot claims %d cursors in %d bytes", nCursors, len(rest))
	}
	s.cursors = make(map[string]shardCursor, nCursors)
	for i := uint64(0); i < nCursors; i++ {
		idLen, err := next("snapshot shard ID length")
		if err != nil {
			return s, err
		}
		if idLen == 0 || idLen > maxShardID {
			return s, fmt.Errorf("dist: snapshot shard ID length %d outside [1,%d]", idLen, maxShardID)
		}
		if uint64(len(rest)) < idLen {
			return s, fmt.Errorf("dist: snapshot truncated in shard ID")
		}
		id := string(rest[:idLen])
		rest = rest[idLen:]
		var cur shardCursor
		if cur.nonce, err = next("snapshot cursor nonce"); err != nil {
			return s, err
		}
		if cur.seq, err = next("snapshot cursor seq"); err != nil {
			return s, err
		}
		s.cursors[id] = cur
	}
	blobLen, err := next("snapshot blob length")
	if err != nil {
		return s, err
	}
	if blobLen != uint64(len(rest)) {
		return s, fmt.Errorf("dist: snapshot blob length %d != %d remaining bytes", blobLen, len(rest))
	}
	s.sealed = append([]byte(nil), rest...)
	return s, nil
}

// ── Tenant store ─────────────────────────────────────────────────────────

// tenantStore is one tenant's on-disk state: its snapshot file plus its
// journal.
type tenantStore struct {
	dir string
	j   *journal
}

// openTenantStore opens (creating if needed) a tenant's durability dir and
// returns the store, the last snapshot (nil if none), the journal records
// appended after it, and how many torn tail bytes were discarded.
func openTenantStore(dir string, syncInterval time.Duration) (st *tenantStore, snap *aggSnapshot, records [][]byte, torn int, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, 0, err
	}
	if data, err := os.ReadFile(filepath.Join(dir, "snapshot.pmas")); err == nil {
		s, err := decodeAggSnapshot(data)
		if err != nil {
			return nil, nil, nil, 0, fmt.Errorf("dist: %s: %w", filepath.Join(dir, "snapshot.pmas"), err)
		}
		snap = &s
	} else if !os.IsNotExist(err) {
		return nil, nil, nil, 0, err
	}
	j, records, torn, err := openJournal(filepath.Join(dir, "journal.wal"), syncInterval)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	return &tenantStore{dir: dir, j: j}, snap, records, torn, nil
}

// Append journals one applied envelope's canonical bytes.
func (s *tenantStore) Append(raw []byte) error { return s.j.Append(raw) }

// Offset is the journal position covering everything appended so far.
func (s *tenantStore) Offset() int64 { return s.j.Size() }

// Compact persists snap atomically (tmp + fsync + rename) and then drops
// the journal prefix below off — the records snap's cursors cover. Crash
// ordering is safe at every point: with the snapshot written but the
// journal not yet compacted, replaying covered records is a sequencing
// no-op (their seqs are at or below the snapshot cursors).
func (s *tenantStore) Compact(snap aggSnapshot, off int64) error {
	if err := atomicfile.WriteFile(filepath.Join(s.dir, "snapshot.pmas"), snap.encode(), 0o644); err != nil {
		return err
	}
	return s.j.CompactTo(off)
}

// Close flushes and closes the journal.
func (s *tenantStore) Close() error { return s.j.Close() }
