package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/sqldb"
)

// snapshotMagic opens every snapshot file; bump the digit for
// incompatible layout changes.
const snapshotMagic = "CQSNAP3\n"

// Snapshot is a full point-in-time image of the store: every table's
// live rows and slot count. It holds no classifier: a node rebuilds
// its classifier from its configuration, as it does the similarity
// matrices.
type Snapshot struct {
	// Seq is the sequence number of the last operation the snapshot
	// includes; recovery replays WAL records with Seq greater than it.
	Seq uint64
	// Epoch is the leadership term of the last included operation (0
	// before any election). A follower resetting from this
	// snapshot inherits it as its applied epoch, so post-transfer log
	// matching lines up with the leader's history.
	Epoch uint64
	// Tables holds one entry per ads domain.
	Tables []TableData
}

// TableData is one serialized table.
type TableData struct {
	// Domain and Table identify the relation (schema.Schema.Domain and
	// .Table).
	Domain string
	Table  string
	// Columns lists the attribute names in schema declaration order;
	// restore validates them against the live schema so a snapshot
	// from a different schema version fails loudly instead of
	// misaligning values.
	Columns []string
	// Slots is the allocated RowID range (live + tombstoned); the next
	// insert after recovery is assigned RowID Slots.
	Slots int
	// Rows are the live records in ascending RowID order, each Value
	// aligned with Columns.
	Rows []sqldb.Record
}

// EncodeSnapshot renders s as one CRC-trailed blob — the on-disk
// snapshot format, which doubles as the replication wire format for
// initial state transfer (GET /api/repl/snapshot serves these bytes
// verbatim).
func EncodeSnapshot(s *Snapshot) []byte { return encodeSnapshot(s) }

// DecodeSnapshot parses and verifies a blob produced by EncodeSnapshot
// (equivalently: the contents of a snapshot file, or a snapshot
// transfer response body).
func DecodeSnapshot(data []byte) (*Snapshot, error) { return decodeSnapshot(data) }

// FilterSnapshot returns a copy of s with each table's rows restricted
// to those keep admits. Slots (and Seq/Epoch) are preserved:
// RowIDs stay stable across the filter, with dropped rows becoming
// tombstoned slots on restore. This is the extraction primitive behind
// partition-sliced state transfer — a rebalance target resets from
// just its hash slice of the source's snapshot. s is not modified; the
// row records themselves are shared, not copied.
func FilterSnapshot(s *Snapshot, keep func(domain string, id sqldb.RowID) bool) *Snapshot {
	out := *s
	out.Tables = make([]TableData, len(s.Tables))
	for i, td := range s.Tables {
		ft := td
		ft.Rows = make([]sqldb.Record, 0, len(td.Rows))
		for _, r := range td.Rows {
			if keep(td.Domain, r.ID) {
				ft.Rows = append(ft.Rows, r)
			}
		}
		out.Tables[i] = ft
	}
	return &out
}

// encodeSnapshot renders s as one CRC-trailed blob.
func encodeSnapshot(s *Snapshot) []byte {
	b := []byte(snapshotMagic)
	b = binary.AppendUvarint(b, s.Seq)
	b = binary.AppendUvarint(b, s.Epoch)
	b = binary.AppendUvarint(b, uint64(len(s.Tables)))
	for _, t := range s.Tables {
		b = appendString(b, t.Domain)
		b = appendString(b, t.Table)
		b = binary.AppendUvarint(b, uint64(len(t.Columns)))
		for _, c := range t.Columns {
			b = appendString(b, c)
		}
		b = binary.AppendUvarint(b, uint64(t.Slots))
		b = binary.AppendUvarint(b, uint64(len(t.Rows)))
		for _, row := range t.Rows {
			b = binary.AppendUvarint(b, uint64(row.ID))
			for _, v := range row.Values {
				b = appendValue(b, v)
			}
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// decodeSnapshot parses and verifies a snapshot blob.
func decodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < len(snapshotMagic)+4 {
		return nil, fmt.Errorf("persist: snapshot too short (%d bytes)", len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("persist: snapshot CRC mismatch")
	}
	if string(body[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("persist: bad snapshot magic %q", body[:len(snapshotMagic)])
	}
	r := &reader{b: body, off: len(snapshotMagic)}
	s := &Snapshot{Seq: r.uvarint(), Epoch: r.uvarint()}
	nTables := int(r.uvarint())
	for i := 0; i < nTables && r.err == nil; i++ {
		t := TableData{
			Domain: r.str(),
			Table:  r.str(),
		}
		nCols := int(r.uvarint())
		if r.err == nil && nCols > r.remaining() {
			return nil, fmt.Errorf("persist: snapshot table %q claims %d columns", t.Domain, nCols)
		}
		for c := 0; c < nCols && r.err == nil; c++ {
			t.Columns = append(t.Columns, r.str())
		}
		t.Slots = int(r.uvarint())
		nRows := int(r.uvarint())
		if r.err == nil && nRows > t.Slots {
			return nil, fmt.Errorf("persist: snapshot table %q has %d rows in %d slots", t.Domain, nRows, t.Slots)
		}
		for j := 0; j < nRows && r.err == nil; j++ {
			row := sqldb.Record{ID: sqldb.RowID(r.uvarint())}
			for c := 0; c < nCols && r.err == nil; c++ {
				row.Values = append(row.Values, r.value())
			}
			t.Rows = append(t.Rows, row)
		}
		s.Tables = append(s.Tables, t)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("persist: %d trailing bytes after snapshot", r.remaining())
	}
	return s, nil
}

// writeSnapshotFile durably replaces the snapshot at path: the blob is
// written to a temp file, fsync'd, renamed over the target, and the
// directory fsync'd, so a crash leaves either the old snapshot or the
// new one — never a torn mix.
func writeSnapshotFile(path string, s *Snapshot) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: creating snapshot temp file: %w", err)
	}
	if _, err := f.Write(encodeSnapshot(s)); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("persist: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("persist: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: publishing snapshot: %w", err)
	}
	syncDir(filepath.Dir(path))
	return nil
}

// readSnapshotFile loads the snapshot at path; a missing file returns
// (nil, nil) — the store has simply never checkpointed.
func readSnapshotFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("persist: reading snapshot: %w", err)
	}
	return decodeSnapshot(data)
}

// syncDir fsyncs a directory so a just-renamed file's directory entry
// is durable. Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
