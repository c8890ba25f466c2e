package persist

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sqldb"
)

func insertOp(domain string, id sqldb.RowID, cols []string, vals []sqldb.Value) Op {
	return Op{Kind: OpInsert, Domain: domain, ID: id, Columns: cols, Values: vals}
}

func sampleOps() []Op {
	return []Op{
		insertOp("cars", 500,
			[]string{"make", "model", "price", "note"},
			[]sqldb.Value{sqldb.String("honda"), sqldb.String("accord"), sqldb.Number(9000), sqldb.Null}),
		{Kind: OpDelete, Domain: "cars", ID: 17},
		insertOp("housing", 42,
			[]string{"kind"},
			[]sqldb.Value{sqldb.String("apartment")}),
	}
}

// TestWALRoundTrip: appended operations come back verbatim (values,
// NULLs, kinds) with contiguous sequence numbers, across a reopen.
func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.LoadedSnapshot() != nil || len(st.Tail()) != 0 {
		t.Fatal("fresh dir reports recovery state")
	}
	ops := sampleOps()
	if err := st.Append(ops[:2]); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(ops[2:]); err != nil {
		t.Fatal(err)
	}
	if st.Seq() != 3 {
		t.Fatalf("seq = %d, want 3", st.Seq())
	}
	if st.WALSize() <= 0 {
		t.Fatal("WAL size not tracked")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	tail := st2.Tail()
	if len(tail) != 3 {
		t.Fatalf("tail has %d ops, want 3", len(tail))
	}
	for i, op := range tail {
		if op.Seq != uint64(i+1) {
			t.Errorf("op %d has seq %d", i, op.Seq)
		}
		want := ops[i]
		want.Seq = op.Seq
		if !reflect.DeepEqual(op, want) {
			t.Errorf("op %d = %+v, want %+v", i, op, want)
		}
	}
	if st2.Seq() != 3 {
		t.Errorf("reopened seq = %d, want 3", st2.Seq())
	}
}

// TestWALTornTailTruncated: a partial final record — the crash case —
// is dropped and the file truncated so appends resume cleanly.
func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(sampleOps()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, WALFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record: drop its final 3 bytes.
	if err := os.WriteFile(walPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(st2.Tail()); got != 2 {
		t.Fatalf("tail after torn write has %d ops, want 2", got)
	}
	if st2.Seq() != 2 {
		t.Errorf("seq after torn write = %d, want 2", st2.Seq())
	}
	// Appending continues from the truncated end.
	if err := st2.Append([]Op{{Kind: OpDelete, Domain: "cars", ID: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	tail := st3.Tail()
	if len(tail) != 3 || tail[2].Seq != 3 || tail[2].Kind != OpDelete {
		t.Fatalf("tail after recovery append = %+v", tail)
	}
}

// TestWALCorruptMiddleStopsScan: a bit flip mid-log invalidates that
// record and everything after it (no resynchronization is attempted).
func TestWALCorruptMiddleStopsScan(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(sampleOps()); err != nil {
		t.Fatal(err)
	}
	st.Close()
	walPath := filepath.Join(dir, WALFile)
	data, _ := os.ReadFile(walPath)
	data[frameHeaderLen+2] ^= 0xff // corrupt the first record's payload
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := len(st2.Tail()); got != 0 {
		t.Fatalf("tail after first-record corruption = %d ops, want 0", got)
	}
}

// TestSnapshotRoundTrip: the snapshot encoding round-trips tables,
// slot counts and NULLs, and detects corruption.
func TestSnapshotRoundTrip(t *testing.T) {
	snap := &Snapshot{
		Tables: []TableData{
			{
				Domain:  "cars",
				Table:   "car_ads",
				Columns: []string{"make", "price"},
				Slots:   7,
				Rows: []sqldb.Record{
					{ID: 0, Values: []sqldb.Value{sqldb.String("honda"), sqldb.Number(9000)}},
					{ID: 3, Values: []sqldb.Value{sqldb.String("bmw"), sqldb.Null}},
					{ID: 6, Values: []sqldb.Value{sqldb.Null, sqldb.Number(-12.5)}},
				},
			},
			{Domain: "empty", Table: "empty_ads", Columns: []string{"a"}, Slots: 0},
		},
	}
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(sampleOps()); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteCheckpoint(snap); err != nil {
		t.Fatal(err)
	}
	if st.WALSize() != 0 {
		t.Errorf("WAL size after checkpoint = %d, want 0", st.WALSize())
	}
	if st.CheckpointSeq() != 3 {
		t.Errorf("checkpoint seq = %d, want 3", st.CheckpointSeq())
	}
	// Sequence numbering continues after compaction.
	if err := st.Append([]Op{{Kind: OpDelete, Domain: "cars", ID: 2}}); err != nil {
		t.Fatal(err)
	}
	if st.Seq() != 4 {
		t.Errorf("seq after post-checkpoint append = %d, want 4", st.Seq())
	}
	st.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got := st2.LoadedSnapshot()
	if got == nil {
		t.Fatal("no snapshot after checkpoint")
	}
	if got.Seq != 3 {
		t.Errorf("snapshot seq = %d, want 3", got.Seq)
	}
	if !reflect.DeepEqual(got.Tables, snap.Tables) {
		t.Errorf("tables differ:\ngot  %+v\nwant %+v", got.Tables, snap.Tables)
	}
	// Only the post-checkpoint op is in the tail.
	tail := st2.Tail()
	if len(tail) != 1 || tail[0].Seq != 4 {
		t.Fatalf("tail = %+v, want the single seq-4 delete", tail)
	}

	// Corruption: flip one byte anywhere → CRC failure at open.
	snapPath := filepath.Join(dir, SnapshotFile)
	data, _ := os.ReadFile(snapPath)
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("corrupt snapshot accepted")
	}
}

// TestSnapshotRefusesOldFormat: a snapshot in the previous layout
// (magic "CQSNAP2\n", which ended in a classifier-state section) is
// refused even when its CRC is valid, both as a transfer body and as a
// data directory's snapshot file, rather than read wrongly.
func TestSnapshotRefusesOldFormat(t *testing.T) {
	body := encodeSnapshot(&Snapshot{Seq: 5, Tables: []TableData{{Domain: "cars", Table: "car_ads", Columns: []string{"make"}, Slots: 1}}})
	body = body[:len(body)-4]
	copy(body, "CQSNAP2\n")
	old := binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	if _, err := DecodeSnapshot(old); err == nil || !strings.Contains(err.Error(), "bad snapshot magic") {
		t.Fatalf("DecodeSnapshot(CQSNAP2 blob) error = %v, want bad snapshot magic", err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, SnapshotFile), old, 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err := Open(dir); err == nil || !strings.Contains(err.Error(), "bad snapshot magic") {
		if st != nil {
			st.Close()
		}
		t.Fatalf("Open over a CQSNAP2 snapshot error = %v, want bad snapshot magic", err)
	}
}

// TestCheckpointKeepsStaleWALRecoverable: a crash after the snapshot
// rename but before the WAL truncation leaves duplicate records; the
// next open must filter them by sequence number.
func TestCheckpointKeepsStaleWALRecoverable(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(sampleOps()); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash window: publish the snapshot with the store's
	// file-level writer, leaving the WAL untruncated.
	snap := &Snapshot{Seq: st.Seq(), Tables: []TableData{{Domain: "cars", Table: "car_ads", Columns: []string{"make"}, Slots: 501}}}
	if err := writeSnapshotFile(filepath.Join(dir, SnapshotFile), snap); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := len(st2.Tail()); got != 0 {
		t.Fatalf("stale WAL records not filtered: tail has %d ops", got)
	}
	if st2.Seq() != 3 {
		t.Errorf("seq = %d, want 3", st2.Seq())
	}
}

// TestAppendAfterCloseFails guards the shutdown contract.
func TestAppendAfterCloseFails(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := st.Append([]Op{{Kind: OpDelete, Domain: "cars", ID: 0}}); err == nil {
		t.Error("Append after Close succeeded")
	}
	if err := st.WriteCheckpoint(&Snapshot{}); err == nil {
		t.Error("WriteCheckpoint after Close succeeded")
	}
}
