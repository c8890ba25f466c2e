// Package persist is the durability subsystem of CQAds: a binary
// snapshot of the whole store plus an append-only write-ahead log of
// the insert/delete operations applied since, giving a live-ingested
// corpus that survives process restarts and kills.
//
// # On-disk layout
//
// A data directory holds two files:
//
//	snapshot.cqads   the latest checkpoint (atomic tmp+rename)
//	wal.log          operations applied after that checkpoint
//
// Every operation carries a monotonically increasing sequence number
// that survives compaction, so recovery is: load the snapshot, then
// replay the WAL records whose sequence exceeds the snapshot's.
//
// # Snapshot format
//
// One CRC-32-trailed blob: an 8-byte magic ("CQSNAP3\n"), the
// checkpoint sequence number and leadership epoch, then per table its
// domain and relation names, column list, allocated slot count and
// the live rows (RowID plus one value per column — so tombstoned
// RowIDs stay retired after recovery). No classifier state is stored:
// every node rebuilds its classifier from its configuration. Strings
// and counts are uvarint-length-prefixed; values are tagged
// NULL/string/number with numbers stored as IEEE-754 bits.
//
// # WAL format
//
// A sequence of frames: uint32 payload length, uint32 CRC-32 of the
// payload, payload. Each payload is one operation: sequence number,
// kind (insert/delete), domain, RowID, and for inserts the column
// names and values. Appends write whole frames and fsync once per
// batch; a crash can therefore only tear the final frame, which the
// next open detects by CRC (or short read) and truncates away.
package persist

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/sqldb"
)

// appendString appends a uvarint-length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Value tags. Values round-trip through the public sqldb constructors:
// stored strings are already lower-cased, so String is the identity on
// them, and numbers are exact IEEE-754 bits.
const (
	tagNull   = 0
	tagString = 1
	tagNumber = 2
)

// appendValue appends a tagged value encoding.
func appendValue(b []byte, v sqldb.Value) []byte {
	switch {
	case v.IsNull():
		return append(b, tagNull)
	case v.IsNumber():
		b = append(b, tagNumber)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Num()))
	default:
		b = append(b, tagString)
		return appendString(b, v.Str())
	}
}

// reader is a cursor over an encoded buffer. The first malformed field
// sets err and every subsequent read returns zero values, so decoders
// can parse straight through and check the error once.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("persist: truncated uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.fail("persist: truncated field at offset %d (%d bytes wanted)", r.off, n)
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *reader) byteVal() byte {
	b := r.bytes(1)
	if len(b) == 0 {
		return 0
	}
	return b[0]
}

func (r *reader) str() string {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.b)-r.off) {
		r.fail("persist: string length %d exceeds remaining %d bytes", n, len(r.b)-r.off)
		return ""
	}
	return string(r.bytes(int(n)))
}

func (r *reader) value() sqldb.Value {
	switch tag := r.byteVal(); tag {
	case tagNull:
		return sqldb.Null
	case tagString:
		return sqldb.String(r.str())
	case tagNumber:
		b := r.bytes(8)
		if len(b) != 8 {
			return sqldb.Null
		}
		return sqldb.Number(math.Float64frombits(binary.LittleEndian.Uint64(b)))
	default:
		if r.err == nil {
			r.fail("persist: unknown value tag %d at offset %d", tag, r.off-1)
		}
		return sqldb.Null
	}
}

// remaining reports how many bytes are left unread.
func (r *reader) remaining() int { return len(r.b) - r.off }
