package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
)

// fuzzFrames splits data into uvarint-length-prefixed payloads and
// frames each with a correct length and CRC, so the reader gets past
// the checksum and decodeOp sees the fuzzed bytes. It returns the
// stream, each payload and the end offset of each frame.
func fuzzFrames(data []byte) (stream []byte, payloads [][]byte, ends []int) {
	for len(data) > 0 {
		n, k := binary.Uvarint(data)
		if k <= 0 || n > uint64(len(data)-k) {
			n, k = uint64(len(data)), 0
		}
		p := data[k : k+int(n)]
		data = data[k+int(n):]
		stream = binary.LittleEndian.AppendUint32(stream, uint32(len(p)))
		stream = binary.LittleEndian.AppendUint32(stream, crc32.ChecksumIEEE(p))
		stream = append(stream, p...)
		payloads = append(payloads, p)
		ends = append(ends, len(stream))
	}
	return stream, payloads, ends
}

// mustFrame encodes op, failing the test if a decoded op cannot be
// re-encoded.
func mustFrame(t *testing.T, op Op) []byte {
	t.Helper()
	b, err := AppendFrame(nil, op)
	if err != nil {
		t.Fatalf("decoded op %+v does not re-encode: %v", op, err)
	}
	return b
}

// FuzzOpReader: the reader that decodes both a torn WAL at recovery and
// a primary's replication stream. For fuzzed payloads in valid frames
// cut at a fuzzed offset, Next never panics; it returns exactly the
// ops of the whole frames before the cut, up to the first payload that
// does not decode, then ErrTornFrame, or io.EOF when the cut falls on
// a frame boundary; Consumed is the end of the last op returned; and
// every op returned re-encodes to a frame that decodes to the same op.
func FuzzOpReader(f *testing.F) {
	var seed []byte
	for _, op := range streamOps() {
		frame, err := AppendFrame(nil, op)
		if err != nil {
			f.Fatal(err)
		}
		seed = binary.AppendUvarint(seed, uint64(len(frame)-frameHeaderLen))
		seed = append(seed, frame[frameHeaderLen:]...)
	}
	_, _, ends := fuzzFrames(seed)
	for _, cut := range []int{ends[2], 0, ends[0], ends[0] + 3, ends[1] + frameHeaderLen, ends[2] - 1} {
		f.Add(seed, uint32(cut))
	}
	f.Add(append([]byte{3, 1, 0, 9}, seed...), uint32(1<<20)) // unknown kind first
	f.Add([]byte{0}, uint32(frameHeaderLen))                  // empty payload

	f.Fuzz(func(t *testing.T, data []byte, cut uint32) {
		stream, payloads, ends := fuzzFrames(data)
		c := int(cut % uint32(len(stream)+1))
		dec := NewOpReader(bytes.NewReader(stream[:c]))
		var got []Op
		var last error
		for {
			op, err := dec.Next()
			if err != nil {
				last = err
				break
			}
			got = append(got, op)
			if len(got) > len(payloads) {
				t.Fatalf("%d ops from %d frames", len(got), len(payloads))
			}
		}

		// The expected prefix: whole frames before the cut, up to the
		// first payload that does not decode.
		want, whole := 0, 0
		for whole < len(ends) && ends[whole] <= c {
			whole++
		}
		for want < whole {
			if _, err := decodeOp(bytes.Clone(payloads[want])); err != nil {
				break
			}
			want++
		}
		if len(got) != want {
			t.Fatalf("cut %d of %d: %d ops, want %d (%v)", c, len(stream), len(got), want, last)
		}
		end := 0
		if want > 0 {
			end = ends[want-1]
		}
		if dec.Consumed() != int64(end) {
			t.Fatalf("Consumed() = %d, want %d", dec.Consumed(), end)
		}
		if want == whole && c == end {
			if last != io.EOF {
				t.Fatalf("cut %d on a frame boundary: %v, want io.EOF", c, last)
			}
		} else if !errors.Is(last, ErrTornFrame) {
			t.Fatalf("cut %d: %v, want ErrTornFrame", c, last)
		}

		for i, op := range got {
			oracle, _ := decodeOp(bytes.Clone(payloads[i]))
			frame := mustFrame(t, op)
			if !bytes.Equal(frame, mustFrame(t, oracle)) {
				t.Fatalf("op %d: reader returned %+v, frame holds %+v", i, op, oracle)
			}
			again, err := NewOpReader(bytes.NewReader(frame)).Next()
			if err != nil {
				t.Fatalf("op %d: re-encoded frame does not decode: %v", i, err)
			}
			if !bytes.Equal(mustFrame(t, again), frame) {
				t.Fatalf("op %d: %+v re-decodes to %+v", i, op, again)
			}
		}
	})
}
