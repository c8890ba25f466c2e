// Package partition defines the hash-partitioning key space used to
// split one ads domain across shards: a stable 64-bit mix of the ad
// key (its RowID) and power-of-two hash slices addressing subsets of
// that key space. Everything else — admission filtering in core,
// scatter/merge in the shard router, filtered snapshot extraction in
// persist — is written against these two primitives, so "which
// partition owns ad 17" has exactly one answer everywhere.
//
// Slices are closed under halving: Split turns h1/2 into {h1/4, h3/4},
// and a key contained in a slice is contained in exactly one of its
// children. That doubling stability is what makes live 2→4 splits
// possible without rehashing anything — the fuzz tests pin it.
package partition

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// KeyHash mixes an ad key (RowID) into a uniform 64-bit value — the
// splitmix64 finalizer. RowIDs are dense small integers, so the raw
// low bits would put every ad of a fresh corpus in partition 0; the
// finalizer spreads consecutive keys across the whole space while
// staying a pure function of the key (no seed, no process state), so
// every node of a cluster computes the same owner forever.
func KeyHash(key uint64) uint64 {
	z := key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Slice is one hash slice of a domain's key space: the keys whose
// hash, taken modulo Count, equals Index. Count must be a power of
// two (so slices nest cleanly under doubling) and Index < Count.
// The zero Slice is invalid; use Whole for the full key space.
type Slice struct {
	Index uint32
	Count uint32
}

// Whole is the full key space — the slice an unpartitioned domain
// occupies.
func Whole() Slice { return Slice{Index: 0, Count: 1} }

// IsWhole reports whether s covers the entire key space.
func (s Slice) IsWhole() bool { return s.Count == 1 }

// Validate checks the power-of-two and range invariants.
func (s Slice) Validate() error {
	if s.Count == 0 || bits.OnesCount32(s.Count) != 1 {
		return fmt.Errorf("partition: slice count %d is not a power of two", s.Count)
	}
	if s.Index >= s.Count {
		return fmt.Errorf("partition: slice index %d out of range for count %d", s.Index, s.Count)
	}
	return nil
}

// Contains reports whether the key hash h falls in s. Count is a
// power of two, so the modulo is a mask.
func (s Slice) Contains(h uint64) bool {
	return h&uint64(s.Count-1) == uint64(s.Index)
}

// ContainsKey is Contains over the raw ad key.
func (s Slice) ContainsKey(key uint64) bool { return s.Contains(KeyHash(key)) }

// String renders the canonical flag/wire form "hINDEX/COUNT", e.g.
// "h3/4". The whole space renders "h0/1".
func (s Slice) String() string {
	return "h" + strconv.FormatUint(uint64(s.Index), 10) + "/" + strconv.FormatUint(uint64(s.Count), 10)
}

// Parse reads the "hINDEX/COUNT" form (the `-partition` flag, the
// rebalance API, the scatter header). Both numbers are decimal; the
// result is validated.
func Parse(s string) (Slice, error) {
	rest, ok := strings.CutPrefix(s, "h")
	if !ok {
		return Slice{}, fmt.Errorf("partition: slice %q does not start with 'h'", s)
	}
	idxStr, cntStr, ok := strings.Cut(rest, "/")
	if !ok {
		return Slice{}, fmt.Errorf("partition: slice %q is not hINDEX/COUNT", s)
	}
	idx, err := strconv.ParseUint(idxStr, 10, 32)
	if err != nil {
		return Slice{}, fmt.Errorf("partition: slice %q has a bad index: %v", s, err)
	}
	cnt, err := strconv.ParseUint(cntStr, 10, 32)
	if err != nil {
		return Slice{}, fmt.Errorf("partition: slice %q has a bad count: %v", s, err)
	}
	sl := Slice{Index: uint32(idx), Count: uint32(cnt)}
	if err := sl.Validate(); err != nil {
		return Slice{}, err
	}
	return sl, nil
}

// SubsetOf reports whether every key in s is also in t. With
// power-of-two counts this is exactly: s is at least as fine as t and
// s's index agrees with t's on t's mask bits.
func (s Slice) SubsetOf(t Slice) bool {
	return s.Count >= t.Count && s.Index&(t.Count-1) == t.Index
}

// Overlaps reports whether s and t share any key: one must refine the
// other.
func (s Slice) Overlaps(t Slice) bool {
	return s.SubsetOf(t) || t.SubsetOf(s)
}

// Split halves s into its two children at the next partition-count
// doubling: (i, P) → (i, 2P) and (i+P, 2P). Every key of s lands in
// exactly one child.
func (s Slice) Split() (Slice, Slice) {
	return Slice{Index: s.Index, Count: s.Count * 2},
		Slice{Index: s.Index + s.Count, Count: s.Count * 2}
}
