package telemetry

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// histStripes is the number of independently locked shards a
// Histogram spreads its recorders over. Eight keeps lock contention
// negligible at the request rates a single node serves while keeping
// Snapshot cheap (it visits every stripe once).
const histStripes = 8

// histBuckets is the number of power-of-two buckets. Recorded values
// are non-negative int64 nanoseconds, so bits.Len64 yields 0..63 and
// 64 buckets cover the full range with no overflow anywhere.
const histBuckets = 64

// Histogram is a lock-striped latency histogram with power-of-two
// buckets: bucket 0 holds the value 0 and bucket k (k ≥ 1) holds
// [2^(k-1), 2^k − 1]. Recording is a stripe pick plus one short
// critical section; quantiles come from a Snapshot, and snapshots
// merge exactly (integer bucket adds), so cluster-wide rollups are
// associative no matter how the per-node histograms are combined.
//
// The histogram itself never reads a clock — callers time their own
// work and Record the elapsed nanoseconds — which keeps the type
// usable from any package without wallclock-lint exemptions.
// The zero value is ready.
type Histogram struct {
	// rotor distributes recorders over stripes round-robin; a single
	// atomic add is far cheaper than the mutex convoy it prevents.
	rotor   atomic.Uint32
	stripes [histStripes]histStripe
}

type histStripe struct {
	mu     sync.Mutex
	counts [histBuckets]uint64
	sum    uint64
	count  uint64
}

// bucketOf returns the bucket index for a sample. Negative samples
// (a clock stepped backwards mid-request) clamp to bucket 0 rather
// than corrupting the tally.
func bucketOf(ns int64) int {
	if ns <= 0 {
		return 0
	}
	return bits.Len64(uint64(ns))
}

// bucketBounds returns the inclusive value range bucket b covers.
func bucketBounds(b int) (lo, hi int64) {
	if b <= 0 {
		return 0, 0
	}
	lo = int64(1) << (b - 1)
	if b == histBuckets-1 {
		return lo, math.MaxInt64
	}
	return lo, lo<<1 - 1
}

// Record adds one sample, in nanoseconds. Safe for concurrent use.
func (h *Histogram) Record(ns int64) {
	s := &h.stripes[h.rotor.Add(1)%histStripes]
	b := bucketOf(ns)
	s.mu.Lock()
	s.counts[b]++
	s.count++
	if ns > 0 {
		s.sum += uint64(ns)
	}
	s.mu.Unlock()
}

// Snapshot is a point-in-time copy of a Histogram's tallies. It is a
// plain value: compare, merge, and query it without synchronization.
type Snapshot struct {
	Counts [histBuckets]uint64
	Sum    uint64
	Count  uint64
}

// Snapshot copies the current tallies. Each stripe is read under its
// own lock, so the result is a union of per-stripe-consistent states;
// concurrent recorders may land on either side of the cut, which is
// the usual (and sufficient) contract for monitoring reads.
func (h *Histogram) Snapshot() Snapshot {
	var out Snapshot
	for i := range h.stripes {
		s := &h.stripes[i]
		s.mu.Lock()
		for b, n := range s.counts {
			out.Counts[b] += n
		}
		out.Sum += s.sum
		out.Count += s.count
		s.mu.Unlock()
	}
	return out
}

// WireBuckets returns the bucket counts with trailing zero buckets
// trimmed — the compact wire form a status endpoint serves. Almost all
// of the 64 buckets are zero for real latencies (bucket 45 is already
// ~9.8 hours), so trimming keeps status bodies small without losing a
// single count.
func (s Snapshot) WireBuckets() []uint64 {
	last := -1
	for b, n := range s.Counts {
		if n != 0 {
			last = b
		}
	}
	out := make([]uint64, last+1)
	copy(out, s.Counts[:last+1])
	return out
}

// SnapshotFromWire rebuilds a Snapshot from its wire form (the
// trimmed bucket counts plus the raw sum; the total count is the
// bucket sum). Buckets beyond histBuckets are ignored — a newer node
// cannot produce them, so their presence means a corrupt body.
func SnapshotFromWire(buckets []uint64, sumNs uint64) Snapshot {
	var out Snapshot
	for b, n := range buckets {
		if b >= histBuckets {
			break
		}
		out.Counts[b] = n
		out.Count += n
	}
	out.Sum = sumNs
	return out
}

// Merge returns the exact combination of two snapshots. Because it is
// pure integer addition bucket by bucket, Merge is associative and
// commutative: a cluster rollup yields the same histogram regardless
// of the order nodes are folded in.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	out := s
	for b, n := range o.Counts {
		out.Counts[b] += n
	}
	out.Sum += o.Sum
	out.Count += o.Count
	return out
}

// Quantile estimates the q-th quantile (q in [0,1]) in nanoseconds:
// it finds the bucket holding the target rank and interpolates
// linearly within the bucket's bounds. The estimate is therefore
// always inside the true sample's power-of-two bucket — off by at
// most 2× — which is the resolution this histogram trades for its
// fixed footprint. Returns 0 on an empty snapshot.
func (s Snapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count-1)
	var cum float64
	for b, n := range s.Counts {
		if n == 0 {
			continue
		}
		fn := float64(n)
		if rank < cum+fn {
			lo, hi := bucketBounds(b)
			frac := (rank - cum) / fn
			if frac < 0 {
				frac = 0
			}
			return lo + int64(frac*float64(hi-lo))
		}
		cum += fn
	}
	// Unreachable: ranks always land inside the cumulative mass.
	lo, _ := bucketBounds(histBuckets - 1)
	return lo
}

// Mean returns the arithmetic mean sample in nanoseconds, exact over
// the recorded sums (not bucketed). Returns 0 on an empty snapshot.
func (s Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
