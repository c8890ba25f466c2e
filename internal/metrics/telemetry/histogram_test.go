package telemetry

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// distributions used by the quantile-accuracy test. Each returns n
// deterministic samples from a seeded source so failures reproduce.
var distributions = []struct {
	name string
	gen  func(r *rand.Rand, n int) []int64
}{
	{"uniform", func(r *rand.Rand, n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = r.Int63n(10_000_000) // 0..10ms
		}
		return out
	}},
	{"exponentialish", func(r *rand.Rand, n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(r.ExpFloat64() * 500_000) // mean 0.5ms
		}
		return out
	}},
	{"constant", func(r *rand.Rand, n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = 1_234_567
		}
		return out
	}},
	{"bimodal", func(r *rand.Rand, n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			if r.Intn(10) == 0 {
				out[i] = 50_000_000 + r.Int63n(50_000_000) // slow tail
			} else {
				out[i] = 100_000 + r.Int63n(100_000) // fast mode
			}
		}
		return out
	}},
}

// TestQuantileAccuracy checks every estimate against a sorted-slice
// reference: the histogram's answer must land in the same
// power-of-two bucket as the true sample at the target rank — the
// documented ≤2× resolution contract.
func TestQuantileAccuracy(t *testing.T) {
	const n = 20_000
	quantiles := []float64{0, 0.5, 0.9, 0.99, 0.999, 1}
	for _, d := range distributions {
		t.Run(d.name, func(t *testing.T) {
			samples := d.gen(rand.New(rand.NewSource(9)), n)
			var h Histogram
			for _, v := range samples {
				h.Record(v)
			}
			snap := h.Snapshot()
			if snap.Count != n {
				t.Fatalf("snapshot count = %d, want %d", snap.Count, n)
			}
			sorted := append([]int64(nil), samples...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			for _, q := range quantiles {
				ref := sorted[int(q*float64(n-1))]
				est := snap.Quantile(q)
				if bucketOf(est) != bucketOf(ref) {
					t.Errorf("q=%g: estimate %d not in reference bucket (ref %d, bucket %d vs %d)",
						q, est, ref, bucketOf(est), bucketOf(ref))
				}
			}
		})
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var h Histogram
	if got := h.Snapshot().Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram quantile = %d, want 0", got)
	}
	h.Record(0)
	h.Record(-5) // clamped to bucket 0, tally intact
	snap := h.Snapshot()
	if snap.Count != 2 || snap.Quantile(1) != 0 {
		t.Fatalf("zero/negative samples: count=%d q1=%d", snap.Count, snap.Quantile(1))
	}
	var one Histogram
	one.Record(777)
	s := one.Snapshot()
	lo, hi := bucketBounds(bucketOf(777))
	if got := s.Quantile(0.5); got < lo || got > hi {
		t.Fatalf("single-sample quantile %d outside bucket [%d,%d]", got, lo, hi)
	}
}

// TestMergeAssociativity checks the cluster-rollup contract: folding
// per-node snapshots in any grouping yields the identical histogram.
func TestMergeAssociativity(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	mk := func() Snapshot {
		var h Histogram
		for i := 0; i < 5000; i++ {
			h.Record(r.Int63n(1_000_000_000))
		}
		return h.Snapshot()
	}
	a, b, c := mk(), mk(), mk()
	left := a.Merge(b).Merge(c)
	right := a.Merge(b.Merge(c))
	if left != right {
		t.Fatalf("merge not associative: (a·b)·c != a·(b·c)")
	}
	if com := b.Merge(a).Merge(c); com != left {
		t.Fatalf("merge not commutative: (b·a)·c != (a·b)·c")
	}
	if left.Count != a.Count+b.Count+c.Count {
		t.Fatalf("merged count = %d, want %d", left.Count, a.Count+b.Count+c.Count)
	}
	if left.Sum != a.Sum+b.Sum+c.Sum {
		t.Fatalf("merged sum = %d, want %d", left.Sum, a.Sum+b.Sum+c.Sum)
	}
}

// TestWireRoundTrip checks the cluster-rollup wire contract: a
// snapshot survives WireBuckets/SnapshotFromWire unchanged, and
// merging rebuilt snapshots — the front tier's cluster_latency path —
// equals merging the originals.
func TestWireRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	mk := func(n int) Snapshot {
		var h Histogram
		for i := 0; i < n; i++ {
			h.Record(r.Int63n(5_000_000_000))
		}
		return h.Snapshot()
	}
	a, b := mk(3000), mk(41)
	for _, s := range []Snapshot{a, b, {}} {
		back := SnapshotFromWire(s.WireBuckets(), s.Sum)
		if back != s {
			t.Fatalf("wire round-trip altered the snapshot:\n got %+v\nwant %+v", back, s)
		}
	}
	direct := a.Merge(b)
	overWire := SnapshotFromWire(a.WireBuckets(), a.Sum).Merge(SnapshotFromWire(b.WireBuckets(), b.Sum))
	if overWire != direct {
		t.Fatal("merging wire-rebuilt snapshots diverges from merging the originals")
	}
	// The trim is real (no 64-element bodies for ordinary latencies)
	// and lossless by construction.
	if w := a.WireBuckets(); len(w) >= histBuckets {
		t.Fatalf("wire form not trimmed: %d buckets", len(w))
	}
	// Corrupt over-long bodies are ignored past the bucket range.
	long := make([]uint64, histBuckets+8)
	for i := range long {
		long[i] = 1
	}
	if got := SnapshotFromWire(long, 0).Count; got != histBuckets {
		t.Fatalf("oversized wire body counted %d, want %d", got, histBuckets)
	}
}

// TestHistogramConcurrentRecord exercises recorders racing snapshots;
// run under -race it proves the striping is actually safe.
func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	const workers, per = 8, 2000
	var writers, reader sync.WaitGroup
	stop := make(chan struct{})
	reader.Add(1)
	go func() { // concurrent reader racing the recorders
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				h.Snapshot()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				h.Record(r.Int63n(1_000_000))
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	reader.Wait()
	if snap := h.Snapshot(); snap.Count != workers*per {
		t.Fatalf("snapshot count = %d, want %d", snap.Count, workers*per)
	}
}
