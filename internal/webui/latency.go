package webui

import (
	"net/http"
	"time"

	"repro/internal/metrics/telemetry"
)

// This file is the server's latency instrumentation: each externally
// interesting endpoint records its end-to-end service time (handler
// entry to handler return, WAL fsyncs and quorum waits included for
// ingest, the long-poll wait included for the replication stream)
// into a process-wide telemetry.Latency histogram, and GET /api/status
// reports the percentiles in a "latency" block.
//
// The contract is monotonic: histogram counts only ever grow, there
// is no reset parameter, and none will be added — scrapers derive
// rates and interval percentiles by differencing successive samples,
// so concurrent scrapers can never corrupt each other's view.

// timed wraps a handler so every request records its service time.
func timed(h *telemetry.Histogram, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		fn(w, r)
		h.Record(time.Since(start).Nanoseconds())
	}
}

// endpointLatencyJSON is one endpoint's entry in the status latency
// block. Count is cumulative over the process lifetime (the rate
// denominator for scrapers); the percentiles are over all recorded
// requests, good to the histogram's power-of-two bucket resolution.
type endpointLatencyJSON struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	// SumNs and Buckets are the raw histogram — the cumulative
	// nanosecond sum and the power-of-two bucket counts with trailing
	// zero buckets trimmed. They let a front tier rebuild the exact
	// telemetry.Snapshot and Merge it across nodes: merged bucket
	// counts are plain integer adds, so the cluster-wide percentile
	// rollup is exact (to bucket resolution) and associative, unlike
	// any combination of the pre-computed percentiles above.
	SumNs   uint64   `json:"sum_ns"`
	Buckets []uint64 `json:"buckets"`
}

// latencyJSON is the /api/status latency block: one fixed field per
// instrumented endpoint, so the JSON shape (and field order) is
// deterministic.
type latencyJSON struct {
	// Ask is GET /api/ask.
	Ask endpointLatencyJSON `json:"ask"`
	// Ingest is POST /api/ads plus DELETE /api/ads/{id}.
	Ingest endpointLatencyJSON `json:"ingest"`
	// ReplPoll is GET /api/repl/wal; the long-poll wait is part of
	// each sample, so its tail tracks the poll timeout by design.
	ReplPoll endpointLatencyJSON `json:"repl_poll"`
}

// endpointLatency renders one histogram's snapshot.
func endpointLatency(h *telemetry.Histogram) endpointLatencyJSON {
	snap := h.Snapshot()
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	return endpointLatencyJSON{
		Count:   int64(snap.Count),
		MeanMs:  snap.Mean() / 1e6,
		P50Ms:   ms(snap.Quantile(0.50)),
		P90Ms:   ms(snap.Quantile(0.90)),
		P99Ms:   ms(snap.Quantile(0.99)),
		P999Ms:  ms(snap.Quantile(0.999)),
		SumNs:   snap.Sum,
		Buckets: snap.WireBuckets(),
	}
}

// latencyStatus builds the whole block from the process histograms.
func latencyStatus() latencyJSON {
	return latencyJSON{
		Ask:      endpointLatency(&telemetry.Latency.Ask),
		Ingest:   endpointLatency(&telemetry.Latency.Ingest),
		ReplPoll: endpointLatency(&telemetry.Latency.ReplPoll),
	}
}
