// Package telemetry holds the process-wide runtime telemetry for a
// cqads node: lock-free counters and gauges that subsystems bump on
// their hot paths, and lock-striped latency histograms that the HTTP
// layer records into, all reported by GET /api/status.
//
// It is deliberately separate from its parent package
// repro/internal/metrics, which implements the *paper-evaluation*
// measures (accuracy, precision/recall/F1, P@K, MRR) used by the
// experiment harness to score answer quality against gold labels.
// The split keeps the two roles from colliding: evaluation metrics
// are pure functions over result sets and never touch process state;
// telemetry is mutable process state and never part of an answer.
//
// Everything here is monotonic (counters, histogram tallies) or
// last-value-wins (gauges). There is no reset endpoint by design:
// scrapers derive rates from successive monotonic samples, so two
// scrapers can never corrupt each other's view.
package telemetry

import "sync/atomic"

// Counter is a monotonically increasing operation tally, safe for
// concurrent use. The zero value is ready.
type Counter struct{ n atomic.Int64 }

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.n.Add(delta) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.n.Load() }

// Gauge is a last-value-wins measurement, safe for concurrent use.
// The zero value is ready.
type Gauge struct{ n atomic.Int64 }

// Set records the current value.
func (g *Gauge) Set(v int64) { g.n.Store(v) }

// Load returns the last recorded value.
func (g *Gauge) Load() int64 { return g.n.Load() }

// Repl holds the replication counters for this process. A primary
// bumps the shipping side (ops shipped to followers, snapshot
// transfers served); a follower bumps the applying side (ops applied,
// snapshots fetched for bootstrap or catch-up) and keeps LagOps at its
// last observed replication lag. GET /api/status exposes all of them.
var Repl struct {
	// OpsShipped counts WAL operations served to followers over
	// GET /api/repl/wal.
	OpsShipped Counter
	// OpsApplied counts operations this follower applied from its
	// primary's stream.
	OpsApplied Counter
	// SnapshotsServed counts snapshot transfers served to followers
	// over GET /api/repl/snapshot.
	SnapshotsServed Counter
	// SnapshotsFetched counts snapshot transfers this follower
	// performed: the initial bootstrap plus every compaction-forced
	// re-bootstrap.
	SnapshotsFetched Counter
	// LagOps is the follower's last observed lag in operations
	// (primary sequence minus applied sequence).
	LagOps Gauge
}

// Plan holds the plan-cache counters for this process (the compiled
// streaming-query plans of internal/sql/plan, keyed on question
// shape). A plan follows Sec. 4.3's fixed Type I → II → III order and
// depends on schema and shape only, so ingest never invalidates one:
// Misses counts distinct shapes (plus LRU evictions) and a healthy
// steady-state workload shows Hits dwarfing it — millions of users
// ask the same few hundred tagged shapes. GET /api/status exposes all
// of them.
var Plan struct {
	// Hits counts cache lookups answered by a cached compiled plan.
	Hits Counter
	// Misses counts lookups that found no plan for the shape and
	// compiled one.
	Misses Counter
	// Size is the number of plans currently cached.
	Size Gauge
}

// Failover holds the election counters for this process: how often
// leadership moved and why. A healthy set shows heartbeats climbing
// and everything else flat; elections ticking without promotions means
// split votes or unreachable majorities.
var Failover struct {
	// HeartbeatsSent counts lease renewals this leader issued.
	HeartbeatsSent Counter
	// HeartbeatsRejected counts heartbeats this node fenced for
	// carrying a stale term — each one is a deposed leader learning
	// about its successor.
	HeartbeatsRejected Counter
	// Elections counts campaigns this node started (its lease lapsed).
	Elections Counter
	// VotesGranted counts votes this node granted to peers.
	VotesGranted Counter
	// Promotions counts elections this node won.
	Promotions Counter
	// StepDowns counts demotions after being deposed by a higher term.
	StepDowns Counter
	// FencedStreams counts WAL polls this node refused because the
	// follower's cursor diverged from its history (log matching
	// failed) — the rejoining-old-primary signature.
	FencedStreams Counter
	// QuorumTimeouts counts quorum-acked writes that timed out waiting
	// for follower acknowledgements (the write is durable locally).
	QuorumTimeouts Counter
	// Overloads counts writes refused by ingest admission control
	// (WAL backlog or pending-quorum queue past threshold).
	Overloads Counter
}

// Latency holds the per-endpoint request-latency histograms for this
// process. The HTTP layer (internal/webui) records one sample per
// request served; GET /api/status reports each histogram's cumulative
// count and p50/p90/p99/p999. Counts are monotonic — rates are the
// scraper's job (see the package comment).
var Latency struct {
	// Ask is GET /api/ask — one natural-language question.
	Ask Histogram
	// Ingest is POST /api/ad and DELETE /api/ad/{id} — durable
	// mutations, timed end-to-end including the WAL fsync (and the
	// quorum wait for ack=quorum writes).
	Ingest Histogram
	// ReplPoll is GET /api/repl/wal — follower long-polls; the
	// long-poll wait is part of the sample, so high percentiles
	// track the poll timeout, not a problem.
	ReplPoll Histogram
}

// Front holds the front-tier hedging counters (internal/shard.Router).
// Hedges climbing with HedgeWins near zero means the hedge delay is
// too aggressive for the fleet's real tail; HedgeWins tracking Hedges
// means a member is persistently slow or restarting.
var Front struct {
	// Hedges counts backup requests launched because the primary
	// member exceeded the hedge delay (or failed outright with
	// another member available).
	Hedges Counter
	// HedgeWins counts hedged requests where the backup's response
	// was the one used.
	HedgeWins Counter
}
