package shard

// Hedged reads for replica-set groups. The router times every read it
// serves and feeds the sample into the owning group's latency
// histogram; when a read against a multi-member group is still
// outstanding past the group's learned hedge delay (derived from its
// own p99), a backup copy of the request is launched at another
// routable member. The first leg to answer 200 wins and the loser is
// cancelled, so a slow or restarting member costs one extra upstream
// request instead of a degraded error. A primary that fails outright
// (connection refused, mid-restart) hedges immediately — the hedge is
// the retry — which replaces the old degrade-to-error window during a
// member restart.
//
// Writes never hedge: POST /api/ads and DELETE /api/ads/{id} are not
// idempotent from the router's point of view, so they keep doRouted's
// resolve → send → invalidate-and-retry-once discipline.
//
// Hedge volume is observable: telemetry.Front.Hedges counts backup
// requests launched, telemetry.Front.HedgeWins counts the subset whose
// response was the one actually served.

import (
	"context"
	"net/http"
	"sort"
	"time"

	"repro/internal/metrics/telemetry"
)

const (
	// hedgeMinSamples gates the learned delay: below this many recorded
	// reads the group's histogram is cold and hedgeColdDelay applies.
	hedgeMinSamples = 32
	// hedgeColdDelay is the conservative hedge delay used before the
	// group's histogram warms up.
	hedgeColdDelay = 50 * time.Millisecond
	// hedgeFloor bounds the learned delay from below so a sub-millisecond
	// p99 does not turn every read into two upstream requests.
	hedgeFloor = 2 * time.Millisecond
)

// groupLatency is one group's learned read-latency profile, shared by
// every domain the group hosts (like the shared leader watcher) so the
// hedge delay reflects the shard's behavior, not one domain's slice of
// its traffic.
type groupLatency struct {
	key  string // "|"-joined member list, the Owner form
	hist telemetry.Histogram
}

// hedgeDelay is how long a read may stay outstanding before a backup
// request launches: twice the group's observed p99 (so well under 1%
// of reads hedge in steady state), floored, with a fixed conservative
// delay while the histogram is cold.
func (g *groupLatency) hedgeDelay() time.Duration {
	snap := g.hist.Snapshot()
	if snap.Count < hedgeMinSamples {
		return hedgeColdDelay
	}
	d := 2 * time.Duration(snap.Quantile(0.99))
	if d < hedgeFloor {
		d = hedgeFloor
	}
	return d
}

// doRead issues one GET to a partition. Single-member sets route
// statically exactly as before; multi-member sets take the hedged
// path. Either way the serving leg's latency feeds the set's histogram
// — which is also where the hedge delay is learned.
func (r *Router) doRead(ctx context.Context, p *partState, pathAndQuery string, hdr map[string]string) (base string, status int, respBody []byte, err error) {
	if p.watch == nil {
		start := time.Now()
		base, status, respBody, err = r.doRouted(ctx, http.MethodGet, p, pathAndQuery, nil, "", hdr)
		if err == nil && p.lat != nil {
			p.lat.hist.Record(time.Since(start).Nanoseconds())
		}
		return base, status, respBody, err
	}
	return r.doHedged(ctx, p, pathAndQuery, hdr)
}

// hedgeLeg is one request's outcome inside a hedged read.
type hedgeLeg struct {
	base   string
	status int
	body   []byte
	err    error
	backup bool
}

// doHedged races a read against up to two members of the partition's
// replica set: the resolved leader first, then — after the set's hedge
// delay, or immediately if the primary leg fails outright — a backup
// copy at another member. Reads are servable by any member, so the
// first leg answering 200 wins and the other is cancelled. When no leg
// answers 200 the primary's outcome is preferred for attribution, with
// any real HTTP response beating a transport error.
func (r *Router) doHedged(ctx context.Context, p *partState, pathAndQuery string, hdr map[string]string) (string, int, []byte, error) {
	g := p.lat
	members := p.members
	w := p.watch
	primary, err := w.Resolve(ctx)
	if err != nil {
		return "", 0, nil, err
	}
	backupTo := ""
	for _, m := range members {
		if m != primary {
			backupTo = m
			break
		}
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	legs := make(chan hedgeLeg, 2) // buffered: the losing leg's send never blocks
	launch := func(target string, backup bool) {
		go func() {
			start := time.Now()
			status, respBody, err := r.do(cctx, http.MethodGet, target, pathAndQuery, nil, "", hdr)
			if err == nil {
				g.hist.Record(time.Since(start).Nanoseconds())
			}
			legs <- hedgeLeg{base: target, status: status, body: respBody, err: err, backup: backup}
		}()
	}
	launch(primary, false)
	timer := time.NewTimer(g.hedgeDelay())
	defer timer.Stop()

	hedged := backupTo == "" // a leaderless remainder has nowhere to hedge
	outstanding := 1
	var fallback *hedgeLeg
	for {
		select {
		case <-timer.C:
			if !hedged {
				hedged = true
				telemetry.Front.Hedges.Add(1)
				launch(backupTo, true)
				outstanding++
			}
		case leg := <-legs:
			outstanding--
			if leg.err == nil && leg.status == http.StatusOK {
				if leg.backup {
					telemetry.Front.HedgeWins.Add(1)
				}
				cancel() // the losing leg stops spending shard time
				return leg.base, leg.status, leg.body, nil
			}
			if leg.err != nil && !leg.backup {
				// The cached leader is stale the same way doRouted would
				// have discovered; the hedge below is the retry.
				w.Invalidate(leg.base)
			}
			if fallback == nil || (fallback.err != nil && leg.err == nil) {
				l := leg
				fallback = &l
			}
			if !hedged {
				// The primary settled badly before the timer fired:
				// hedge immediately instead of waiting out the delay.
				hedged = true
				telemetry.Front.Hedges.Add(1)
				launch(backupTo, true)
				outstanding++
				continue
			}
			if outstanding == 0 {
				if fallback.err == nil {
					return fallback.base, fallback.status, fallback.body, nil
				}
				return fallback.base, 0, nil, fallback.err
			}
		case <-cctx.Done():
			return primary, 0, nil, cctx.Err()
		}
	}
}

// GroupLatencyView is one group's entry in the front tier's latency
// status block.
type GroupLatencyView struct {
	// Group is the "|"-joined member list (the Owner form).
	Group string `json:"group"`
	// Count is the cumulative number of reads served, monotonic over
	// the router's lifetime (same no-reset contract as webui's block).
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	// HedgeDelayMs is the delay currently in force for this group.
	HedgeDelayMs float64 `json:"hedge_delay_ms"`
}

// GroupLatencies reports every group's learned read-latency profile,
// sorted by group key so the status shape is deterministic. Member
// sets retired by a rebalance stay listed — their counts are monotonic
// like every other latency counter, and scrapers difference them.
func (r *Router) GroupLatencies() []GroupLatencyView {
	r.regMu.Lock()
	groups := make([]*groupLatency, 0, len(r.regLat))
	for _, g := range r.regLat {
		groups = append(groups, g)
	}
	r.regMu.Unlock()
	sort.Slice(groups, func(i, j int) bool { return groups[i].key < groups[j].key })
	out := make([]GroupLatencyView, 0, len(groups))
	for _, g := range groups {
		snap := g.hist.Snapshot()
		out = append(out, GroupLatencyView{
			Group:        g.key,
			Count:        int64(snap.Count),
			MeanMs:       snap.Mean() / 1e6,
			P50Ms:        float64(snap.Quantile(0.50)) / 1e6,
			P99Ms:        float64(snap.Quantile(0.99)) / 1e6,
			HedgeDelayMs: float64(g.hedgeDelay()) / float64(time.Millisecond),
		})
	}
	return out
}
