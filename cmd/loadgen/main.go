// Command loadgen drives a running cqads topology — a monolith, a
// shard cluster behind a front tier, or a replica set's leader — with
// the paper's 650-question workload plus live ad ingest, and reports
// client-observed throughput and latency percentiles per endpoint.
//
// Usage:
//
//	loadgen -targets http://HOST:PORT[,URL...] -label monolith
//	        [-seed 42] [-ads 150] [-domains cars,csjobs,...]
//	        [-warmup 2s] [-duration 10s]
//	        [-workers 8 | -rate 200]
//	        [-ingest-rate 20] [-ack local|quorum]
//	        [-scenario rebalance -rebalance-domain cars
//	         -rebalance-source h1/2 -rebalance-target-url URL
//	         -rebalance-slice h3/4 [-rebalance-at 3s]]
//	        [-out BENCH_pr9.json] [-max-errors -1]
//
// The question set is rebuilt exactly as the evaluation harness builds
// it (the same seed-derived generators over the same synthetic
// corpus: 80 cars questions plus 570 across the other domains), so
// the server under test — started with the same -seed/-ads — is asked
// questions about ads it actually holds. Questions are shuffled
// deterministically and replayed in a loop for the whole run.
//
// Two load modes:
//
//   - Closed loop (default): -workers goroutines each keep exactly one
//     request outstanding, so offered load adapts to the server —
//     the classic throughput-at-saturation measurement.
//   - Open loop (-rate N): requests start on a fixed schedule of N per
//     second regardless of completions, so queueing delay shows up in
//     the tail instead of being absorbed by the client. Arrivals that
//     would exceed the in-flight cap are dropped and counted.
//
// With -ingest-rate R a background writer posts R generated ads per
// second (rotating domains, -ack durability).
// The warmup phase runs the identical mix but its samples are
// discarded.
//
// With -scenario rebalance, loadgen additionally starts a live
// partition move through the front tier's POST /api/rebalance
// -rebalance-at into the measured phase, polls it to completion, and
// records ask latency in half-second windows so the report charts the
// tail through the fence and cutover. The run fails (exit 1 under
// -max-errors) if the move does not finish in step "done".
//
// Results append to -out as one entry in the file's "runs" array (the
// file accumulates runs across topologies), including per-endpoint
// count, throughput, mean/p50/p90/p99/p999 milliseconds, and
// ok/202/429/error splits. When the first target's /api/status
// exposes the front tier's hedge counters, their deltas over the
// measured phase are recorded too. With -max-errors >= 0 the exit
// status is 1 when transport or 5xx errors exceed the bound, so CI
// can assert a clean run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adsgen"
	"repro/internal/metrics/telemetry"
	"repro/internal/questions"
	"repro/internal/schema"
)

// The evaluation's survey sizes (Sec. 5.1): 80 cars responses plus
// 570 across the other domains. Mirrored from internal/experiments so
// loadgen rebuilds the identical test set without dragging in the
// whole evaluation environment.
const (
	carsQuestionCount   = 80
	domainQuestionTotal = 570
)

// maxInFlight caps open-loop concurrency: arrivals past the cap are
// dropped (and counted) instead of accumulating goroutines without
// bound against a stalled server.
const maxInFlight = 1024

type workItem struct {
	domain string
	text   string
}

// epSink accumulates one endpoint's client-side observations for one
// phase. The histogram is the same lock-striped type the servers use.
type epSink struct {
	hist     telemetry.Histogram
	ok       atomic.Int64 // 2xx except 202
	accepted atomic.Int64 // 202: applied, quorum unconfirmed
	shed     atomic.Int64 // 429: admission control
	errs     atomic.Int64 // transport errors and every other status
}

func (s *epSink) record(d time.Duration, status int, err error) {
	switch {
	case errors.Is(err, context.Canceled):
		return // the run ended with this request in flight; not an error
	case err != nil:
		s.errs.Add(1)
		return
	case status == http.StatusAccepted:
		s.accepted.Add(1)
	case status == http.StatusTooManyRequests:
		s.shed.Add(1)
	case status >= 200 && status < 300:
		s.ok.Add(1)
	default:
		s.errs.Add(1)
	}
	// Only answered requests carry a meaningful service time.
	s.hist.Record(d.Nanoseconds())
}

// sinks is one phase's full set of endpoint accumulators; the active
// set is swapped atomically at the warmup → measure boundary.
type sinks struct {
	ask, ingest epSink
	dropped     atomic.Int64 // open-loop arrivals past the in-flight cap
}

type loadgen struct {
	targets []string
	client  *http.Client
	items   []workItem
	ack     string
	cur     atomic.Pointer[sinks]
	next    atomic.Int64 // work-item cursor, shared by all loops
	// tl, when non-nil, also buckets single-ask latencies into fixed
	// wall-time windows (the -scenario rebalance chart).
	tl *timeline
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	var (
		targetsFlag = flag.String("targets", "", "comma-separated base URLs to drive (round-robin); required")
		label       = flag.String("label", "run", "topology label recorded in the output")
		seed        = flag.Int64("seed", 42, "corpus seed; must match the servers under test")
		ads         = flag.Int("ads", 150, "ads per domain; must match the servers under test")
		domainsFlag = flag.String("domains", "", "comma-separated domains to exercise (default: all)")
		warmup      = flag.Duration("warmup", 2*time.Second, "warmup phase; samples discarded")
		duration    = flag.Duration("duration", 10*time.Second, "measured phase")
		workers     = flag.Int("workers", 8, "closed-loop concurrency (used when -rate is 0)")
		rate        = flag.Float64("rate", 0, "open-loop arrival rate in requests/sec (0 = closed loop)")
		ingestRate  = flag.Float64("ingest-rate", 0, "background ad inserts per second (0 = none)")
		ack         = flag.String("ack", "local", "durability for ingested ads: local or quorum")
		out         = flag.String("out", "BENCH_pr9.json", "results file; this run appends to its runs array")
		maxErrors   = flag.Int64("max-errors", -1, "exit 1 when transport/5xx errors exceed this (-1 = don't enforce)")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-request timeout")

		scenario  = flag.String("scenario", "", "extra mid-run choreography: \"rebalance\" (default: none)")
		rebDomain = flag.String("rebalance-domain", "cars", "rebalance scenario: domain to move a slice of")
		rebSource = flag.String("rebalance-source", "", "rebalance scenario: source slice, e.g. h1/2")
		rebTarget = flag.String("rebalance-target-url", "", "rebalance scenario: base URL of the caught-up target follower")
		rebSlice  = flag.String("rebalance-slice", "", "rebalance scenario: child slice to move, e.g. h3/4")
		rebAt     = flag.Duration("rebalance-at", 3*time.Second, "rebalance scenario: delay into the measured phase")
	)
	flag.Parse()
	if *targetsFlag == "" {
		log.Fatal("-targets is required")
	}
	var spec *rebalanceSpec
	switch *scenario {
	case "":
	case "rebalance":
		if *rebSource == "" || *rebTarget == "" || *rebSlice == "" {
			log.Fatal("-scenario rebalance requires -rebalance-source, -rebalance-target-url, and -rebalance-slice")
		}
		spec = &rebalanceSpec{
			domain: *rebDomain, source: *rebSource,
			targetURL: *rebTarget, targetSlice: *rebSlice, after: *rebAt,
		}
	default:
		log.Fatalf("unknown -scenario %q", *scenario)
	}
	targets := splitList(*targetsFlag)
	domains := schema.DomainNames
	if *domainsFlag != "" {
		domains = splitList(*domainsFlag)
		for _, d := range domains {
			if schema.ByName(d) == nil {
				log.Fatalf("unknown domain %q", d)
			}
		}
	}

	items, err := buildWorkload(*seed, *ads, domains)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("workload: %d questions over %s", len(items), strings.Join(domains, ","))

	g := &loadgen{
		targets: targets,
		client:  &http.Client{Timeout: *timeout},
		items:   items,
		ack:     *ack,
	}
	if spec != nil {
		g.tl = newTimeline(*duration)
	}
	for _, t := range targets {
		if err := waitServing(g.client, t); err != nil {
			log.Fatal(err)
		}
	}
	frontBefore := scrapeFront(g.client, targets[0])

	warm := &sinks{}
	measured := &sinks{}
	g.cur.Store(warm)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	if *rate > 0 {
		wg.Add(1)
		go func() { defer wg.Done(); g.openLoop(ctx, *rate) }()
	} else {
		for w := 0; w < *workers; w++ {
			wg.Add(1)
			go func() { defer wg.Done(); g.closedLoop(ctx) }()
		}
	}
	if *ingestRate > 0 {
		wg.Add(1)
		go func() { defer wg.Done(); g.ingestLoop(ctx, *seed, domains, *ingestRate) }()
	}

	time.Sleep(*warmup)
	g.cur.Store(measured) // warmup over: measure from here
	measureStart := time.Now()
	if g.tl != nil {
		g.tl.begin(measureStart)
	}
	var reb *rebalanceReport
	rebDone := make(chan struct{})
	if spec != nil {
		go func() {
			defer close(rebDone)
			reb = driveRebalance(ctx, g.client, targets[0], *spec, measureStart)
		}()
	} else {
		close(rebDone)
	}
	time.Sleep(*duration)
	cancel()
	wg.Wait()
	<-rebDone
	elapsed := time.Since(measureStart)
	front := frontDelta(frontBefore, scrapeFront(g.client, targets[0]))

	run := buildRun(*label, targets, *rate, *workers, *ingestRate, *ack,
		*seed, *ads, len(items), *warmup, elapsed, measured, front)
	if spec != nil {
		run.Scenario = *scenario
		run.Rebalance = reb
		run.Timeline = g.tl.report()
	}
	if err := appendRun(*out, run); err != nil {
		log.Fatal(err)
	}
	printSummary(run)
	printTimeline(run.Timeline, run.Rebalance)
	errs := measured.ask.errs.Load() + measured.ingest.errs.Load()
	if reb != nil && reb.Step != "done" {
		log.Printf("rebalance move ended in step %q: %s", reb.Step, reb.Error)
		errs++
	}
	if *maxErrors >= 0 && errs > *maxErrors {
		log.Fatalf("%d errors exceed -max-errors %d", errs, *maxErrors)
	}
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(p), "/")); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// buildWorkload regenerates the evaluation's question set over the
// same synthetic corpus the servers were started with, restricted to
// the exercised domains, shuffled deterministically by the seed.
func buildWorkload(seed int64, adsPerDomain int, domains []string) ([]workItem, error) {
	db, err := adsgen.PopulateAll(seed, adsPerDomain)
	if err != nil {
		return nil, fmt.Errorf("populating workload corpus: %w", err)
	}
	keep := make(map[string]bool, len(domains))
	for _, d := range domains {
		keep[d] = true
	}
	// The 650-question split, generator seeds included, mirrors
	// experiments.NewEnv — domain filtering happens after generation
	// so a shard-subset workload asks the exact questions the full
	// evaluation would ask in those domains.
	perOther := domainQuestionTotal / (len(schema.DomainNames) - 1)
	extra := domainQuestionTotal % (len(schema.DomainNames) - 1)
	var items []workItem
	for i, d := range schema.DomainNames {
		n := perOther
		if d == "cars" {
			n = carsQuestionCount
		} else if i <= extra {
			n++
		}
		tbl, ok := db.TableForDomain(d)
		if !ok {
			return nil, fmt.Errorf("corpus has no table for domain %q", d)
		}
		gen := questions.NewGenerator(tbl, seed+404+int64(i))
		for _, q := range gen.Generate(n, questions.DefaultOptions()) {
			if keep[d] {
				items = append(items, workItem{domain: d, text: q.Text})
			}
		}
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("no questions generated for domains %v", domains)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(items), func(i, j int) {
		items[i], items[j] = items[j], items[i]
	})
	return items, nil
}

// waitServing polls a target's /healthz until it answers 200 — shard
// fronts answer 200 while serving or degraded, so a partially up
// cluster still starts the run (and surfaces as errors, not a hang).
func waitServing(client *http.Client, base string) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			code := resp.StatusCode
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if code == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("target %s not serving after 60s (last error: %v)", base, err)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// closedLoop keeps one request outstanding until the run ends.
func (g *loadgen) closedLoop(ctx context.Context) {
	for ctx.Err() == nil {
		g.issue(ctx, g.next.Add(1))
	}
}

// openLoop starts requests on a fixed schedule regardless of
// completions, dropping (and counting) arrivals past the in-flight
// cap.
func (g *loadgen) openLoop(ctx context.Context, rate float64) {
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	for {
		select {
		case <-ctx.Done():
			wg.Wait()
			return
		case <-tick.C:
			select {
			case sem <- struct{}{}:
				wg.Add(1)
				go func(i int64) {
					defer wg.Done()
					defer func() { <-sem }()
					g.issue(ctx, i)
				}(g.next.Add(1))
			default:
				g.cur.Load().dropped.Add(1)
			}
		}
	}
}

// issue sends the i-th logical request, one ask. The domain is pinned
// explicitly so routing is the topology's job, not the classifier's.
func (g *loadgen) issue(ctx context.Context, i int64) {
	s := g.cur.Load()
	target := g.targets[int(i)%len(g.targets)]
	it := g.items[int(i)%len(g.items)]
	q := url.Values{"domain": {it.domain}, "q": {it.text}}
	d, status, err := g.send(ctx, http.MethodGet, target, "/api/ask?"+q.Encode(), nil)
	s.ask.record(d, status, err)
	if g.tl != nil && err == nil {
		g.tl.record(d.Nanoseconds())
	}
}

// ingestLoop posts generated ads at a fixed rate, rotating domains,
// with the configured durability level.
func (g *loadgen) ingestLoop(ctx context.Context, seed int64, domains []string, rate float64) {
	gen := adsgen.NewGenerator(seed ^ 0x10ad)
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	path := "/api/ads"
	if g.ack != "" && g.ack != "local" {
		path += "?ack=" + url.QueryEscape(g.ack)
	}
	for i := 0; ; i++ {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			domain := domains[i%len(domains)]
			ad := gen.Generate(schema.ByName(domain), 1)[0]
			body, _ := json.Marshal(map[string]any{"domain": domain, "record": adRecord(ad)})
			target := g.targets[i%len(g.targets)]
			d, status, err := g.send(ctx, http.MethodPost, target, path, body)
			g.cur.Load().ingest.record(d, status, err)
		}
	}
}

// adRecord converts a generated ad to the JSON record shape
// POST /api/ads takes: numbers stay numbers, everything else strings.
func adRecord(ad adsgen.Ad) map[string]any {
	rec := make(map[string]any, len(ad))
	for col, v := range ad {
		switch {
		case v.IsNumber():
			rec[col] = v.Num()
		case v.IsString():
			rec[col] = v.Str()
		}
	}
	return rec
}

func (g *loadgen) send(ctx context.Context, method, base, pathAndQuery string, body []byte) (time.Duration, int, error) {
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+pathAndQuery, reader)
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := g.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return 0, 0, ctx.Err() // run over; not a server error (not recorded)
		}
		return 0, 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, 0, err
	}
	return time.Since(start), resp.StatusCode, nil
}

// frontCounters is the hedge slice of a front tier's /api/status.
type frontCounters struct {
	Hedges    int64 `json:"hedges"`
	HedgeWins int64 `json:"hedge_wins"`
}

// scrapeFront reads the front tier's hedge counters from a target's
// /api/status; nil when the target is not a front tier (a monolith's
// status has no "front" block).
func scrapeFront(client *http.Client, base string) *frontCounters {
	resp, err := client.Get(base + "/api/status")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var status struct {
		Front *frontCounters `json:"front"`
	}
	if json.NewDecoder(resp.Body).Decode(&status) != nil {
		return nil
	}
	return status.Front
}

func frontDelta(before, after *frontCounters) *frontCounters {
	if before == nil || after == nil {
		return nil
	}
	return &frontCounters{
		Hedges:    after.Hedges - before.Hedges,
		HedgeWins: after.HedgeWins - before.HedgeWins,
	}
}

// endpointReport is one endpoint's client-observed results.
type endpointReport struct {
	Count         int64   `json:"count"`
	ThroughputRPS float64 `json:"throughput_rps"`
	MeanMs        float64 `json:"mean_ms"`
	P50Ms         float64 `json:"p50_ms"`
	P90Ms         float64 `json:"p90_ms"`
	P99Ms         float64 `json:"p99_ms"`
	P999Ms        float64 `json:"p999_ms"`
	OK            int64   `json:"ok"`
	Accepted202   int64   `json:"accepted_202"`
	Shed429       int64   `json:"shed_429"`
	Errors        int64   `json:"errors"`
}

func report(s *epSink, elapsed time.Duration) endpointReport {
	snap := s.hist.Snapshot()
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	return endpointReport{
		Count:         int64(snap.Count),
		ThroughputRPS: float64(snap.Count) / elapsed.Seconds(),
		MeanMs:        snap.Mean() / 1e6,
		P50Ms:         ms(snap.Quantile(0.50)),
		P90Ms:         ms(snap.Quantile(0.90)),
		P99Ms:         ms(snap.Quantile(0.99)),
		P999Ms:        ms(snap.Quantile(0.999)),
		OK:            s.ok.Load(),
		Accepted202:   s.accepted.Load(),
		Shed429:       s.shed.Load(),
		Errors:        s.errs.Load(),
	}
}

// runReport is one loadgen invocation's entry in the results file.
type runReport struct {
	Label        string   `json:"label"`
	Targets      []string `json:"targets"`
	Mode         string   `json:"mode"`
	Workers      int      `json:"workers,omitempty"`
	RateRPS      float64  `json:"rate_rps,omitempty"`
	IngestRPS    float64  `json:"ingest_rps,omitempty"`
	Ack          string   `json:"ack,omitempty"`
	Seed         int64    `json:"seed"`
	AdsPerDomain int      `json:"ads_per_domain"`
	Questions    int      `json:"questions"`
	WarmupS      float64  `json:"warmup_s"`
	DurationS    float64  `json:"duration_s"`
	Dropped      int64    `json:"dropped,omitempty"`
	Endpoints    struct {
		Ask    *endpointReport `json:"ask,omitempty"`
		Ingest *endpointReport `json:"ingest,omitempty"`
	} `json:"endpoints"`
	Front     *frontCounters   `json:"front,omitempty"`
	Scenario  string           `json:"scenario,omitempty"`
	Rebalance *rebalanceReport `json:"rebalance,omitempty"`
	Timeline  []windowReport   `json:"timeline,omitempty"`
}

func buildRun(label string, targets []string, rate float64, workers int,
	ingestRate float64, ack string, seed int64, ads, nq int,
	warmup, elapsed time.Duration, s *sinks, front *frontCounters) *runReport {
	run := &runReport{
		Label:        label,
		Targets:      targets,
		Mode:         "closed",
		Workers:      workers,
		IngestRPS:    ingestRate,
		Ack:          ack,
		Seed:         seed,
		AdsPerDomain: ads,
		Questions:    nq,
		WarmupS:      warmup.Seconds(),
		DurationS:    elapsed.Seconds(),
		Dropped:      s.dropped.Load(),
		Front:        front,
	}
	if rate > 0 {
		run.Mode, run.Workers, run.RateRPS = "open", 0, rate
	}
	if ingestRate == 0 {
		run.Ack = ""
	}
	ask := report(&s.ask, elapsed)
	run.Endpoints.Ask = &ask
	if ingestRate > 0 {
		ing := report(&s.ingest, elapsed)
		run.Endpoints.Ingest = &ing
	}
	return run
}

// appendRun adds this run to the results file's "runs" array,
// creating the file when absent.
func appendRun(path string, run *runReport) error {
	var file struct {
		Runs []json.RawMessage `json:"runs"`
	}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &file); err != nil {
			return fmt.Errorf("existing %s is not a runs file: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	entry, err := json.Marshal(run)
	if err != nil {
		return err
	}
	file.Runs = append(file.Runs, entry)
	out, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func printSummary(run *runReport) {
	p := func(name string, r *endpointReport) {
		if r == nil {
			return
		}
		log.Printf("%-10s %6d reqs  %8.1f req/s  p50 %6.2fms  p99 %7.2fms  p999 %7.2fms  ok=%d 202=%d 429=%d err=%d",
			name, r.Count, r.ThroughputRPS, r.P50Ms, r.P99Ms, r.P999Ms,
			r.OK, r.Accepted202, r.Shed429, r.Errors)
	}
	log.Printf("run %q (%s) over %.1fs:", run.Label, run.Mode, run.DurationS)
	p("ask", run.Endpoints.Ask)
	p("ingest", run.Endpoints.Ingest)
	if run.Dropped > 0 {
		log.Printf("open-loop arrivals dropped at the in-flight cap: %d", run.Dropped)
	}
	if run.Front != nil {
		log.Printf("front tier: %d hedges, %d hedge wins", run.Front.Hedges, run.Front.HedgeWins)
	}
}
