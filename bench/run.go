package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/cqads"
	"repro/internal/webui"
)

// The run shape, identical on every commit: set-up several times
// (median -> setup_s), verification pass, warm-up (discarded), then
// the measured time split into measureWindows consecutive windows whose
// per-window values are reduced by their median.
const (
	setupRepeats   = 5
	measureWindows = 5
	warmupLength   = 2 * time.Second
)

type config struct {
	spec    workloadSpec
	seed    int64
	measure time.Duration // total measured time (--seconds)
	warmup  time.Duration
	clients int
	trace   bool
	// dir is the benchmark's own directory: golden/ is read from it and
	// out/ (spans, data directories, result files) is written under it.
	dir          string
	updateGolden bool
	report       io.Writer // the human-readable report
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome. Its JSON form is both the line the
// driver reads (correct, attempted, failed, metrics) and, with the
// identifying fields, a line of a -out result file.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// set records a metric that specs declares, with the declared unit.
func (r *result) set(specs []metricSpec, name string, v float64) {
	for _, m := range specs {
		if m.Name == name {
			r.Metrics[name] = metricValue{v, m.Unit}
			return
		}
	}
	panic("metric " + name + " is not in the spec")
}

// driverLine is the exact object the last line of standard output
// carries.
func (r *result) driverLine() []byte {
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // finite floats and strings only
	}
	return line
}

// run executes one workload once and returns its metrics: the
// end-to-end set, or with cfg.trace the per-layer set. The error
// reports a benchmark that could not run; wrong answers and failed
// requests are counted in the result instead.
func run(cfg config) (*result, error) {
	outDir := filepath.Join(cfg.dir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	res := &result{Workload: cfg.spec.Name, Seed: cfg.seed, Trace: cfg.trace, Metrics: map[string]metricValue{}}
	var problems []string
	note := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	hc := &http.Client{Timeout: 30 * time.Second}
	defer hc.CloseIdleConnections()

	// Set-up, timed from nothing to the first verified answer. The
	// traced run reports no setup_s and builds once.
	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	var topo *topology
	var setups []float64
	for i := 0; i < repeats; i++ {
		if topo != nil {
			topo.close()
		}
		start := time.Now()
		t, err := build(cfg.spec, cfg.seed, outDir)
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", cfg.spec.Name, err)
		}
		topo = t
		status, body, err := get(hc, topo.entry+askPath(cannedQuestion), nil)
		res.Attempted++
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("HTTP %d", status)
		}
		if err == nil {
			err = checkStructure(body)
		}
		if err != nil {
			res.Failed++
			note("first answer after set-up: %v", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer topo.close()

	// Inputs and expectations, outside every timing. Questions are
	// sampled from a monolith's tables: the system under test when it is
	// one, else a reference monolith that also supplies the bytes the
	// front tier must reproduce.
	var in *inputs
	var reference []digest
	var err error
	if cfg.spec.Front {
		ref, rerr := cqads.Open(topo.opts)
		if rerr != nil {
			return nil, fmt.Errorf("opening reference monolith: %w", rerr)
		}
		if in, err = makeInputs(cfg.spec, cfg.seed, ref.DB()); err == nil {
			reference, err = referenceDigests(webui.NewServer(ref), in)
		}
		_ = ref.Close()
	} else {
		in, err = makeInputs(cfg.spec, cfg.seed, topo.monolith().sys.DB())
	}
	if err != nil {
		return nil, err
	}

	v, asked, wrong, combined, verr := verifyPass(hc, topo.entry, in, reference)
	res.Attempted += asked
	res.Failed += wrong
	if verr != nil {
		note("verification pass: %d of %d wrong, last: %v", wrong, asked, verr)
	}
	if cfg.seed == goldenSeed {
		key := goldenKey(cfg.spec)
		switch golden, gerr := loadGolden(cfg.dir); {
		case cfg.updateGolden:
			if err := saveGolden(cfg.dir, key, combined); err != nil {
				return nil, err
			}
		case gerr != nil:
			return nil, gerr
		case golden[key] != combined:
			res.Failed++
			note("answers differ from the committed digest %s[%s]: got %s, want %s", goldenFile, key, combined, golden[key])
		}
	}

	clients := newClients(cfg.clients, topo, in, v, cfg.seed)
	defer clients[0].http.CloseIdleConnections()
	warm := drive(clients, 1, cfg.warmup)
	heap := heapMB()

	var wins []window
	if cfg.trace {
		wins, err = traceRun(cfg, topo, in, clients, outDir, res)
	} else {
		wins = drive(clients, measureWindows, cfg.measure/measureWindows)
		endToEndMetrics(res, wins, setups, heap)
	}
	if err != nil {
		return nil, err
	}
	for _, w := range append(warm, wins...) {
		res.Attempted += w.attempted
		res.Failed += w.failed
	}
	for _, c := range clients {
		if c.firstErr != nil {
			note("client %d: %v", c.id, c.firstErr)
		}
	}

	if cfg.spec.Durable {
		var live, deleted []adRef
		for _, c := range clients {
			live = append(live, c.inserted...)
			deleted = append(deleted, c.deleted...)
		}
		lost, derr := checkDurability(topo, live, deleted)
		if derr != nil {
			return nil, fmt.Errorf("durability check: %w", derr)
		}
		res.Attempted += len(live) + len(deleted)
		res.Failed += lost
		if lost > 0 {
			note("durability: %d of %d acked writes lost after a kill", lost, len(live)+len(deleted))
		}
	}
	if cfg.trace {
		res.set(perLayer, "client.fail_share", float64(res.Failed)/float64(res.Attempted))
	}
	res.Correct = res.Failed == 0

	printReport(cfg, res, wins, problems)
	return res, nil
}

// endToEndMetrics reduces the measurement windows to the end-to-end
// metrics: every timing and throughput value is the median of the
// per-window values.
func endToEndMetrics(res *result, wins []window, setups []float64, heap float64) {
	perWindow := func(f func(w *window) float64) float64 {
		vals := make([]float64, len(wins))
		for i := range wins {
			vals[i] = f(&wins[i])
		}
		return median(vals)
	}
	set := func(name string, v float64) { res.set(endToEnd, name, v) }
	set("setup_s", median(setups))
	set("heap_mb", heap)
	set("ask_rps", perWindow(func(w *window) float64 { return float64(w.asks()) / w.length.Seconds() }))
	set("ask_p50_ms", perWindow(func(w *window) float64 { return 1e3 * percentile(w.allAsks(), 0.50) }))
	set("ask_p90_ms", perWindow(func(w *window) float64 { return 1e3 * percentile(w.allAsks(), 0.90) }))
	set("cpu_us_per_op", perWindow(func(w *window) float64 {
		return us(w.after.cpu-w.before.cpu) / float64(max(w.ops(), 1))
	}))
	set("alloc_kb_per_op", perWindow(func(w *window) float64 {
		return float64(w.after.alloc-w.before.alloc) / 1024 / float64(max(w.ops(), 1))
	}))
	set("forward_p50_ms", perWindow(func(w *window) float64 { return 1e3 * percentile(w.others, 0.50) }))
	set("scatter_p50_ms", perWindow(func(w *window) float64 { return 1e3 * percentile(w.cars, 0.50) }))
}

func (w *window) allAsks() []float64 {
	return append(append(make([]float64, 0, w.asks()), w.cars...), w.others...)
}

// printReport writes the human-readable form: every metric by name
// with its unit, the sample counts behind the latency lines, and what
// went wrong if anything did.
func printReport(cfg config, res *result, wins []window, problems []string) {
	w := cfg.report
	kind, specs := "end-to-end", endToEnd
	if cfg.trace {
		kind, specs = "per-layer (traced)", perLayer
	}
	fmt.Fprintf(w, "\n== %s  seed=%d  clients=%d  %s ==\n", cfg.spec.Name, cfg.seed, cfg.clients, kind)
	fmt.Fprintf(w, "   %s\n", cfg.spec.Why)
	var asks, cars, ingest int
	for i := range wins {
		asks += wins[i].asks()
		cars += len(wins[i].cars)
		ingest += len(wins[i].ingest)
	}
	fmt.Fprintf(w, "   samples over %d window(s): asks=%d (cars=%d, others=%d) ingest=%d\n",
		len(wins), asks, cars, asks-cars, ingest)
	if !cfg.trace {
		fmt.Fprintf(w, "   per-window ask_rps:")
		for i := range wins {
			fmt.Fprintf(w, " %.0f", float64(wins[i].asks())/wins[i].length.Seconds())
		}
		fmt.Fprintln(w)
	}
	for _, m := range specs {
		v, ok := res.Metrics[m.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "   %-28s %14.4f %s\n", m.Name, v.Value, v.Unit)
	}
	fmt.Fprintf(w, "   attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	sort.Strings(problems)
	for _, p := range problems {
		fmt.Fprintf(w, "   PROBLEM: %s\n", p)
	}
}
