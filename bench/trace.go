package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/cqads"
	"repro/internal/boolean"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/sql"
	"repro/internal/sqldb"
	"repro/internal/trie"
	"repro/internal/webui"
)

// span is one timed call from the benchmark into a layer. Spans of one
// replayed request share Req; Parent is the index of the span at the
// next outer boundary of that request (-1 for the client round trip).
// The boundaries are replayed one pass each, outermost first, so a
// child does not lie inside its parent on the clock: they nest by
// construction (loopback HTTP ⊃ ServeHTTP on a recorder ⊃ System.Ask ⊃
// stage calls), and a layer's self time is its span minus its
// children's.
type span struct {
	Req    int    `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory and the per-metric sums the per-layer
// means are taken from.
type tracer struct {
	t0    time.Time
	spans []span
	sums  map[string]float64
}

// timed runs fn inside a new span and adds its duration, in
// microseconds, to metric's sum (no sum when metric is empty).
func (tr *tracer) timed(req, parent int, layer, name, metric string, fn func()) int {
	start := time.Now()
	fn()
	end := time.Now()
	tr.spans = append(tr.spans, span{
		Req: req, Layer: layer, Name: name, Parent: parent,
		Start: start.Sub(tr.t0).Nanoseconds(), End: end.Sub(tr.t0).Nanoseconds(),
	})
	if metric != "" {
		tr.sums[metric] += us(end.Sub(start))
	}
	return len(tr.spans) - 1
}

func (tr *tracer) dur(id int) time.Duration {
	return time.Duration(tr.spans[id].End - tr.spans[id].Start)
}

// leg is one backend call an ask fans out to: the whole request on a
// monolith, the forwarded request or one scatter part behind the front
// tier.
type leg struct {
	b       *backend
	path    string
	hdr     map[string]string
	domain  string          // "" on a monolith: the System classifies
	slice   partition.Slice // scatter legs only
	scatter bool
}

// legsFor resolves question i to the backend calls the topology makes
// for it.
func legsFor(t *topology, in *inputs, i int) ([]leg, error) {
	if t.router == nil {
		return []leg{{b: t.monolith(), path: in.paths[i]}}, nil
	}
	domain, err := t.router.Route(in.texts[i])
	if err != nil {
		return nil, err
	}
	groups, ok := t.router.Partitions(domain)
	if !ok {
		return nil, fmt.Errorf("router has no partitions for %q", domain)
	}
	path := "/api/ask?" + url.Values{"domain": {domain}, "q": {in.texts[i]}}.Encode()
	legs := make([]leg, len(groups))
	for j, g := range groups {
		legs[j] = leg{b: t.byURL[g.Members[0]], path: path, domain: domain}
		if !g.Slice.IsWhole() {
			legs[j].scatter, legs[j].slice = true, g.Slice
			legs[j].hdr = map[string]string{webui.ScatterHeader: g.Slice.String()}
		}
	}
	return legs, nil
}

// askState carries one replayed question's span ids and intermediate
// values from pass to pass.
type askState struct {
	legs      []leg
	root      int   // client round trip
	shardAsk  int   // Router.Ask, front only
	legHTTP   []int // per leg; the root on a monolith
	legBodies [][]byte
	handler   []int
	coreAsk   []int
	exact     int  // exact answers leg 0 found
	answered  bool // leg 0 produced an interpretation worth executing
}

// traceRun is the traced run: one untraced closed-loop window for the
// counters that only make sense under load (tails, plan cache, GC,
// hedges, ingest percentiles), then the sequential single-client
// replay, repeated while the time budget lasts, that attributes an
// ask's time to layers.
func traceRun(cfg config, t *topology, in *inputs, clients []*loadClient, outDir string, res *result) ([]window, error) {
	set := func(name string, v float64) { res.set(perLayer, name, v) }
	for _, m := range perLayer {
		set(m.Name, 0) // a metric the workload has no use for reads 0
	}

	// Under-load counters.
	hc := clients[0].http
	planBefore, hedgesBefore := planStats(t), frontHedges(hc, t)
	wins := drive(clients, 1, cfg.measure/2)
	w := &wins[0]
	planAfter, hedgesAfter := planStats(t), frontHedges(hc, t)
	set("client.ask_p99_ms", 1e3*percentile(w.allAsks(), 0.99))
	set("client.ask_p999_ms", 1e3*percentile(w.allAsks(), 0.999))
	set("client.ingest_p50_ms", 1e3*percentile(w.ingest, 0.50))
	set("client.ingest_p90_ms", 1e3*percentile(w.ingest, 0.90))
	lookups := planAfter.sub(planBefore)
	if n := lookups.hits + lookups.misses + lookups.invalidations; n > 0 {
		set("core.plan_hit_rate", float64(lookups.hits)/float64(n))
	}
	set("core.plan_invalidations", float64(lookups.invalidations))
	set("shard.hedges", float64(hedgesAfter-hedgesBefore))
	set("proc.alloc_kb_per_op", float64(w.after.alloc-w.before.alloc)/1024/float64(max(w.ops(), 1)))
	set("proc.gc_cycles", float64(w.after.gcCycles-w.before.gcCycles))
	set("proc.gc_pause_ms", float64(w.after.gcPauseNs-w.before.gcPauseNs)/1e6)
	live := 0
	for _, b := range t.backends {
		for _, d := range b.sys.Status().Domains {
			live += d.Live
		}
	}
	set("sqldb.rows_live", float64(live))

	// The sequential replay.
	cls := t.cls
	if cls == nil {
		var err error
		if cls, err = cqads.NewQuestionClassifier(t.opts); err != nil {
			return nil, err
		}
	}
	tr := &tracer{t0: time.Now(), sums: map[string]float64{}}
	one := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second}
	defer one.CloseIdleConnections()
	var twin *cqads.System
	var ads []writeBody
	if t.spec.Durable {
		// The same corpus without a DataDir: ingest minus persistence.
		var err error
		if twin, err = cqads.Open(t.opts); err != nil {
			return nil, err
		}
		defer twin.Close()
		ads = makeWriteBodies(cfg.seed, cfg.clients)[:traceWrites] // a stream no load client uses
	}
	deadline := time.Now().Add(cfg.measure / 2)
	var asks, legs, scattered, writes float64
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		a, l, s, err := tr.replayAsks(t, in, cls, one, round)
		if err != nil {
			return nil, err
		}
		asks, legs, scattered = asks+a, legs+l, scattered+s
		if twin != nil {
			n, err := tr.replayWrites(t.monolith(), twin, one, ads, round)
			if err != nil {
				return nil, err
			}
			writes += n
		}
	}

	perAsk := func(metric string) float64 { return tr.sums[metric] / asks }
	perLeg := func(metric string) float64 { return tr.sums[metric] / legs }
	for _, m := range []string{
		"client.ask_us", "client.resp_bytes", "webui.build_us", "webui.encode_us",
		"classify.us", "trie.tag_us", "trie.tags_per_ask", "boolean.interpret_us", "boolean.conds_per_ask",
		"core.sqlgen_us", "sql.compile_us", "sql.run_us", "core.relax_us", "rank.candidates_per_ask", "rank.rank_us",
		"core.answers_per_ask",
	} {
		set(m, perAsk(m))
	}
	if total := tr.sums["core.answers_per_ask"]; total > 0 {
		set("core.partial_share", tr.sums["partial_answers"]/total)
	}
	set("core.empty_share", perAsk("empty_asks"))
	set("webui.handler_us", perLeg("webui.handler_us"))
	set("core.ask_us", perLeg("core.ask_us"))
	set("webui.self_us", perLeg("webui.handler_us")-perLeg("core.ask_us"))
	set("nethttp.self_us", perLeg("backend_http_us")-perLeg("webui.handler_us"))
	// Stage attribution against leg 0's System.Ask, the call the stages
	// decompose. Compilation is left out of the sum: an ask pays it only
	// on a plan-cache miss.
	stages := perAsk("trie.tag_us") + perAsk("boolean.interpret_us") + perAsk("core.sqlgen_us") +
		perAsk("sql.run_us") + perAsk("core.relax_us") + perAsk("rank.rank_us")
	if t.router == nil {
		stages += perAsk("classify.us") // behind a front tier the router classifies, not the System
	}
	set("core.other_us", perAsk("core_ask0_us")-stages)
	set("core.stage_coverage", stages/perAsk("core_ask0_us"))
	if t.router != nil {
		set("shard.ask_us", perAsk("shard.ask_us"))
		set("shard.route_us", perAsk("shard.route_us"))
		set("shard.leg_us", perAsk("shard.leg_us"))
		set("shard.legs_per_ask", legs/asks)
		set("shard.leg_bytes", perAsk("shard.leg_bytes"))
		if scattered > 0 {
			set("shard.decode_us", tr.sums["shard.decode_us"]/scattered)
			set("shard.merge_us", tr.sums["shard.merge_us"]/scattered)
		}
		set("shard.self_us", perAsk("shard.ask_us")-perAsk("shard.route_us")-perAsk("shard.leg_us"))
		set("shard.front_us", perAsk("client.ask_us")-perAsk("shard.ask_us"))
	}
	if writes > 0 {
		// writes counts inserts; each was followed by one delete.
		set("core.insert_us", tr.sums["core.insert_us"]/writes)
		set("core.delete_us", tr.sums["core.delete_us"]/writes)
		set("sqldb.insert_us", tr.sums["sqldb.insert_us"]/writes)
		set("persist.self_us", (tr.sums["core.insert_us"]-tr.sums["sqldb.insert_us"])/writes)
		set("webui.ingest_self_us", (tr.sums["http_insert_us"]-tr.sums["core.insert_us"])/writes)
		if n := tr.sums["wal_writes"]; n > 0 {
			set("persist.wal_bytes_per_write", tr.sums["wal_bytes"]/n)
			set("persist.seq_per_write", tr.sums["wal_seq"]/n)
		}
	}

	raw, err := json.Marshal(tr.spans)
	if err != nil {
		return nil, err
	}
	return wins, os.WriteFile(filepath.Join(outDir, "trace-"+cfg.spec.Name+".json"), raw, 0o644)
}

// replayAsks replays the sample once per boundary, outermost first,
// and returns how many asks, legs and scattered asks it covered.
func (tr *tracer) replayAsks(t *topology, in *inputs, cls *cqads.QuestionClassifier, hc *http.Client, round int) (asks, legs, scattered float64, err error) {
	states := make([]askState, in.sample)
	req := func(i int) int { return round*in.sample + i }
	fail := func(i int, what string, e error) error {
		return fmt.Errorf("traced replay, question %d %q, %s: %w", i, in.texts[i], what, e)
	}
	for i := range states {
		if states[i].legs, err = legsFor(t, in, i); err != nil {
			return 0, 0, 0, fail(i, "routing", err)
		}
		legs += float64(len(states[i].legs))
		if states[i].legs[0].scatter {
			scattered++
		}
	}
	asks = float64(in.sample)

	// Boundary 1: the client's loopback round trip to the entry URL.
	for i := range states {
		st := &states[i]
		var body []byte
		var gerr error
		st.root = tr.timed(req(i), -1, "client", "GET /api/ask", "client.ask_us", func() {
			_, body, gerr = get(hc, t.entry+in.paths[i], nil)
		})
		if gerr != nil {
			return 0, 0, 0, fail(i, "client round trip", gerr)
		}
		var ans webui.APIResult
		if err := json.Unmarshal(body, &ans); err != nil {
			return 0, 0, 0, fail(i, "decoding the answer", err)
		}
		tr.sums["client.resp_bytes"] += float64(len(body))
		tr.sums["core.answers_per_ask"] += float64(len(ans.Answers))
		tr.sums["partial_answers"] += float64(len(ans.Answers) - ans.ExactCount)
		if len(ans.Answers) == 0 {
			tr.sums["empty_asks"]++
		}
	}

	if t.router != nil {
		// Boundary 2: the router, in-process, then its parts: the
		// classification, each backend hop, decode and merge.
		for i := range states {
			st := &states[i]
			var aerr error
			st.shardAsk = tr.timed(req(i), st.root, "shard", "Router.Ask", "shard.ask_us", func() {
				_, aerr = t.router.Ask(context.Background(), "", in.texts[i])
			})
			if aerr != nil {
				return 0, 0, 0, fail(i, "Router.Ask", aerr)
			}
		}
		for i := range states {
			tr.timed(req(i), states[i].shardAsk, "shard", "Router.Route", "shard.route_us", func() {
				_, _ = t.router.Route(in.texts[i]) // legsFor already saw it succeed
			})
		}
		for i := range states {
			st := &states[i]
			var slowest time.Duration
			for _, l := range st.legs {
				var body []byte
				var gerr error
				id := tr.timed(req(i), st.shardAsk, "shard", "leg GET "+l.b.srv.URL, "backend_http_us", func() {
					var status int
					if status, body, gerr = get(hc, l.b.srv.URL+l.path, l.hdr); gerr == nil && status != http.StatusOK {
						gerr = fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(body))
					}
				})
				if gerr != nil {
					return 0, 0, 0, fail(i, "backend hop", gerr)
				}
				st.legHTTP = append(st.legHTTP, id)
				st.legBodies = append(st.legBodies, body)
				tr.sums["shard.leg_bytes"] += float64(len(body))
				slowest = max(slowest, tr.dur(id))
			}
			tr.sums["shard.leg_us"] += us(slowest)
		}
		for i := range states {
			st := &states[i]
			if !st.legs[0].scatter {
				continue
			}
			parts := make([]*core.ScatterPart[map[string]string], len(st.legBodies))
			var derr error
			tr.timed(req(i), st.shardAsk, "shard", "decode parts", "shard.decode_us", func() {
				for j, body := range st.legBodies {
					parts[j] = new(core.ScatterPart[map[string]string])
					if err := json.Unmarshal(body, parts[j]); err != nil {
						derr = err
					}
				}
			})
			if derr == nil {
				tr.timed(req(i), st.shardAsk, "shard", "merge+encode", "shard.merge_us", func() {
					merged, err := core.MergeScatter(parts)
					if err != nil {
						derr = err
						return
					}
					derr = json.NewEncoder(io.Discard).Encode(webui.APIResultFromScatter(merged))
				})
			}
			if derr != nil {
				return 0, 0, 0, fail(i, "decode/merge", derr)
			}
		}
	} else {
		for i := range states {
			states[i].legHTTP = []int{states[i].root}
			tr.sums["backend_http_us"] += us(tr.dur(states[i].root))
		}
	}

	// Boundary 3: each backend's handler on a recorder.
	for i := range states {
		st := &states[i]
		for j, l := range st.legs {
			var status int
			id := tr.timed(req(i), st.legHTTP[j], "webui", "Server.ServeHTTP", "webui.handler_us", func() {
				status, _ = serve(l.b.handler, l.path, l.hdr)
			})
			if status != http.StatusOK {
				return 0, 0, 0, fail(i, "handler", fmt.Errorf("HTTP %d", status))
			}
			st.handler = append(st.handler, id)
		}
	}

	// Boundary 4: each backend's System, then what webui does with the
	// Result (forwarded and monolith asks; a scatter part's wire form is
	// webui's own).
	for i := range states {
		st := &states[i]
		for j, l := range st.legs {
			var result *core.Result
			var aerr error
			id := tr.timed(req(i), st.handler[j], "core", "System.Ask", "core.ask_us", func() {
				switch {
				case l.scatter:
					var part *core.ScatterResult
					if part, aerr = l.b.sys.AskInDomainScatter(l.domain, in.texts[i], l.slice); aerr == nil && j == 0 {
						st.exact, st.answered = part.ExactCount, part.SQL != ""
					}
				case l.domain == "":
					result, aerr = l.b.sys.Ask(in.texts[i])
				default:
					result, aerr = l.b.sys.AskInDomain(l.domain, in.texts[i])
				}
			})
			if aerr != nil {
				return 0, 0, 0, fail(i, "System.Ask", aerr)
			}
			st.coreAsk = append(st.coreAsk, id)
			if j > 0 {
				continue
			}
			tr.sums["core_ask0_us"] += us(tr.dur(id))
			if result == nil {
				continue
			}
			st.exact, st.answered = result.ExactCount, result.SQL != ""
			var api webui.APIResult
			tr.timed(req(i), st.handler[0], "webui", "BuildAPIResult", "webui.build_us", func() {
				api = webui.BuildAPIResult(result)
			})
			tr.timed(req(i), st.handler[0], "webui", "json.Encode", "webui.encode_us", func() {
				_ = json.NewEncoder(io.Discard).Encode(api) // strings and floats only: cannot fail
			})
		}
	}

	// Boundary 5: the stages System.Ask runs, on leg 0's System, called
	// in the order and under the conditions AskInDomain calls them.
	for i := range states {
		st := &states[i]
		if err := tr.stages(req(i), st, cls, in.texts[i]); err != nil {
			return 0, 0, 0, fail(i, "stages", err)
		}
	}
	return asks, legs, scattered, nil
}

func (tr *tracer) stages(req int, st *askState, cls *cqads.QuestionClassifier, q string) error {
	l := st.legs[0]
	parent := st.coreAsk[0]
	sys := l.b.sys
	domain := l.domain
	var err error
	tr.timed(req, parent, "classify", "ClassifyQuestion", "classify.us", func() {
		var d string
		if d, err = cls.ClassifyQuestion(q); domain == "" {
			domain = d
		}
	})
	if err != nil {
		return err
	}
	tbl, ok := sys.DB().TableForDomain(domain)
	if !ok {
		return fmt.Errorf("no table for %q", domain)
	}
	sch := tbl.Schema()
	var tags []trie.Tag
	tr.timed(req, parent, "trie", "Tagger.Tag", "trie.tag_us", func() {
		tags = sys.Tagger(domain).Tag(q)
	})
	tr.sums["trie.tags_per_ask"] += float64(len(tags))
	var in *boolean.Interpretation
	tr.timed(req, parent, "boolean", "Interpret+ResolveIncomplete", "boolean.interpret_us", func() {
		in = core.ResolveIncomplete(sch, boolean.Interpret(sch, tags))
	})
	tr.sums["boolean.conds_per_ask"] += float64(in.ConditionCount())
	if !st.answered {
		return nil // contradiction or nothing recognised: AskInDomain stops here too
	}
	var sel *sql.Select
	tr.timed(req, parent, "core", "BuildSelect.SQL", "core.sqlgen_us", func() {
		sel = core.BuildSelect(sch, in, cqads.DefaultMaxAnswers)
		_ = sel.SQL()
	})
	if in.Superlative != nil {
		unlimited := *sel
		unlimited.Limit = 0 // superlatives scan the full match set (execWithSuperlative)
		sel = &unlimited
	}
	var plan *sql.Plan
	tr.timed(req, parent, "sql", "Compile", "sql.compile_us", func() {
		plan, err = sql.Compile(sys.DB(), sel)
	})
	if err != nil {
		return err
	}
	tr.timed(req, parent, "sql", "Plan.Run", "sql.run_us", func() {
		_, err = plan.Run(sys.DB(), sel)
	})
	if err != nil {
		return err
	}
	if st.exact >= cqads.DefaultMaxAnswers || in.ConditionCount() == 0 {
		return nil // no partial matching: the cap is full or there is nothing to relax
	}
	// PartialCandidates first re-runs the exact select, unlimited, to
	// know which rows to leave out; that run is timed again on its own
	// and taken out, so core.relax_us is the relaxation sweep alone.
	exactSel := core.BuildSelect(sch, in, 0)
	exactPlan, err := sql.Compile(sys.DB(), exactSel)
	if err != nil {
		return err
	}
	var cands []sqldb.RowID
	relax := tr.timed(req, parent, "core", "PartialCandidates", "core.relax_us", func() {
		cands, err = sys.PartialCandidates(domain, in)
	})
	if err != nil {
		return err
	}
	rerun := tr.timed(req, relax, "sql", "Plan.Run (exact select inside PartialCandidates)", "", func() {
		_, err = exactPlan.Run(sys.DB(), exactSel)
	})
	if err != nil {
		return err
	}
	tr.sums["core.relax_us"] -= us(tr.dur(rerun))
	tr.sums["rank.candidates_per_ask"] += float64(len(cands))
	// Rank_Sim is timed as AskInDomain pays it: one
	// BestRankSimOverGroups per candidate. (Ranker.Rank, the comparison
	// experiments' entry point, also fully sorts the pool, which an ask
	// replaces with a bounded top-K; it reads about twice as long.)
	sim := sys.Similarity(domain)
	tr.timed(req, parent, "rank", "Similarity.BestRankSimOverGroups x candidates", "rank.rank_us", func() {
		for _, id := range cands {
			sim.BestRankSimOverGroups(tbl, id, in.Groups)
		}
	})
	return nil
}

// traceWrites is how many insert+delete pairs one replay round issues
// at each ingest boundary.
const traceWrites = 100

// replayWrites replays ingest at three boundaries — HTTP, the durable
// System, an in-memory twin System — so persistence (WAL append +
// fsync) separates from index mutation. Each insert is deleted again,
// so the corpus the ask replay sees does not drift.
func (tr *tracer) replayWrites(b *backend, twin *cqads.System, hc *http.Client, bodies []writeBody, round int) (float64, error) {
	req := func(j int) int { return -(round*traceWrites + j) - 1 }

	for j, wb := range bodies {
		var status int
		var body []byte
		var derr error
		id := tr.timed(req(j), -1, "client", "POST /api/ads", "http_insert_us", func() {
			r, _ := http.NewRequest(http.MethodPost, b.srv.URL+"/api/ads", bytes.NewReader(wb.body))
			r.Header.Set("Content-Type", "application/json")
			status, body, derr = do(hc, r)
		})
		var ack struct {
			ID sqldb.RowID `json:"id"`
		}
		if derr == nil && status != http.StatusCreated {
			derr = fmt.Errorf("HTTP %d", status)
		}
		if derr == nil {
			derr = json.Unmarshal(body, &ack)
		}
		if derr != nil {
			return 0, fmt.Errorf("traced insert: %w", derr)
		}
		tr.timed(req(j), id, "client", "DELETE /api/ads/{id}", "", func() {
			r, _ := http.NewRequest(http.MethodDelete, b.srv.URL+"/api/ads/"+strconv.Itoa(int(ack.ID))+"?domain="+wb.domain, nil)
			status, _, derr = do(hc, r)
		})
		if derr != nil || status != http.StatusOK {
			return 0, fmt.Errorf("traced delete: HTTP %d: %v", status, derr)
		}
	}
	for j, wb := range bodies {
		before := b.sys.Status().Persistence
		var id sqldb.RowID
		var ierr error
		sp := tr.timed(req(j), -1, "core", "System.InsertAd", "core.insert_us", func() {
			id, ierr = b.sys.InsertAd(wb.domain, wb.values)
		})
		if ierr != nil {
			return 0, fmt.Errorf("traced InsertAd: %w", ierr)
		}
		after := b.sys.Status().Persistence
		if after.WALBytes >= before.WALBytes { // else a checkpoint truncated the log in between
			tr.sums["wal_writes"]++
			tr.sums["wal_bytes"] += float64(after.WALBytes - before.WALBytes)
			tr.sums["wal_seq"] += float64(after.Seq - before.Seq)
		}
		tr.timed(req(j), sp, "core", "System.DeleteAd", "core.delete_us", func() {
			ierr = b.sys.DeleteAd(wb.domain, id)
		})
		if ierr != nil {
			return 0, fmt.Errorf("traced DeleteAd: %w", ierr)
		}
	}
	for j, wb := range bodies {
		var id sqldb.RowID
		var ierr error
		sp := tr.timed(req(j), -1, "sqldb", "InsertAd (in-memory twin)", "sqldb.insert_us", func() {
			id, ierr = twin.InsertAd(wb.domain, wb.values)
		})
		if ierr == nil {
			tr.timed(req(j), sp, "sqldb", "DeleteAd (in-memory twin)", "", func() {
				ierr = twin.DeleteAd(wb.domain, id)
			})
		}
		if ierr != nil {
			return 0, fmt.Errorf("traced in-memory ingest: %w", ierr)
		}
	}
	return traceWrites, nil
}

// planCounters sums the plan-cache tallies of every backend System.
type planCounters struct{ hits, misses, invalidations int64 }

func planStats(t *topology) planCounters {
	var c planCounters
	for _, b := range t.backends {
		h, m, inv, _ := b.sys.PlanCacheStats()
		c.hits, c.misses, c.invalidations = c.hits+h, c.misses+m, c.invalidations+inv
	}
	return c
}

func (c planCounters) sub(o planCounters) planCounters {
	return planCounters{c.hits - o.hits, c.misses - o.misses, c.invalidations - o.invalidations}
}

// frontHedges reads the front tier's cumulative hedge counter from its
// /api/status; 0 when the topology has no front tier.
func frontHedges(hc *http.Client, t *topology) int64 {
	if t.front == nil {
		return 0
	}
	_, body, err := get(hc, t.entry+"/api/status", nil)
	if err != nil {
		return 0
	}
	var st struct {
		Front struct {
			Hedges int64 `json:"hedges"`
		} `json:"front"`
	}
	_ = json.Unmarshal(body, &st) // a malformed status reads as no hedges
	return st.Front.Hedges
}
