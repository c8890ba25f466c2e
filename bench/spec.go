package main

// This file is the benchmark's contract in code: the workload names,
// the end-to-end metrics with their regression bounds, and the
// per-layer metrics with the end-to-end metric each should move.
// BENCHMARK.json at the repository root repeats the names, units,
// directions and bounds; TestSpecMatchesBenchmarkJSON keeps the two
// from drifting.

// Workload names are permanent: later PRs compare against them.
const (
	wlAskSmall = "ask_small"
	wlAskLarge = "ask_large"
	wlFrontAsk = "front_ask"
	wlMixed    = "mixed"
)

type workloadSpec struct {
	Name string
	Why  string
	// Ads is the corpus size per domain; Pool the number of distinct
	// questions generated (paperQuestions means the 650-question survey
	// split); Sample how many of them the verification pass and the
	// traced pass replay.
	Ads, Pool, Sample int
	Front, Durable    bool
}

// paperQuestions is the evaluation's survey size (Sec. 5.1): 80 cars
// questions plus 570 across the other seven domains.
const (
	paperQuestions = 650
	paperCars      = 80
)

var workloads = []workloadSpec{
	{Name: wlAskSmall, Ads: 500, Pool: paperQuestions, Sample: paperQuestions,
		Why: "monolith, 8x500 ads, 650 questions looped: fits every cache, so webui+net/http envelope is most of a request"},
	{Name: wlAskLarge, Ads: 20000, Pool: 20000, Sample: 2000,
		Why: "monolith, 8x20000 ads, 20000 distinct questions: scan, relaxation and Rank_Sim dominate and caches are outrun"},
	{Name: wlFrontAsk, Ads: 500, Pool: paperQuestions, Sample: paperQuestions, Front: true,
		Why: "front tier over cars split h0/2,h1/2 plus one 7-domain shard: only workload where router hop and scatter-merge work"},
	{Name: wlMixed, Ads: 500, Pool: paperQuestions, Sample: paperQuestions, Durable: true,
		Why: "durable monolith, 9 asks : 1 write per client: version-keyed caches invalidated, WAL fsync and group commit exercised"},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change is rejected; per-layer metrics
	// carry none.
	Bound float64
	// Moves names, for a per-layer metric, the end-to-end metric and
	// workload it is expected to move (README "How they interact").
	Moves string
}

// endToEnd is what a user of the system sees. Same name = same
// definition on every workload; every run prints all of them.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "ask_rps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "ask_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ask_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower", Bound: 0.10},
	{Name: "forward_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "scatter_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer is the traced run's output. A metric that does not apply to
// a workload (shard.* on a monolith, ingest on a read-only workload)
// reads 0 there.
var perLayer = []metricSpec{
	{Name: "client.ask_us", Unit: "us", Better: "lower", Moves: "= clients/ask_rps; all"},
	{Name: "client.ask_p99_ms", Unit: "ms", Better: "lower", Moves: "tail, ungated; ask_large"},
	{Name: "client.ask_p999_ms", Unit: "ms", Better: "lower", Moves: "tail, ungated; ask_large"},
	{Name: "client.resp_bytes", Unit: "B", Better: "lower", Moves: "nethttp.self_us, webui.encode_us"},
	{Name: "client.ingest_p50_ms", Unit: "ms", Better: "lower", Moves: "ask_rps, cpu_us_per_op; mixed"},
	{Name: "client.ingest_p90_ms", Unit: "ms", Better: "lower", Moves: "ask_rps; mixed"},
	{Name: "client.fail_share", Unit: "ratio", Better: "lower", Moves: "must stay 0; all"},
	{Name: "nethttp.self_us", Unit: "us", Better: "lower", Moves: "ask_rps, ask_p50_ms; ask_small"},
	{Name: "webui.handler_us", Unit: "us", Better: "lower", Moves: "ask_p50_ms; ask_small, front_ask"},
	{Name: "webui.build_us", Unit: "us", Better: "lower", Moves: "ask_p50_ms; ask_small, front_ask"},
	{Name: "webui.encode_us", Unit: "us", Better: "lower", Moves: "ask_p50_ms, cpu_us_per_op; ask_small, front_ask"},
	{Name: "webui.self_us", Unit: "us", Better: "lower", Moves: "ask_p50_ms; ask_small, front_ask"},
	{Name: "webui.ingest_self_us", Unit: "us", Better: "lower", Moves: "client.ingest_p50_ms; mixed"},
	{Name: "core.ask_us", Unit: "us", Better: "lower", Moves: "ask_rps, ask_p90_ms; ask_large"},
	{Name: "classify.us", Unit: "us", Better: "lower", Moves: "ask_p50_ms; ask_small; forward_p50_ms; front_ask"},
	{Name: "trie.tag_us", Unit: "us", Better: "lower", Moves: "ask_p50_ms; ask_small"},
	{Name: "trie.tags_per_ask", Unit: "count", Better: "lower", Moves: "repeats per seed"},
	{Name: "boolean.interpret_us", Unit: "us", Better: "lower", Moves: "ask_p50_ms; ask_small"},
	{Name: "boolean.conds_per_ask", Unit: "count", Better: "lower", Moves: "repeats per seed"},
	{Name: "core.sqlgen_us", Unit: "us", Better: "lower", Moves: "ask_p50_ms; ask_small"},
	{Name: "sql.compile_us", Unit: "us", Better: "lower", Moves: "ask_p90_ms; mixed (paid after each invalidation)"},
	{Name: "sql.run_us", Unit: "us", Better: "lower", Moves: "ask_p90_ms; ask_large"},
	{Name: "core.relax_us", Unit: "us", Better: "lower", Moves: "ask_rps, ask_p90_ms; ask_large"},
	{Name: "rank.candidates_per_ask", Unit: "count", Better: "lower", Moves: "rank.rank_us; ask_large"},
	{Name: "rank.rank_us", Unit: "us", Better: "lower", Moves: "ask_rps, ask_p90_ms; ask_large"},
	{Name: "core.other_us", Unit: "us", Better: "lower", Moves: "attribution residue"},
	{Name: "core.stage_coverage", Unit: "ratio", Better: "higher", Moves: "attribution quality, target >=0.9"},
	{Name: "core.answers_per_ask", Unit: "count", Better: "higher", Moves: "repeats per seed"},
	{Name: "core.partial_share", Unit: "ratio", Better: "lower", Moves: "repeats per seed"},
	{Name: "core.empty_share", Unit: "ratio", Better: "lower", Moves: "repeats per seed"},
	{Name: "core.plan_hit_rate", Unit: "ratio", Better: "higher", Moves: "sql.compile_us; ~1 on ask_small, lower on mixed"},
	{Name: "core.plan_invalidations", Unit: "count", Better: "lower", Moves: "sql.compile_us; mixed only"},
	{Name: "sqldb.rows_live", Unit: "count", Better: "lower", Moves: "scale check"},
	{Name: "shard.route_us", Unit: "us", Better: "lower", Moves: "forward_p50_ms; front_ask"},
	{Name: "shard.ask_us", Unit: "us", Better: "lower", Moves: "forward_p50_ms, scatter_p50_ms; front_ask"},
	{Name: "shard.leg_us", Unit: "us", Better: "lower", Moves: "scatter_p50_ms; front_ask"},
	{Name: "shard.legs_per_ask", Unit: "count", Better: "lower", Moves: "scatter_p50_ms; front_ask"},
	{Name: "shard.leg_bytes", Unit: "B", Better: "lower", Moves: "shard.decode_us; front_ask"},
	{Name: "shard.decode_us", Unit: "us", Better: "lower", Moves: "scatter_p50_ms; front_ask"},
	{Name: "shard.merge_us", Unit: "us", Better: "lower", Moves: "scatter_p50_ms; front_ask"},
	{Name: "shard.self_us", Unit: "us", Better: "lower", Moves: "forward_p50_ms, scatter_p50_ms; front_ask"},
	{Name: "shard.front_us", Unit: "us", Better: "lower", Moves: "ask_rps; front_ask"},
	{Name: "shard.hedges", Unit: "count", Better: "lower", Moves: "should be 0; explains tail noise; front_ask"},
	{Name: "core.insert_us", Unit: "us", Better: "lower", Moves: "client.ingest_p50_ms; mixed"},
	{Name: "core.delete_us", Unit: "us", Better: "lower", Moves: "client.ingest_p50_ms; mixed"},
	{Name: "sqldb.insert_us", Unit: "us", Better: "lower", Moves: "index-mutation share of core.insert_us; mixed"},
	{Name: "persist.self_us", Unit: "us", Better: "lower", Moves: "client.ingest_p50_ms, client.ingest_p90_ms; mixed"},
	{Name: "persist.wal_bytes_per_write", Unit: "B", Better: "lower", Moves: "write amplification; mixed"},
	{Name: "persist.seq_per_write", Unit: "count", Better: "lower", Moves: "write amplification; mixed"},
	{Name: "proc.alloc_kb_per_op", Unit: "KB", Better: "lower", Moves: "cpu_us_per_op, tails; all"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower", Moves: "cpu_us_per_op, ask_p90_ms; ask_large"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "tails; all"},
}
