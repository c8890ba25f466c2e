package core_test

// Cross-topology equivalence at the core API level: a monolith System
// and sharded Systems (core.Config.Domains subsets) built from the
// same cqads.Options must answer the 650-question workload
// bit-identically — Ask on the monolith versus classify-once +
// AskInDomain on the owning shard. This is the process-free twin of
// internal/shard's HTTP harness (one shared helper package,
// internal/shard/shardtest, builds both).

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/cqads"
	"repro/internal/core"
	"repro/internal/shard/shardtest"
	"repro/internal/sqldb"
)

const equivAds = 100

// resultKey renders everything answer-bearing in a Result (domain,
// interpretation, SQL, exact count, per-answer IDs, records, scores,
// measures) as deterministic JSON — two Results with equal keys are
// bit-identical as far as any client can observe.
func resultKey(t *testing.T, res *core.Result) string {
	t.Helper()
	type answerKey struct {
		ID             sqldb.RowID
		Exact          bool
		RankSim        float64
		DroppedCond    int
		SimilarityUsed string
		Record         map[string]string
	}
	key := struct {
		Domain         string
		Interpretation string
		SQL            string
		ExactCount     int
		Answers        []answerKey
	}{
		Domain:         res.Domain,
		Interpretation: res.Interpretation.String(),
		SQL:            res.SQL,
		ExactCount:     res.ExactCount,
		Answers:        []answerKey{},
	}
	for _, a := range res.Answers {
		rec := make(map[string]string, a.Record.Len())
		for k, v := range a.Record.All() {
			rec[k] = v.String()
		}
		key.Answers = append(key.Answers, answerKey{
			ID: a.ID, Exact: a.Exact, RankSim: a.RankSim,
			DroppedCond: a.DroppedCond, SimilarityUsed: a.SimilarityUsed,
			Record: rec,
		})
	}
	b, err := json.Marshal(key)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// shardOwners maps each domain to the System hosting it.
func shardOwners(t *testing.T, groups [][]string, systems []*cqads.System) map[string]*cqads.System {
	t.Helper()
	owners := make(map[string]*cqads.System)
	for i, group := range groups {
		for _, d := range group {
			owners[d] = systems[i]
		}
	}
	return owners
}

// TestShardEquivalence is the tentpole harness: monolith vs 8-shard
// vs 2-shard, all 650 questions bit-identical.
func TestShardEquivalence(t *testing.T) {
	opts := shardtest.Options(equivAds)
	mono := shardtest.OpenMonolith(t, opts)
	qc := shardtest.NewClassifier(t, opts)
	workload := shardtest.Workload(t, opts, mono)

	// Monolith baseline.
	want := make([]string, len(workload))
	for i, q := range workload {
		res, err := mono.Ask(q)
		if err != nil {
			t.Fatalf("monolith: %q: %v", q, err)
		}
		want[i] = resultKey(t, res)
	}

	for _, topo := range []struct {
		name   string
		groups [][]string
	}{
		{"8shard", shardtest.Groups8()},
		{"2shard", shardtest.Groups2()},
	} {
		t.Run(topo.name, func(t *testing.T) {
			systems := shardtest.OpenShardSystems(t, opts, topo.groups)
			owners := shardOwners(t, topo.groups, systems)

			// Ask: classify once (front-tier decision), answer on the
			// owning shard.
			for i, q := range workload {
				d, err := qc.ClassifyQuestion(q)
				if err != nil {
					t.Fatalf("classifying %q: %v", q, err)
				}
				res, err := owners[d].AskInDomain(d, q)
				if err != nil {
					t.Fatalf("%s: %q in %q: %v", topo.name, q, d, err)
				}
				if got := resultKey(t, res); got != want[i] {
					t.Errorf("%s: answer diverges on %q (domain %q)\n got: %s\nwant: %s",
						topo.name, q, d, got, want[i])
				}
			}
		})
	}
}

// TestShardIngestRejection: out-of-shard ads fail with the typed
// error, hosted ads land, and the shard's tables never see the
// rejected domain.
func TestShardIngestRejection(t *testing.T) {
	opts := shardtest.Options(40)
	opts.Domains = []string{"cars", "jewellery"}
	sys, err := cqads.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Domains(); len(got) != 2 {
		t.Fatalf("hosted domains = %v, want 2", got)
	}
	_, err = sys.InsertAd("motorcycles", map[string]sqldb.Value{"make": sqldb.String("honda")})
	if !errors.Is(err, core.ErrNotHosted) {
		t.Fatalf("out-of-shard insert error = %v, want ErrNotHosted", err)
	}
	var nh *core.NotHostedError
	if !errors.As(err, &nh) || nh.Domain != "motorcycles" || len(nh.Hosted) != 2 {
		t.Fatalf("typed error = %#v", err)
	}
	if err := sys.DeleteAd("motorcycles", 0); !errors.Is(err, core.ErrNotHosted) {
		t.Fatalf("out-of-shard delete error = %v, want ErrNotHosted", err)
	}
	if _, err := sys.InsertAd("nosuchdomain", nil); err == nil || errors.Is(err, core.ErrNotHosted) {
		t.Fatalf("unknown domain error = %v, want plain unknown-domain error", err)
	}
	if _, err := sys.InsertAd("cars", map[string]sqldb.Value{
		"make": sqldb.String("honda"), "price": sqldb.Number(9500),
	}); err != nil {
		t.Fatalf("in-shard insert: %v", err)
	}
	if _, err := sys.AskInDomain("motorcycles", "cheapest honda"); !errors.Is(err, core.ErrNotHosted) {
		t.Fatalf("out-of-shard ask error = %v, want ErrNotHosted", err)
	}
	for _, d := range sys.Status().Domains {
		if d.Domain == "motorcycles" {
			t.Fatal("status reports a domain the shard does not host")
		}
	}
}

// TestShardRefusesWiderStore: a durable shard must refuse a data
// directory holding domains it does not host — its checkpoints export
// only the hosted tables, so opening the wider store would silently
// destroy the other domains' durable data at the first compaction or
// graceful shutdown.
func TestShardRefusesWiderStore(t *testing.T) {
	dir := t.TempDir()
	opts := shardtest.Options(40)
	opts.Domains = []string{"cars", "jewellery"}
	opts.DataDir = dir
	wide, err := cqads.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wide.InsertAd("jewellery", map[string]sqldb.Value{
		"metal": sqldb.String("gold"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := wide.Close(); err != nil {
		t.Fatal(err)
	}

	narrowOpts := opts
	narrowOpts.Domains = []string{"cars"}
	if _, err := cqads.Open(narrowOpts); err == nil {
		t.Fatal("a cars-only shard opened a cars+jewellery store; its first checkpoint would destroy the jewellery data")
	} else if !strings.Contains(err.Error(), "jewellery") {
		t.Fatalf("refusal should name the endangered domain, got: %v", err)
	}
	// The converse misuse — re-opening the shard's directory unsharded
	// (or with extra domains) — must also refuse: the next checkpoint
	// would persist seed-fabricated tables for domains the directory
	// never held, locking the real shard config out of its own data.
	wideOpenOpts := opts
	wideOpenOpts.Domains = nil
	if _, err := cqads.Open(wideOpenOpts); err == nil {
		t.Fatal("an unsharded open of a 2-domain shard directory succeeded; its checkpoint would fabricate the other six domains")
	} else if !strings.Contains(err.Error(), "motorcycles") {
		t.Fatalf("widened-open refusal should name a fabricated domain, got: %v", err)
	}
	extraOpts := opts
	extraOpts.Domains = []string{"cars", "jewellery", "motorcycles"}
	if _, err := cqads.Open(extraOpts); err == nil {
		t.Fatal("a widened shard opened a narrower store")
	}
	// The matching shard still opens the directory fine.
	again, err := cqads.Open(opts)
	if err != nil {
		t.Fatalf("matching shard refused its own store: %v", err)
	}
	if err := again.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPartialFollowerFiltersForeignDomains: where domain filtering IS
// safe — a follower keeps no local store — a shard-scoped follower
// can bootstrap from a WIDER primary's snapshot and tail its WAL,
// restoring and applying only the hosted domains' data and skipping
// the rest (the snapshot-section and WAL-op filtering on the Domain
// field).
func TestPartialFollowerFiltersForeignDomains(t *testing.T) {
	opts := shardtest.Options(40)
	opts.Domains = []string{"cars", "jewellery"}
	opts.DataDir = t.TempDir()
	primary, err := cqads.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()

	blob, err := primary.ReplSnapshotBlob()
	if err != nil {
		t.Fatal(err)
	}
	// A follower hosting domains the primary's snapshot does not cover
	// would silently answer them from seed data: refused at bootstrap.
	mismatchedOpts := opts
	mismatchedOpts.DataDir = ""
	mismatchedOpts.Domains = nil // all eight, but the primary ships two
	if _, err := cqads.OpenFollower(mismatchedOpts, blob); err == nil {
		t.Fatal("a full follower bootstrapped from a 2-domain shard's snapshot")
	} else if !strings.Contains(err.Error(), "does not cover") {
		t.Fatalf("mismatched follower error = %v", err)
	}

	followerOpts := opts
	followerOpts.DataDir = ""
	followerOpts.Domains = []string{"cars"} // narrower than the primary
	partial, err := cqads.OpenFollower(followerOpts, blob)
	if err != nil {
		t.Fatalf("bootstrapping a partial follower from a wider snapshot: %v", err)
	}
	if got := partial.Domains(); len(got) != 1 || got[0] != "cars" {
		t.Fatalf("partial follower hosts %v, want [cars]", got)
	}

	// Interleaved ingest on the primary: the follower must apply the
	// cars op, skip the jewellery ops, and still advance its cursor
	// across them.
	carsID, err := primary.InsertAd("cars", map[string]sqldb.Value{
		"make": sqldb.String("honda"), "price": sqldb.Number(7777),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := primary.InsertAd("jewellery", map[string]sqldb.Value{
			"metal": sqldb.String("gold"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	ops, seq, _, err := primary.ReplOpsSince(partial.AppliedSeq())
	if err != nil {
		t.Fatal(err)
	}
	if err := partial.ApplyOps(ops); err != nil {
		t.Fatalf("partial follower applying a mixed-domain stream: %v", err)
	}
	if partial.AppliedSeq() != seq {
		t.Fatalf("cursor stalled at %d, want %d (skips must advance it)", partial.AppliedSeq(), seq)
	}

	q := "honda under 8000 dollars"
	want, err := primary.AskInDomain("cars", q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := partial.AskInDomain("cars", q)
	if err != nil {
		t.Fatal(err)
	}
	if resultKey(t, got) != resultKey(t, want) {
		t.Error("cars answers diverge between the wider primary and its partial follower")
	}
	foundNew := false
	for _, a := range got.Answers {
		if a.ID == carsID {
			foundNew = true
		}
	}
	if !foundNew {
		t.Error("replicated cars insert missing on the partial follower")
	}
	tbl, _ := partial.DB().TableForDomain("jewellery")
	if tbl.Len() != 0 {
		t.Errorf("jewellery data leaked onto a cars-only follower: %d rows", tbl.Len())
	}
	if _, err := partial.AskInDomain("jewellery", "gold ring"); !errors.Is(err, core.ErrNotHosted) {
		t.Fatalf("unhosted ask on the partial follower = %v, want ErrNotHosted", err)
	}
}
