package core_test

// Plan-cache effectiveness on the paper-sized workload: the
// 650-question survey split asks a few hundred template shapes per
// domain, so after the shapes warm up, the compiled-plan cache must
// answer the overwhelming majority of lookups without recompiling —
// on a static corpus and, because a plan depends on schema and shape
// only, equally on one that is being written to.

import (
	"slices"
	"testing"

	"repro/cqads"
	"repro/internal/adsgen"
	"repro/internal/schema"
	"repro/internal/shard/shardtest"
	"repro/internal/sql/plan"
	"repro/internal/sql/sqltest"
	"repro/internal/sqldb"
)

// TestPlanCacheHitRateOnWorkload replays the 650-question workload
// over a fresh monolith until it reaches steady state and asserts the
// plan cache answers >90% of all lookups from cache — the
// template-heavy property the shape key (literals stripped) is
// designed to exploit: each distinct shape compiles exactly once, so
// every replayed question after warm-up is a pure hit.
//
// The under-ingest run replays the workload twice more with an
// InsertAd or DeleteAd landing every tenth question. Every ask that
// follows a write is answered by a plan compiled before it, and must
// still return what the eager evaluator returns on the table as it now
// stands; the cache must not have compiled anything again.
func TestPlanCacheHitRateOnWorkload(t *testing.T) {
	opts := shardtest.Options(40)
	sys := shardtest.OpenMonolith(t, opts)
	defer sys.Close()
	workload := shardtest.Workload(t, opts, sys)

	for pass := 0; pass < 10; pass++ {
		for _, q := range workload {
			if _, err := sys.Ask(q); err != nil {
				t.Fatalf("ask %q: %v", q, err)
			}
		}
	}
	hits, misses, _, size := sys.PlanCacheStats()
	total := hits + misses
	if total == 0 {
		t.Fatal("workload produced no plan-cache lookups")
	}
	rate := float64(hits) / float64(total)
	t.Logf("plan cache: %d hits / %d lookups (%.1f%%), %d misses, %d plans cached",
		hits, total, 100*rate, misses, size)
	if rate <= 0.90 {
		t.Errorf("hit rate %.1f%% (hits=%d misses=%d), want > 90%%", 100*rate, hits, misses)
	}
	if size <= 0 {
		t.Errorf("cache size = %d, want > 0", size)
	}

	t.Run("under ingest", func(t *testing.T) {
		shapes := map[string]bool{}
		lookups := int64(0)
		writes := 0
		write := ingestChurn(t, sys)
		for pass := 0; pass < 2; pass++ {
			for i, q := range workload {
				if i%10 == 0 {
					write()
					writes++
				}
				res, err := sys.Ask(q)
				if err != nil {
					t.Fatalf("ask %q: %v", q, err)
				}
				if res.SQL == "" {
					continue
				}
				sel, err := sqltest.Parse(res.SQL)
				if err != nil {
					t.Fatalf("parse %q: %v", res.SQL, err)
				}
				lookups++
				shapes[plan.Key(res.Domain, sel)] = true
				if res.Interpretation.Superlative != nil {
					// The superlative filter runs after the plan, on
					// its unlimited result; the rows below are not
					// the plan's output.
					continue
				}
				want, err := sqltest.ExecLegacy(sys.DB(), sel)
				if err != nil {
					t.Fatalf("legacy %q: %v", res.SQL, err)
				}
				var got []sqldb.RowID
				for _, a := range res.Answers[:res.ExactCount] {
					got = append(got, a.ID)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("after %d writes %q: cached plan answers %v, eager evaluator %v", writes, res.SQL, got, want)
				}
			}
		}
		hits2, misses2, _, size2 := sys.PlanCacheStats()
		t.Logf("under ingest: %d writes, %d lookups over %d shapes; misses %d -> %d, size %d -> %d",
			writes, lookups, len(shapes), misses, misses2, size, size2)
		if misses2 != int64(len(shapes)) || size2 != len(shapes) {
			t.Errorf("misses=%d size=%d, want both = %d distinct shapes: a write made the cache compile again", misses2, size2, len(shapes))
		}
		if hits2-hits != lookups {
			t.Errorf("%d of %d lookups under ingest were hits, want all", hits2-hits, lookups)
		}
	})
}

// ingestChurn returns a function that performs one write per call,
// round-robin over the domains: inserts until a domain has 3 of the
// test's ads outstanding, then deletes its oldest, so the corpus churns
// without growing.
func ingestChurn(t *testing.T, sys *cqads.System) func() {
	gen := adsgen.NewGenerator(7)
	outstanding := map[string][]sqldb.RowID{}
	n := 0
	return func() {
		t.Helper()
		domain := schema.DomainNames[n%len(schema.DomainNames)]
		n++
		if ids := outstanding[domain]; len(ids) == 3 {
			if err := sys.DeleteAd(domain, ids[0]); err != nil {
				t.Fatalf("delete %s/%d: %v", domain, ids[0], err)
			}
			outstanding[domain] = ids[1:]
			return
		}
		id, err := sys.InsertAd(domain, gen.Generate(schema.ByName(domain), 1)[0])
		if err != nil {
			t.Fatalf("insert into %s: %v", domain, err)
		}
		outstanding[domain] = append(outstanding[domain], id)
	}
}
