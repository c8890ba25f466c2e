package core_test

import (
	"strings"
	"testing"

	"repro/cqads"
	"repro/internal/core"
	"repro/internal/shard/shardtest"
	"repro/internal/sql"
	"repro/internal/sql/plan"
	"repro/internal/sql/sqltest"
)

// TestExplainMatchesParsedSQL: System.Explain rebuilds the statement
// an answer ran from its interpretation instead of parsing the SQL it
// printed. Over the 650-question workload, the rebuilt statement
// renders res.SQL and keys the plan cache as the parsed res.SQL does.
// A plain question's plan is what the parsed res.SQL explains to; a
// superlative's starts with its WHERE's plan and names the extreme run
// instead of a sort. cached is the plan cache's answer for the parsed
// statement, on the system that ran the question (hits) and on an
// identical one that never did (misses).
func TestExplainMatchesParsedSQL(t *testing.T) {
	opts := shardtest.Options(40)
	sys := shardtest.OpenMonolith(t, opts)
	defer sys.Close()
	fresh := shardtest.OpenMonolith(t, opts)
	defer fresh.Close()
	checked, superlatives := 0, 0
	for _, q := range shardtest.Workload(t, opts, sys) {
		res, err := sys.Ask(q)
		if err != nil {
			t.Fatalf("ask %q: %v", q, err)
		}
		if res.SQL == "" {
			continue
		}
		checked++
		tbl, _ := sys.DB().TableForDomain(res.Domain)
		rebuilt := core.BuildSelect(tbl.Schema(), res.Interpretation, cqads.DefaultMaxAnswers)
		if rebuilt.SQL() != res.SQL {
			t.Fatalf("%q: rebuilt statement %s, the answer ran %s", q, rebuilt.SQL(), res.SQL)
		}
		parsed, err := sqltest.Parse(res.SQL)
		if err != nil {
			t.Fatalf("parse %s: %v", res.SQL, err)
		}
		if plan.Key(res.Domain, rebuilt) != plan.Key(res.Domain, parsed) {
			t.Fatalf("%s: rebuilt key %s, parsed key %s", res.SQL, plan.Key(res.Domain, rebuilt), plan.Key(res.Domain, parsed))
		}
		where := parsed
		if res.Interpretation.Superlative != nil {
			superlatives++
			w := *parsed
			w.OrderBy, w.Desc, w.Limit = "", false, 0
			where = &w
		}
		for _, s := range []*cqads.System{sys, fresh} {
			text, cached, err := s.Explain(res)
			if err != nil {
				t.Fatalf("explain %s: %v", res.SQL, err)
			}
			if want := core.PlanCacheOf(s).Contains(res.Domain, parsed); cached != want {
				t.Fatalf("%s: cached = %v, the cache holds the parsed shape: %v", res.SQL, cached, want)
			}
			want, err := sql.Explain(s.DB(), where)
			if err != nil {
				t.Fatalf("explain parsed %s: %v", res.SQL, err)
			}
			if res.Interpretation.Superlative == nil {
				if text != want {
					t.Fatalf("%s: plan\n%s\nparsed SQL explains to\n%s", res.SQL, text, want)
				}
			} else if !strings.HasPrefix(text, want) || !strings.Contains(text, "extreme run on "+parsed.OrderBy) || strings.Contains(text, "sort by") {
				t.Fatalf("%s: superlative plan\n%s\nwant the WHERE's plan\n%s\nand an extreme run, no sort", res.SQL, text, want)
			}
		}
	}
	t.Logf("%d asks with SQL, %d of them superlatives", checked, superlatives)
	if checked == 0 || superlatives == 0 {
		t.Fatalf("workload exercised %d statements and %d superlatives", checked, superlatives)
	}
}
