package core_test

// The executor plans each statement against the table as it stands,
// however often the corpus is written to between asks.

import (
	"slices"
	"testing"

	"repro/cqads"
	"repro/internal/adsgen"
	"repro/internal/schema"
	"repro/internal/shard/shardtest"
	"repro/internal/sql/sqltest"
	"repro/internal/sqldb"
)

// TestExactAnswersUnderIngest replays the 650-question workload twice
// over a fresh monolith with an InsertAd or DeleteAd landing every
// tenth question. Every non-superlative ask's exact answers must be
// what the eager evaluator returns for its SQL on the table as it then
// stands.
func TestExactAnswersUnderIngest(t *testing.T) {
	opts := shardtest.Options(40)
	sys := shardtest.OpenMonolith(t, opts)
	defer sys.Close()
	workload := shardtest.Workload(t, opts, sys)
	checked, writes := 0, 0
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
			if res.SQL == "" || res.Interpretation.Superlative != nil {
				// A superlative's exact answers are the extreme run of
				// its WHERE's matches, not its statement's rows.
				continue
			}
			sel, err := sqltest.Parse(res.SQL)
			if err != nil {
				t.Fatalf("parse %q: %v", res.SQL, err)
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
				t.Fatalf("after %d writes %q: exact answers %v, eager evaluator %v", writes, res.SQL, got, want)
			}
			checked++
		}
	}
	t.Logf("%d writes, %d statements checked", writes, checked)
	if checked == 0 {
		t.Fatal("workload checked no statement")
	}
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
