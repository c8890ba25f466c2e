package core

import (
	"testing"

	"repro/internal/adsgen"
	"repro/internal/schema"
	"repro/internal/sqldb"
)

func carsOnlyDB(t *testing.T, n int) *sqldb.DB {
	t.Helper()
	db := sqldb.NewDB()
	if _, err := adsgen.NewGenerator(42).Populate(db, schema.Cars(), n); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestUseSynonymsConfig(t *testing.T) {
	db := carsOnlyDB(t, 300)
	plain, err := New(Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	rich, err := New(Config{DB: db, UseSynonyms: true})
	if err != nil {
		t.Fatal(err)
	}
	q := "jeep with stick shift"
	rp, err := plain.AskInDomain("cars", q)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := rich.AskInDomain("cars", q)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Interpretation.ConditionCount() >= rr.Interpretation.ConditionCount() {
		t.Errorf("synonyms should add the transmission condition: plain=%s rich=%s",
			rp.Interpretation, rr.Interpretation)
	}
	for _, c := range rr.Interpretation.AllConditions() {
		if c.Attr == "transmission" && len(c.Values) == 1 && c.Values[0] == "manual" {
			return
		}
	}
	t.Errorf("stick shift not mapped to manual: %s", rr.Interpretation)
}

func TestStrictBooleanConfig(t *testing.T) {
	db := carsOnlyDB(t, 300)
	strict, err := New(Config{DB: db, StrictBoolean: true})
	if err != nil {
		t.Fatal(err)
	}
	implicit, err := New(Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	q := "black and grey cars"
	rs, err := strict.AskInDomain("cars", q)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := implicit.AskInDomain("cars", q)
	if err != nil {
		t.Fatal(err)
	}
	// Implicit rewrites the mutually-exclusive pair to OR and finds
	// answers; strict honours the conjunction, which no record can
	// satisfy exactly.
	if ri.ExactCount == 0 {
		t.Error("implicit mode found no black-or-grey cars")
	}
	if rs.ExactCount != 0 {
		t.Errorf("strict mode found %d exact answers for an unsatisfiable conjunction", rs.ExactCount)
	}
}

func TestDedupConfig(t *testing.T) {
	db := sqldb.NewDB()
	tbl, err := adsgen.NewGenerator(42).Populate(db, schema.Cars(), 200)
	if err != nil {
		t.Fatal(err)
	}
	// Repost every red car with a trivial price bump, and remember a
	// make that actually has red cars so the query stays narrow
	// enough for duplicates to fit inside the 30-answer cutoff.
	reposted := 0
	targetMake := ""
	for _, id := range tbl.AllRowIDs() {
		if tbl.Value(id, "color").Str() != "red" {
			continue
		}
		if targetMake == "" {
			targetMake = tbl.Value(id, "make").Str()
		}
		rec := tbl.Row(id).Record()
		rec["price"] = sqldb.Number(rec["price"].Num() + 10)
		if _, err := tbl.Insert(rec); err != nil {
			t.Fatal(err)
		}
		reposted++
	}
	if reposted == 0 {
		t.Skip("no red cars in the sample")
	}
	plain, err := New(Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	deduped, err := New(Config{DB: db, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	q := "red " + targetMake
	rp, err := plain.AskInDomain("cars", q)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := deduped.AskInDomain("cars", q)
	if err != nil {
		t.Fatal(err)
	}
	countPairs := func(res *Result) int {
		seen := map[string]int{}
		dups := 0
		for _, a := range res.Answers {
			key := a.Record.Value("make").String() + a.Record.Value("model").String() +
				a.Record.Value("year").String() + a.Record.Value("mileage").String()
			seen[key]++
			if seen[key] > 1 {
				dups++
			}
		}
		return dups
	}
	if got := countPairs(rd); got != 0 {
		t.Errorf("dedup mode returned %d duplicate answers", got)
	}
	if countPairs(rp) == 0 {
		t.Error("plain mode should surface at least one duplicate pair (test setup broken)")
	}
	_ = rp
}
