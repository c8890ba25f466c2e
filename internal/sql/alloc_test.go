package sql_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/sqldb"
)

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// allocDB builds a cars database of n ads whose postings all grow with
// n: three makes, four colors, two transmissions, 20 years, 13 prices.
func allocDB(t *testing.T, n int) (*sqldb.DB, *sqldb.Table) {
	t.Helper()
	db := sqldb.NewDB()
	tbl, err := db.CreateTable(schema.Cars())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert(map[string]sqldb.Value{
			"make":         sqldb.String([]string{"honda", "toyota", "ford"}[i%3]),
			"model":        sqldb.String([]string{"accord", "camry", "focus", "civic"}[i%4]),
			"color":        sqldb.String([]string{"red", "blue", "black", "white"}[i%4]),
			"transmission": sqldb.String([]string{"automatic", "manual"}[i%2]),
			"year":         sqldb.Number(float64(1990 + i%20)),
			"price":        sqldb.Number(float64(1000 * (i % 13))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return db, tbl
}

func eq(col string, v sqldb.Value) *sql.Compare {
	return &sql.Compare{Column: col, Op: sql.OpEq, Value: v}
}

func str(s string) sqldb.Value { return sqldb.String(s) }

// TestRunAllocatesOnlyItsAnswer: for every shape core.BuildSelect
// emits, Plan.Run allocates one exact-size copy of at most LIMIT ids
// and nothing else, and ForEachMatch allocates nothing; so neither the
// allocations nor the bytes grow from 2 000 to 20 000 rows, apart from
// the answer itself.
func TestRunAllocatesOnlyItsAnswer(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector drops pooled items at random; allocation counts are not representative")
	}
	colorOr := &sql.Or{Operands: []sql.Expr{eq("color", str("red")), eq("color", str("blue"))}}
	shapes := []struct {
		name    string
		sel     sql.Select
		extreme bool // run as a superlative through ExtremeRun
	}{
		{name: "leaf", sel: sql.Select{Where: eq("make", str("honda"))}},
		{name: "Type III =", sel: sql.Select{Where: eq("year", sqldb.Number(2005))}},
		{name: "OR of = in a conjunction", sel: sql.Select{Where: &sql.And{Operands: []sql.Expr{
			eq("make", str("honda")), colorOr}}}},
		{name: "negated OR in a conjunction", sel: sql.Select{Where: &sql.And{Operands: []sql.Expr{
			&sql.Not{Operand: colorOr}, eq("year", sqldb.Number(2005))}}}},
		{name: "all-negated conjunction", sel: sql.Select{Where: &sql.And{Operands: []sql.Expr{
			&sql.Not{Operand: eq("make", str("honda"))}, &sql.Not{Operand: eq("transmission", str("manual"))}}}}},
		{name: "root OR of groups", sel: sql.Select{Where: &sql.Or{Operands: []sql.Expr{
			&sql.And{Operands: []sql.Expr{eq("make", str("honda")), eq("color", str("red"))}},
			&sql.And{Operands: []sql.Expr{eq("make", str("ford")), &sql.Compare{Column: "price", Op: sql.OpLt, Value: sqldb.Number(5000)}}},
			eq("model", str("camry"))}}}},
		{name: "two hash leaves", sel: sql.Select{Where: &sql.And{Operands: []sql.Expr{
			eq("make", str("honda")), eq("color", str("red"))}}}},
		{name: "three hash leaves, a range", sel: sql.Select{Where: &sql.And{Operands: []sql.Expr{
			eq("make", str("honda")), eq("color", str("red")), eq("transmission", str("automatic")),
			&sql.Compare{Column: "price", Op: sql.OpGe, Value: sqldb.Number(3000)}}}}},
		{name: "LIMITed OR of conjunctions", sel: sql.Select{Where: &sql.Or{Operands: []sql.Expr{
			&sql.And{Operands: []sql.Expr{eq("make", str("honda")), eq("color", str("red"))}},
			&sql.And{Operands: []sql.Expr{eq("make", str("ford")), eq("transmission", str("manual")),
				&sql.Compare{Column: "year", Op: sql.OpGt, Value: sqldb.Number(1995)}}}}}}},
		{name: "superlative", extreme: true, sel: sql.Select{Where: &sql.And{Operands: []sql.Expr{
			eq("make", str("honda")), &sql.Compare{Column: "year", Op: sql.OpGt, Value: sqldb.Number(1995)}}},
			OrderBy: "price"}},
	}
	// One P throughout, as AllocsPerRun does, so every run draws on
	// the same per-P pool shard.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const limit = 30
	type cost struct{ allocs, extra float64 }
	costs := map[string][2]cost{}
	for si, n := range []int{2000, 20000} {
		db, tbl := allocDB(t, n)
		for _, sh := range shapes {
			sel := sh.sel
			sel.Table, sel.Limit = "car_ads", limit
			p, err := sql.Compile(db, &sel)
			if err != nil {
				t.Fatal(err)
			}
			var got []sqldb.RowID
			run := func() {
				if sh.extreme {
					tbl.View(func(v sqldb.View) { got, _, _, err = sql.ExtremeRun(v, &sel, nil, limit) })
				} else {
					got, err = p.Run(db, &sel)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			allocs, bytes := measure(run)
			if len(got) == 0 || len(got) > limit {
				t.Fatalf("%s at %d rows: %d ids; the shape should fill up to LIMIT %d", sh.name, n, len(got), limit)
			}
			// The answer is one exact-size copy of its ids.
			extra := bytes - float64(8*cap(got))
			if allocs > 1 || extra > 16 {
				t.Errorf("%s at %d rows: %.1f allocations and %.0f bytes besides the %d-id answer, want 1 and none",
					sh.name, n, allocs, extra, len(got))
			}
			c := costs[sh.name]
			c[si] = cost{allocs, extra}
			costs[sh.name] = c
		}
		for _, e := range []sql.Expr{eq("make", str("honda")), eq("year", sqldb.Number(2005)), colorOr,
			&sql.And{Operands: []sql.Expr{eq("make", str("honda")), eq("color", str("red"))}},
			&sql.Not{Operand: colorOr}, &sql.Compare{Column: "price", Op: sql.OpGe, Value: sqldb.Number(6000)}} {
			seen := 0
			allocs, bytes := measure(func() {
				var err error
				tbl.View(func(v sqldb.View) { err = sql.ForEachMatch(v, e, func(sqldb.RowID) { seen++ }) })
				if err != nil {
					t.Fatal(err)
				}
			})
			if seen == 0 {
				t.Fatalf("ForEachMatch(%s) at %d rows matched nothing", e.SQL(), n)
			}
			if allocs > 0 || bytes > 16 {
				t.Errorf("ForEachMatch(%s) at %d rows: %.1f allocations, %.0f bytes, want none", e.SQL(), n, allocs, bytes)
			}
		}
	}
	for _, sh := range shapes {
		name, c := sh.name, costs[sh.name]
		t.Logf("%-28s 2 000 rows: %.1f allocs, %+.0f B; 20 000 rows: %.1f allocs, %+.0f B besides the answer",
			name, c[0].allocs, c[0].extra, c[1].allocs, c[1].extra)
		if c[1].allocs > c[0].allocs || c[1].extra > c[0].extra+16 {
			t.Errorf("%s: the cost besides the answer grows with the table: %+v at 2 000 rows, %+v at 20 000", name, c[0], c[1])
		}
	}
}

// measure returns f's allocations per call (testing.AllocsPerRun) and
// its bytes allocated per call.
func measure(f func()) (allocs, bytes float64) {
	const runs = 20
	allocs = testing.AllocsPerRun(runs, f)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}
