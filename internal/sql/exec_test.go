package sql_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/sql/sqltest"
	"repro/internal/sqldb"
)

// execDB builds a small cars database with a deterministic spread of
// values.
func execDB(t *testing.T) (*sqldb.DB, *sqldb.Table) {
	t.Helper()
	db := sqldb.NewDB()
	tbl, err := db.CreateTable(schema.Cars())
	if err != nil {
		t.Fatal(err)
	}
	makes := []string{"honda", "toyota", "ford"}
	models := []string{"accord", "camry", "focus"}
	colors := []string{"red", "blue", "black", "white"}
	trans := []string{"automatic", "manual"}
	for i := 0; i < 60; i++ {
		_, err := tbl.Insert(map[string]sqldb.Value{
			"make":         sqldb.String(makes[i%3]),
			"model":        sqldb.String(models[i%3]),
			"color":        sqldb.String(colors[i%4]),
			"transmission": sqldb.String(trans[i%2]),
			"year":         sqldb.Number(float64(1990 + i%20)),
			"price":        sqldb.Number(float64(2000 + 700*i)),
			"mileage":      sqldb.Number(float64(5000 * (i % 30))),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return db, tbl
}

// execString parses query with the test-support parser and runs it
// through the streaming executor.
func execString(db *sqldb.DB, query string) ([]sqldb.RowID, error) {
	sel, err := sqltest.Parse(query)
	if err != nil {
		return nil, err
	}
	return sql.Exec(db, sel)
}

func mustExec(t *testing.T, db *sqldb.DB, q string) []sqldb.RowID {
	t.Helper()
	ids, err := execString(db, q)
	if err != nil {
		t.Fatalf("execString(%q): %v", q, err)
	}
	return ids
}

func TestExecEquality(t *testing.T) {
	db, tbl := execDB(t)
	ids := mustExec(t, db, "SELECT * FROM car_ads WHERE make = 'honda'")
	if len(ids) != 20 {
		t.Fatalf("honda count = %d, want 20", len(ids))
	}
	for _, id := range ids {
		if tbl.Value(id, "make").Str() != "honda" {
			t.Fatalf("row %d is not a honda", id)
		}
	}
}

func TestExecDomainNameAsTable(t *testing.T) {
	db, _ := execDB(t)
	ids := mustExec(t, db, "SELECT * FROM cars WHERE make = 'honda'")
	if len(ids) != 20 {
		t.Fatalf("domain-name table ref: %d rows", len(ids))
	}
}

func TestExecComparisonsAndBetween(t *testing.T) {
	db, tbl := execDB(t)
	for _, c := range []struct {
		q    string
		pred func(id sqldb.RowID) bool
	}{
		{"SELECT * FROM car_ads WHERE price < 10000",
			func(id sqldb.RowID) bool { return tbl.Value(id, "price").Num() < 10000 }},
		{"SELECT * FROM car_ads WHERE price <= 9700",
			func(id sqldb.RowID) bool { return tbl.Value(id, "price").Num() <= 9700 }},
		{"SELECT * FROM car_ads WHERE year > 2005",
			func(id sqldb.RowID) bool { return tbl.Value(id, "year").Num() > 2005 }},
		{"SELECT * FROM car_ads WHERE year >= 2005",
			func(id sqldb.RowID) bool { return tbl.Value(id, "year").Num() >= 2005 }},
		{"SELECT * FROM car_ads WHERE NOT year = 1995",
			func(id sqldb.RowID) bool { return tbl.Value(id, "year").Num() != 1995 }},
		{"SELECT * FROM car_ads WHERE price BETWEEN 5000 AND 12000",
			func(id sqldb.RowID) bool {
				p := tbl.Value(id, "price").Num()
				return p >= 5000 && p <= 12000
			}},
	} {
		got := map[sqldb.RowID]bool{}
		for _, id := range mustExec(t, db, c.q) {
			got[id] = true
		}
		for i := 0; i < tbl.Len(); i++ {
			id := sqldb.RowID(i)
			if got[id] != c.pred(id) {
				t.Errorf("%s: row %d mismatch (got %v)", c.q, id, got[id])
			}
		}
	}
}

func TestExecBooleanOperators(t *testing.T) {
	db, tbl := execDB(t)
	q := "SELECT * FROM car_ads WHERE (make = 'honda' AND color = 'red') OR (make = 'toyota' AND NOT transmission = 'manual')"
	got := map[sqldb.RowID]bool{}
	for _, id := range mustExec(t, db, q) {
		got[id] = true
	}
	for i := 0; i < tbl.Len(); i++ {
		id := sqldb.RowID(i)
		mk := tbl.Value(id, "make").Str()
		want := (mk == "honda" && tbl.Value(id, "color").Str() == "red") ||
			(mk == "toyota" && tbl.Value(id, "transmission").Str() != "manual")
		if got[id] != want {
			t.Errorf("row %d: got %v want %v", id, got[id], want)
		}
	}
}

func TestExecOrderByAndLimit(t *testing.T) {
	db, tbl := execDB(t)
	ids := mustExec(t, db, "SELECT * FROM car_ads WHERE make = 'honda' ORDER BY price LIMIT 5")
	if len(ids) != 5 {
		t.Fatalf("LIMIT: got %d rows", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if tbl.Value(ids[i-1], "price").Num() > tbl.Value(ids[i], "price").Num() {
			t.Fatal("not sorted ascending by price")
		}
	}
	desc := mustExec(t, db, "SELECT * FROM car_ads ORDER BY year DESC LIMIT 3")
	for i := 1; i < len(desc); i++ {
		if tbl.Value(desc[i-1], "year").Num() < tbl.Value(desc[i], "year").Num() {
			t.Fatal("not sorted descending by year")
		}
	}
}

func TestExecNoWhere(t *testing.T) {
	db, tbl := execDB(t)
	ids := mustExec(t, db, "SELECT * FROM car_ads")
	if len(ids) != tbl.Len() {
		t.Errorf("full scan = %d rows, want %d", len(ids), tbl.Len())
	}
}

func TestExecErrors(t *testing.T) {
	db, _ := execDB(t)
	for _, q := range []string{
		"SELECT * FROM ghost",
		"SELECT * FROM car_ads WHERE ghost = 1",
		"SELECT * FROM car_ads WHERE price < 'cheap'",
		"SELECT * FROM car_ads ORDER BY ghost",
	} {
		if _, err := execString(db, q); err == nil {
			t.Errorf("execString(%q) succeeded, want error", q)
		}
	}
}

// TestExecRandomExpressionsMatchBruteForce generates random WHERE
// trees and checks the executor against direct predicate evaluation.
func TestExecRandomExpressionsMatchBruteForce(t *testing.T) {
	db, tbl := execDB(t)
	rng := rand.New(rand.NewSource(7))

	var genExpr func(depth int) sql.Expr
	genExpr = func(depth int) sql.Expr {
		if depth == 0 || rng.Float64() < 0.4 {
			switch rng.Intn(3) {
			case 0:
				makes := []string{"honda", "toyota", "ford", "bmw"}
				return &sql.Compare{Column: "make", Op: sql.OpEq,
					Value: sqldb.String(makes[rng.Intn(len(makes))])}
			case 1:
				ops := []sql.BinaryOp{sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe}
				return &sql.Compare{Column: "price", Op: ops[rng.Intn(4)],
					Value: sqldb.Number(float64(2000 + rng.Intn(40000)))}
			default:
				lo := float64(1990 + rng.Intn(15))
				return &sql.Between{Column: "year", Lo: lo, Hi: lo + float64(rng.Intn(10))}
			}
		}
		switch rng.Intn(3) {
		case 0:
			return &sql.And{Operands: []sql.Expr{genExpr(depth - 1), genExpr(depth - 1)}}
		case 1:
			return &sql.Or{Operands: []sql.Expr{genExpr(depth - 1), genExpr(depth - 1)}}
		default:
			return &sql.Not{Operand: genExpr(depth - 1)}
		}
	}

	var evalBrute func(e sql.Expr, id sqldb.RowID) bool
	evalBrute = func(e sql.Expr, id sqldb.RowID) bool {
		switch n := e.(type) {
		case *sql.Compare:
			v := tbl.Value(id, n.Column)
			switch n.Op {
			case sql.OpEq:
				return v.Equal(n.Value)
			case sql.OpLt:
				return v.Num() < n.Value.Num()
			case sql.OpLe:
				return v.Num() <= n.Value.Num()
			case sql.OpGt:
				return v.Num() > n.Value.Num()
			case sql.OpGe:
				return v.Num() >= n.Value.Num()
			}
		case *sql.Between:
			x := tbl.Value(id, n.Column).Num()
			return x >= n.Lo && x <= n.Hi
		case *sql.And:
			for _, op := range n.Operands {
				if !evalBrute(op, id) {
					return false
				}
			}
			return true
		case *sql.Or:
			for _, op := range n.Operands {
				if evalBrute(op, id) {
					return true
				}
			}
			return false
		case *sql.Not:
			return !evalBrute(n.Operand, id)
		}
		return false
	}

	for trial := 0; trial < 200; trial++ {
		expr := genExpr(3)
		sel := &sql.Select{Table: "car_ads", Where: expr}
		got, err := sql.Exec(db, sel)
		if err != nil {
			t.Fatalf("trial %d: %v (%s)", trial, err, sel.SQL())
		}
		var want []sqldb.RowID
		for i := 0; i < tbl.Len(); i++ {
			if evalBrute(expr, sqldb.RowID(i)) {
				want = append(want, sqldb.RowID(i))
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d mismatch for %s:\n got %v\nwant %v",
				trial, sel.SQL(), got, want)
		}
		// The rendered SQL must parse back and produce the same rows.
		reparsed, err := execString(db, sel.SQL())
		if err != nil {
			t.Fatalf("trial %d reparse: %v (%s)", trial, err, sel.SQL())
		}
		if !slices.Equal(reparsed, want) {
			t.Fatalf("trial %d: reparsed SQL diverges (%s)", trial, sel.SQL())
		}
	}
}

// TestExtremeRunKeepsThenTakesTheRun: a superlative's run is the
// extreme run (sqldb.View.AppendExtremeRun) of the WHERE's matches
// that keep admits, capped at the run limit, whatever the statement's
// own LIMIT says.
func TestExtremeRunKeepsThenTakesTheRun(t *testing.T) {
	db := fuzzDB(t)
	tbl, _ := db.Table("car_ads")
	for _, where := range []string{"make = 'honda'", "year > 1995 AND NOT color = 'red'", "color = 'red' OR color = 'blue'"} {
		for _, col := range []string{"price", "year"} {
			for _, desc := range []bool{false, true} {
				q := "SELECT * FROM car_ads WHERE " + where + " ORDER BY " + col
				if desc {
					q += " DESC"
				}
				sel, err := sqltest.Parse(q + " LIMIT 2")
				if err != nil {
					t.Fatal(err)
				}
				matches := mustExec(t, db, "SELECT * FROM car_ads WHERE "+where)
				for _, keep := range []func(sqldb.RowID) bool{nil, func(id sqldb.RowID) bool { return id%3 != 0 }} {
					kept := matches
					if keep != nil {
						kept = nil
						for _, id := range matches {
							if keep(id) {
								kept = append(kept, id)
							}
						}
					}
					for _, limit := range []int{0, 1, 3} {
						var want, got []sqldb.RowID
						var wantX, x float64
						var wantOK, ok bool
						tbl.View(func(v sqldb.View) {
							want, wantX, wantOK = v.AppendExtremeRun(nil, kept, col, desc, limit)
							got, x, ok, err = sql.ExtremeRun(v, sel, keep, limit)
						})
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got, want) || x != wantX || ok != wantOK {
							t.Errorf("%s (keep %v, limit %d): run %v extreme %v %v, want %v %v %v",
								q, keep != nil, limit, got, x, ok, want, wantX, wantOK)
						}
					}
				}
			}
		}
	}
}

// TestPlanRunsAnyStatement: RunView and ExtremeRun need no Plan. On
// any statement RunView returns Exec's ids and ExtremeRun the extreme
// run of the WHERE's matches; an invalid statement returns the error
// Compile gives it and reaches no scan.
func TestPlanRunsAnyStatement(t *testing.T) {
	db, tbl := execDB(t)
	for _, q := range []string{
		"SELECT * FROM car_ads WHERE color = 'red' AND price < 30000 ORDER BY price LIMIT 4",
		"SELECT * FROM car_ads WHERE (make = 'ford' OR year BETWEEN 1995 AND 2000) AND NOT transmission = 'manual' ORDER BY year DESC",
		"SELECT * FROM car_ads ORDER BY mileage LIMIT 3",
		"SELECT * FROM car_ads WHERE ghost = 1 ORDER BY price",
		"SELECT * FROM car_ads WHERE make = 'honda' AND NOT (color = 'red' OR price < 'abc') ORDER BY price",
		"SELECT * FROM car_ads WHERE make = 'honda' ORDER BY ghost",
	} {
		sel, err := sqltest.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		var runIDs, extremeIDs []sqldb.RowID
		var runErr, extremeErr error
		tbl.View(func(v sqldb.View) {
			runIDs, runErr = sql.RunView(v, sel)
			extremeIDs, _, _, extremeErr = sql.ExtremeRun(v, sel, nil, 0)
		})
		if _, compileErr := sql.Compile(db, sel); compileErr != nil {
			for _, err := range []error{runErr, extremeErr} {
				if err == nil || err.Error() != compileErr.Error() {
					t.Errorf("%s: error %v, Compile's is %v", q, err, compileErr)
				}
			}
			continue
		}
		if runErr != nil || extremeErr != nil {
			t.Fatalf("%s: RunView %v, ExtremeRun %v", q, runErr, extremeErr)
		}
		if want := mustExec(t, db, q); !slices.Equal(runIDs, want) {
			t.Errorf("%s: RunView %v, Exec %v", q, runIDs, want)
		}
		where := *sel
		where.OrderBy, where.Desc, where.Limit = "", false, 0
		matches, err := sql.Exec(db, &where)
		if err != nil {
			t.Fatal(err)
		}
		var want []sqldb.RowID
		tbl.View(func(v sqldb.View) { want, _, _ = v.AppendExtremeRun(nil, matches, sel.OrderBy, sel.Desc, 0) })
		if !slices.Equal(extremeIDs, want) {
			t.Errorf("%s: ExtremeRun %v, the WHERE's extreme run %v", q, extremeIDs, want)
		}
	}
}
