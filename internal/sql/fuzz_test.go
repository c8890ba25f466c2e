package sql_test

import (
	"math"
	"slices"
	"testing"

	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/sql/sqltest"
	"repro/internal/sqldb"
)

// FuzzParse checks that the test-support parser never panics and that
// anything it accepts renders back to SQL that parses to the same
// rendering (idempotent round trip) with bit-equal numeric literals.
// Seeds run as part of the normal test suite; `go test
// -fuzz=FuzzParse ./internal/sql` explores further.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"SELECT * FROM t WHERE a = 1",
		"SELECT * FROM car_ads WHERE make = 'honda' AND price < 5000 LIMIT 30",
		"SELECT * FROM t WHERE a BETWEEN 1 AND 2 OR NOT b = 'x'",
		"SELECT * FROM t WHERE m LIKE '%co%' ORDER BY p DESC",
		"SELECT * FROM t WHERE a IN (SELECT a FROM t WHERE b = 2)",
		"SELECT",
		"SELECT * FROM",
		"'unterminated",
		"SELECT * FROM t WHERE a = 'it''s'",
		"!@#$%^&*()",
		"SELECT * FROM t WHERE \xff = 1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		sel, err := sqltest.Parse(input)
		if err != nil {
			return // rejection is fine; panics are not
		}
		rendered := sel.SQL()
		sel2, err := sqltest.Parse(rendered)
		if err != nil {
			t.Fatalf("accepted %q but rendering %q does not parse: %v", input, rendered, err)
		}
		if sel2.SQL() != rendered {
			t.Fatalf("rendering not idempotent: %q vs %q", rendered, sel2.SQL())
		}
		a, b := numbers(nil, sel.Where), numbers(nil, sel2.Where)
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%q: literal %d reads %v, its rendering %q reads %v", input, i, a[i], rendered, b[i])
			}
		}
	})
}

// FuzzExec checks that executing any parseable statement against a
// populated database never panics (errors are fine).
func FuzzExec(f *testing.F) {
	db := sqldb.NewDB()
	tbl, err := db.CreateTable(schema.Cars())
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		_, _ = tbl.Insert(map[string]sqldb.Value{
			"make":  sqldb.String("honda"),
			"model": sqldb.String("accord"),
			"price": sqldb.Number(float64(1000 * i)),
			"year":  sqldb.Number(float64(1990 + i)),
		})
	}
	for _, seed := range []string{
		"SELECT * FROM car_ads WHERE make = 'honda'",
		"SELECT * FROM car_ads WHERE price BETWEEN 0 AND 99999 ORDER BY year LIMIT 3",
		"SELECT * FROM cars WHERE ghost = 1",
		"SELECT * FROM nope",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		_, _ = execString(db, input)
	})
}

// fuzzDB populates a car_ads table with enough value variety that
// random predicates split the rows in interesting ways.
func fuzzDB(f interface{ Fatal(...any) }) *sqldb.DB {
	db := sqldb.NewDB()
	tbl, err := db.CreateTable(schema.Cars())
	if err != nil {
		f.Fatal(err)
	}
	makes := []string{"honda", "toyota", "ford", "bmw", "mazda"}
	models := []string{"accord", "civic", "camry", "focus", "m3"}
	colors := []string{"red", "blue", "black", "white"}
	// Numeric spellings of one value, which the hash index keys as one.
	doors := []string{"2", "2.0", "2e0", "4", "04", "4 door"}
	for i := 0; i < 40; i++ {
		_, _ = tbl.Insert(map[string]sqldb.Value{
			"make":         sqldb.String(makes[i%len(makes)]),
			"model":        sqldb.String(models[i%len(models)]),
			"color":        sqldb.String(colors[i%len(colors)]),
			"transmission": sqldb.String([]string{"manual", "automatic"}[i%2]),
			"doors":        sqldb.String(doors[i%len(doors)]),
			"price":        sqldb.Number(float64(1000 * (i % 13))),
			"year":         sqldb.Number(float64(1990 + i%20)),
		})
	}
	// Type III cells the ordered index and Value.Equal must agree on:
	// a numeric string and its other spelling, a non-numeric string,
	// NaN, -0 and NULL.
	for _, year := range []sqldb.Value{sqldb.String("2005"), sqldb.String("2005.0"), sqldb.String("n/a"),
		sqldb.Number(math.NaN()), sqldb.Number(math.Copysign(0, -1)), sqldb.Null} {
		_, _ = tbl.Insert(map[string]sqldb.Value{"make": sqldb.String("honda"), "color": sqldb.String("red"), "year": year})
	}
	// Tombstones, which no answer may hold, not even a NOT's.
	for _, id := range []sqldb.RowID{3, 17, 29, 42} {
		_ = tbl.Delete(id)
	}
	return db
}

// FuzzExecDifferential cross-checks the streaming executor against the
// eager reference evaluator on every parseable statement. The
// contract: whenever the streaming path answers, the legacy path must
// answer bit-identically; whenever the legacy path errors, the
// streaming path must error too. (The converse is deliberately open —
// Compile validates the whole statement up front, so streaming may
// reject statements the eager AND's empty-operand short-circuit never
// finishes validating.)
func FuzzExecDifferential(f *testing.F) {
	for _, seed := range []string{
		"SELECT * FROM car_ads WHERE make = 'honda'",
		"SELECT * FROM car_ads WHERE make = 'honda' AND price < 9000 AND model LIKE '%cor%'",
		"SELECT * FROM car_ads WHERE price BETWEEN 2000 AND 8000 ORDER BY year DESC LIMIT 5",
		"SELECT * FROM car_ads WHERE color = 'red' OR NOT transmission = 'manual'",
		"SELECT * FROM car_ads WHERE year >= 2001 AND year <= 2005 AND make <> 'ford'",
		"SELECT * FROM car_ads WHERE make IN (SELECT make FROM car_ads C WHERE C.price > 5000)",
		"SELECT * FROM car_ads WHERE model LIKE '%zz%' AND price > 100000",
		"SELECT * FROM car_ads WHERE ghost = 1",
		"SELECT * FROM car_ads WHERE make < 'cheap'",
		"SELECT * FROM car_ads WHERE make = 'honda' AND doors = '2'",
		"SELECT * FROM car_ads WHERE (color = 'red' OR color = 'blue') AND (make = 'honda' OR make = 'ford')",
		"SELECT * FROM car_ads WHERE NOT (color = 'red' OR color = 'blue') AND year = 2005",
		"SELECT * FROM car_ads WHERE NOT make = 'honda' AND NOT transmission = 'manual'",
		"SELECT * FROM car_ads WHERE (make = 'honda' AND color = 'red') OR (make = 'ford' AND price < 5000) OR model = 'camry' LIMIT 7",
		"SELECT * FROM car_ads WHERE year = 0 OR year = '2005' OR NOT year = 2005",
		"SELECT * FROM car_ads WHERE price BETWEEN 2000 AND 8000 AND transmission = 'manual' LIMIT 3",
	} {
		f.Add(seed)
	}
	db := fuzzDB(f)
	f.Fuzz(func(t *testing.T, input string) {
		sel, err := sqltest.Parse(input)
		if err != nil {
			return
		}
		got, gotErr := sql.Exec(db, sel)
		want, wantErr := sqltest.ExecLegacy(db, sel)
		if gotErr == nil {
			if wantErr != nil {
				t.Fatalf("streaming answered %q but legacy errored: %v", input, wantErr)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%q: streaming %v, legacy %v", input, got, want)
			}
			return
		}
		if wantErr == nil {
			// Streaming rejected a statement legacy answers. The only
			// sanctioned divergence is strictness: the statement must
			// fail legacy's own validator once short-circuiting is
			// removed. Cheap check: recompiling must fail
			// deterministically.
			if _, err2 := sql.Compile(db, sel); err2 == nil {
				t.Fatalf("%q: streaming errored (%v) but compiles cleanly", input, gotErr)
			}
		}
	})
}

// TestExecDifferentialCorpus pins the differential contract on a fixed
// corpus so the equivalence is exercised by plain `go test` runs (the
// fuzz target above only replays its seeds there).
func TestExecDifferentialCorpus(t *testing.T) {
	db := fuzzDB(t)
	queries := []string{
		"SELECT * FROM car_ads",
		"SELECT * FROM car_ads WHERE make = 'honda'",
		"SELECT * FROM car_ads WHERE make = 'honda' AND price < 9000",
		"SELECT * FROM car_ads WHERE make = 'honda' AND price < 9000 AND model = 'accord'",
		"SELECT * FROM car_ads WHERE make = 'honda' AND model = 'accord' AND year > 1995 AND color = 'red'",
		"SELECT * FROM car_ads WHERE price BETWEEN 2000 AND 8000",
		"SELECT * FROM car_ads WHERE price BETWEEN 2000 AND 8000 AND transmission = 'manual'",
		"SELECT * FROM car_ads WHERE color = 'red' OR NOT transmission = 'manual'",
		"SELECT * FROM car_ads WHERE NOT make = 'honda' AND NOT transmission = 'manual'",
		"SELECT * FROM car_ads WHERE year >= 2001 AND year <= 2005 AND NOT make = 'ford'",
		"SELECT * FROM car_ads WHERE model = 'zz' AND price > 100000",
		"SELECT * FROM car_ads WHERE make = 'honda' AND doors = '2'",
		"SELECT * FROM car_ads WHERE doors = '2' AND make = 'honda'",
		"SELECT * FROM car_ads WHERE make = 'honda' AND NOT doors = '4'",
		"SELECT * FROM car_ads WHERE price < 4000 ORDER BY year DESC LIMIT 5",
		"SELECT * FROM car_ads WHERE make = 'honda' LIMIT 3",
		"SELECT * FROM car_ads WHERE price > 3000 LIMIT 4",
		"SELECT * FROM car_ads WHERE (make = 'honda' OR make = 'toyota') AND price <= 6000",
		"SELECT * FROM car_ads WHERE (color = 'red' OR color = 'blue') AND (make = 'honda' OR make = 'ford')",
		"SELECT * FROM car_ads WHERE NOT (color = 'red' OR color = 'blue') AND year = 2005",
		"SELECT * FROM car_ads WHERE (make = 'honda' AND color = 'red') OR (make = 'ford' AND price < 5000) OR model = 'camry'",
		"SELECT * FROM car_ads WHERE (make = 'honda' AND color = 'red') OR (make = 'ford' AND price < 5000) OR model = 'camry' LIMIT 7",
		"SELECT * FROM car_ads WHERE (make = 'honda' OR make = 'ford') AND NOT color = 'red' ORDER BY price DESC LIMIT 5",
		"SELECT * FROM car_ads WHERE year = 2005",
		"SELECT * FROM car_ads WHERE year = 2005 AND price < 9000",
		"SELECT * FROM car_ads WHERE year = 2005 LIMIT 2",
		"SELECT * FROM car_ads WHERE year = '2005'",
		"SELECT * FROM car_ads WHERE year = 0 OR NOT year = 2005",
		"SELECT * FROM car_ads WHERE NOT year = 2005 AND NOT (make = 'honda' AND color = 'red')",
		"SELECT * FROM car_ads WHERE price BETWEEN 2000 AND 8000 AND transmission = 'manual' LIMIT 3",
	}
	for _, q := range queries {
		sel, err := sqltest.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		got, gotErr := sql.Exec(db, sel)
		want, wantErr := sqltest.ExecLegacy(db, sel)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: streaming err=%v legacy err=%v", q, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%q: streaming %v, legacy %v", q, got, want)
		}
	}
}
