package sql_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/sql/sqltest"
	"repro/internal/sqldb"
)

// A plan is compiled once per shape, cached, and run for every later
// question of that shape on a corpus that keeps changing. These tests
// pin what makes that sound: Compile is a function of schema and
// statement shape, and of nothing else.

// TestPlanLiteralIndependent: nothing about a plan may depend on the
// literals of the question that happened to compile it — a value no
// row holds or a range that misses every row plans, and explains,
// exactly like any other.
func TestPlanLiteralIndependent(t *testing.T) {
	db, _ := execDB(t)
	const shape = "SELECT * FROM car_ads WHERE color = '%s' AND price < %s AND year BETWEEN %s LIMIT 30"
	qa := fmt.Sprintf(shape, "red", "10000", "2000 AND 2005")
	qb := fmt.Sprintf(shape, "mauve", "-1", "1 AND 99999")
	var plans [2]*sql.Plan
	var explained [2]string
	for i, q := range []string{qa, qb} {
		sel, err := sqltest.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		if plans[i], err = sql.Compile(db, sel); err != nil {
			t.Fatal(err)
		}
		if explained[i], err = sql.Explain(db, sel); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(plans[0], plans[1]) {
		t.Errorf("one shape, two literal sets, two plans:\n%s\nvs\n%s", explained[0], explained[1])
	}
	if explained[0] != explained[1] {
		t.Errorf("one shape, two literal sets, two EXPLAINs:\n%s\nvs\n%s", explained[0], explained[1])
	}
}

// TestPlanContentIndependent: two tables of one schema — 5 ads with 5
// makes and prices inside the range, 500 ads that are all but one
// make with prices far above it — compile every shape to the same
// plan, so no ingest can make a cached plan stale.
func TestPlanContentIndependent(t *testing.T) {
	build := func(n int, makeOf func(i int) string, price func(i int) float64) *sqldb.DB {
		db := sqldb.NewDB()
		tbl, err := db.CreateTable(schema.Cars())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := tbl.Insert(map[string]sqldb.Value{
				"make":  sqldb.String(makeOf(i)),
				"model": sqldb.String("accord"),
				"color": sqldb.String("red"),
				"year":  sqldb.Number(float64(1990 + i%20)),
				"price": sqldb.Number(price(i)),
			}); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	small := build(5,
		func(i int) string { return []string{"honda", "toyota", "ford", "kia", "bmw"}[i] },
		func(i int) float64 { return float64(1000 * (i + 1)) })
	skewed := build(500,
		func(i int) string {
			if i == 0 {
				return "toyota"
			}
			return "honda"
		},
		func(i int) float64 { return float64(50000 + 1000*i) })
	for _, q := range []string{
		"SELECT * FROM car_ads WHERE make = 'honda' AND price < 9000",
		"SELECT * FROM car_ads WHERE price < 9000 AND make = 'honda'",
		"SELECT * FROM car_ads WHERE make = 'honda' AND color = 'red' AND year BETWEEN 1995 AND 2000 AND model = 'accord'",
		"SELECT * FROM car_ads WHERE (make = 'honda' OR make = 'kia') AND NOT color = 'blue' AND price > 2000 ORDER BY price LIMIT 5",
	} {
		sel, err := sqltest.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		a, err := sql.Compile(small, sel)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sql.Compile(skewed, sel)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the plan depends on what the table holds", q)
		}
	}
}
