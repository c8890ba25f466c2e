package sql_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/sql/sqltest"
	"repro/internal/sqldb"
)

// TestScansNeverReadPostingsUnlocked deletes rows out of the hash
// (make) and ordered (price) postings that ForEachMatch and Plan.Run
// are draining at the same time. Delete edits postings in place, so
// under -race any read of an index-owned slice outside the table lock
// is reported; without -race the test still checks that every streamed
// id is one the table held and that Plan.Run stays strictly ascending.
func TestScansNeverReadPostingsUnlocked(t *testing.T) {
	const n = 2000
	db := sqldb.NewDB()
	tbl, err := db.CreateTable(schema.Cars())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert(map[string]sqldb.Value{
			"make":  sqldb.String([]string{"honda", "toyota"}[i%2]),
			"model": sqldb.String("accord"),
			"color": sqldb.String("red"),
			"year":  sqldb.Number(float64(1990 + i%20)),
			"price": sqldb.Number(float64(1000 + i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	var sels []*sql.Select
	for _, q := range []string{
		"SELECT * FROM car_ads WHERE make = 'honda'",
		"SELECT * FROM car_ads WHERE price < 2500",
		"SELECT * FROM car_ads WHERE price BETWEEN 1200 AND 2900",
		"SELECT * FROM car_ads WHERE make = 'honda' AND price < 2800",
		"SELECT * FROM car_ads WHERE price >= 1100 AND make = 'toyota' AND color = 'red'",
		"SELECT * FROM car_ads WHERE make = 'honda' OR price > 2500",
	} {
		sel, err := sqltest.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		sels = append(sels, sel)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for _, id := range rand.New(rand.NewSource(1)).Perm(n) {
			if err := tbl.Delete(sqldb.RowID(id)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, sel := range sels {
					if err := sql.ForEachMatch(tbl, sel.Where, func(id sqldb.RowID) {
						if id < 0 || id >= n {
							t.Errorf("ForEachMatch streamed id %d, table held 0..%d", id, n-1)
						}
					}); err != nil {
						t.Error(err)
						return
					}
					ids, err := sql.Exec(db, sel)
					if err != nil {
						t.Error(err)
						return
					}
					for i, id := range ids {
						if id < 0 || id >= n || i > 0 && ids[i-1] >= id {
							t.Errorf("%s: Plan.Run returned %v, not strictly ascending ids below %d", sel.SQL(), ids, n)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if tbl.Len() != 0 {
		t.Fatalf("%d rows survived the deleter", tbl.Len())
	}
}
