package plan

import (
	"slices"
	"testing"

	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/sql/sqltest"
	"repro/internal/sqldb"
)

func testDB(t *testing.T) (*sqldb.DB, *sqldb.Table) {
	t.Helper()
	db := sqldb.NewDB()
	tbl, err := db.CreateTable(schema.Cars())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		_, _ = tbl.Insert(map[string]sqldb.Value{
			"make":  sqldb.String([]string{"honda", "toyota"}[i%2]),
			"model": sqldb.String("accord"),
			"price": sqldb.Number(float64(1000 * i)),
			"year":  sqldb.Number(float64(2000 + i)),
		})
	}
	return db, tbl
}

func mustParse(t *testing.T, q string) *sql.Select {
	t.Helper()
	sel, err := sqltest.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

func TestKeyStripsLiteralsKeepsShape(t *testing.T) {
	a := mustParse(t, "SELECT * FROM car_ads WHERE make = 'honda' AND price < 9000 LIMIT 5")
	b := mustParse(t, "SELECT * FROM car_ads WHERE make = 'toyota' AND price < 123 LIMIT 30")
	if Key("cars", a) != Key("cars", b) {
		t.Errorf("same shape, different keys:\n%s\n%s", Key("cars", a), Key("cars", b))
	}
	// Different operator, column order, order-by or domain must split.
	for _, q := range []string{
		"SELECT * FROM car_ads WHERE make = 'honda' AND price > 9000",
		"SELECT * FROM car_ads WHERE price < 9000 AND make = 'honda'",
		"SELECT * FROM car_ads WHERE make = 'honda' AND price < 9000 ORDER BY year",
		"SELECT * FROM car_ads WHERE make = 'honda'",
	} {
		if Key("cars", a) == Key("cars", mustParse(t, q)) {
			t.Errorf("key collision between %q and %q", a.SQL(), q)
		}
	}
	if Key("cars", a) == Key("jobs", a) {
		t.Error("domain not part of the key")
	}
	// Numeric vs string equality literals plan differently (range
	// validation) and must not share a key.
	n := mustParse(t, "SELECT * FROM car_ads WHERE make = 1")
	s := mustParse(t, "SELECT * FROM car_ads WHERE make = 'x'")
	if Key("cars", n) == Key("cars", s) {
		t.Error("numeric and string literal shapes share a key")
	}
}

// TestCacheHitMissInvalidation: same shape hits, and — the leg that
// used to assert the opposite — a table mutation invalidates nothing:
// the cached plan is returned again and still answers like the eager
// evaluator on the changed table.
func TestCacheHitMissInvalidation(t *testing.T) {
	db, tbl := testDB(t)
	c := NewCache(8)
	sel := mustParse(t, "SELECT * FROM car_ads WHERE make = 'honda' AND price < 9000")

	p1, err := c.Get(db, "cars", sel)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses, size := c.Stats(); hits != 0 || misses != 1 || size != 1 {
		t.Fatalf("after first Get: hits=%d misses=%d size=%d", hits, misses, size)
	}

	// Same shape, different literals: a hit returning the same plan.
	sel2 := mustParse(t, "SELECT * FROM car_ads WHERE make = 'toyota' AND price < 4500")
	p2, err := c.Get(db, "cars", sel2)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p1 {
		t.Error("same shape did not reuse the cached plan")
	}
	if hits, _, _ := c.Stats(); hits != 1 {
		t.Errorf("hits = %d, want 1", hits)
	}
	if !c.Contains("cars", sel) {
		t.Error("Contains = false for cached current shape")
	}

	// The cached plan must answer bit-identically after literal
	// re-binding.
	sameAsLegacy := func(p *Plan, sel *sql.Select) {
		t.Helper()
		got, err := p.Run(db, sel)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sqltest.ExecLegacy(db, sel)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("cached plan answers %v, legacy %v", got, want)
		}
	}
	sameAsLegacy(p2, sel2)

	// Mutations move the table version and its contents; the plan is a
	// function of neither, so the entry stays and stays right.
	var inserted sqldb.RowID
	for _, mutate := range []func() error{
		func() (err error) {
			inserted, err = tbl.Insert(map[string]sqldb.Value{
				"make": sqldb.String("honda"), "model": sqldb.String("civic"),
				"price": sqldb.Number(500), "year": sqldb.Number(1999),
			})
			return err
		},
		func() error { return tbl.Delete(0) },
		func() error { return tbl.Delete(inserted) },
	} {
		if err := mutate(); err != nil {
			t.Fatal(err)
		}
		if !c.Contains("cars", sel) {
			t.Fatal("a mutation dropped the cached plan")
		}
		p3, err := c.Get(db, "cars", sel)
		if err != nil {
			t.Fatal(err)
		}
		if p3 != p1 {
			t.Fatal("a mutation made the cache recompile the shape")
		}
		sameAsLegacy(p3, sel)
		sameAsLegacy(p3, sel2)
	}
	if hits, misses, size := c.Stats(); hits != 4 || misses != 1 || size != 1 {
		t.Errorf("after three mutations: hits=%d misses=%d size=%d, want 4/1/1", hits, misses, size)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	db, _ := testDB(t)
	c := NewCache(2)
	qa := mustParse(t, "SELECT * FROM car_ads WHERE make = 'honda'")
	qb := mustParse(t, "SELECT * FROM car_ads WHERE price < 5000")
	qc := mustParse(t, "SELECT * FROM car_ads WHERE year > 2004")
	for _, q := range []*sql.Select{qa, qb, qc} {
		if _, err := c.Get(db, "cars", q); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, size := c.Stats(); size != 2 {
		t.Fatalf("size = %d, want 2", size)
	}
	// qa was least recently used and must be gone; qb and qc remain.
	if c.Contains("cars", qa) {
		t.Error("oldest shape survived eviction")
	}
	if !c.Contains("cars", qb) || !c.Contains("cars", qc) {
		t.Error("recent shapes evicted")
	}
}

func TestCacheCompileErrorNotCached(t *testing.T) {
	db, _ := testDB(t)
	c := NewCache(4)
	bad := mustParse(t, "SELECT * FROM car_ads WHERE ghost = 1")
	if _, err := c.Get(db, "cars", bad); err == nil {
		t.Fatal("unknown column should fail compile")
	}
	if _, _, size := c.Stats(); size != 0 {
		t.Errorf("failed compile was cached (size=%d)", size)
	}
}
