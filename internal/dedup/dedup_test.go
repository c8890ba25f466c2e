package dedup

import (
	"testing"

	"repro/internal/schema"
	"repro/internal/sqldb"
)

func dupTable(t *testing.T) *sqldb.Table {
	t.Helper()
	tbl, err := sqldb.NewTable(schema.Cars())
	if err != nil {
		t.Fatal(err)
	}
	rows := []map[string]sqldb.Value{
		// 0 and 1: the same listing reposted with a $50 price tweak.
		{"make": sqldb.String("honda"), "model": sqldb.String("accord"),
			"color": sqldb.String("blue"), "transmission": sqldb.String("automatic"),
			"year": sqldb.Number(2006), "price": sqldb.Number(9000), "mileage": sqldb.Number(80000)},
		{"make": sqldb.String("honda"), "model": sqldb.String("accord"),
			"color": sqldb.String("blue"), "transmission": sqldb.String("automatic"),
			"year": sqldb.Number(2006), "price": sqldb.Number(9050), "mileage": sqldb.Number(80100)},
		// 2: same car but a shorthand-spelled transmission — still a dup.
		{"make": sqldb.String("honda"), "model": sqldb.String("accord"),
			"color": sqldb.String("blue"), "transmission": sqldb.String("auto"),
			"year": sqldb.Number(2006), "price": sqldb.Number(9020), "mileage": sqldb.Number(80050)},
		// 3: different color — distinct listing.
		{"make": sqldb.String("honda"), "model": sqldb.String("accord"),
			"color": sqldb.String("red"), "transmission": sqldb.String("automatic"),
			"year": sqldb.Number(2006), "price": sqldb.Number(9000), "mileage": sqldb.Number(80000)},
		// 4: same attributes but price far apart — distinct.
		{"make": sqldb.String("honda"), "model": sqldb.String("accord"),
			"color": sqldb.String("blue"), "transmission": sqldb.String("automatic"),
			"year": sqldb.Number(2006), "price": sqldb.Number(15000), "mileage": sqldb.Number(80000)},
		// 5: different make entirely.
		{"make": sqldb.String("toyota"), "model": sqldb.String("camry"),
			"color": sqldb.String("blue"), "transmission": sqldb.String("automatic"),
			"year": sqldb.Number(2006), "price": sqldb.Number(9000), "mileage": sqldb.Number(80000)},
	}
	for _, r := range rows {
		if _, err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestDedupGroups(t *testing.T) {
	tbl := dupTable(t)
	res := dedupTable(tbl, DefaultOptions())
	if res.Groups != 4 {
		t.Fatalf("groups = %d, want 4 (rows 0/1/2 merge)", res.Groups)
	}
	// The representative of the merged group is the lowest id.
	if rep, ok := res.Duplicates[1]; !ok || rep != 0 {
		t.Errorf("row 1 rep = %v, %v", rep, ok)
	}
	if rep, ok := res.Duplicates[2]; !ok || rep != 0 {
		t.Errorf("row 2 rep = %v, %v", rep, ok)
	}
	for _, id := range []sqldb.RowID{3, 4, 5} {
		if _, dup := res.Duplicates[id]; dup {
			t.Errorf("row %d wrongly marked duplicate", id)
		}
	}
	if len(res.Keep) != 4 || res.Keep[0] != 0 {
		t.Errorf("Keep = %v", res.Keep)
	}
}

func TestDedupToleranceZeroUsesDefault(t *testing.T) {
	tbl := dupTable(t)
	res := dedupTable(tbl, Options{})
	if res.Groups != 4 {
		t.Errorf("groups = %d with defaulted options", res.Groups)
	}
}

func TestDedupTightToleranceKeepsAll(t *testing.T) {
	tbl := dupTable(t)
	res := dedupTable(tbl, Options{NumericTolerance: 1e-9})
	// Only exact numeric matches merge; rows 0/1/2 differ in price.
	if res.Groups != 6 {
		t.Errorf("groups = %d, want 6", res.Groups)
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(5)
	uf.union(0, 1)
	uf.union(3, 4)
	uf.union(1, 3)
	if uf.find(0) != uf.find(4) {
		t.Error("transitive union failed")
	}
	if uf.find(2) == uf.find(0) {
		t.Error("separate element merged")
	}
}

// dedupTable runs Dedup in a read view of tbl.
func dedupTable(tbl *sqldb.Table, opts Options) (res *Result) {
	tbl.View(func(v sqldb.View) { res = Dedup(v, opts) })
	return res
}
