package sqldb

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/schema"
)

func carsTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := NewTable(schema.Cars())
	if err != nil {
		t.Fatal(err)
	}
	rows := []map[string]Value{
		{"make": String("honda"), "model": String("accord"), "color": String("blue"),
			"transmission": String("automatic"), "year": Number(2004), "price": Number(8000), "mileage": Number(90000)},
		{"make": String("honda"), "model": String("civic"), "color": String("red"),
			"transmission": String("manual"), "year": Number(2008), "price": Number(11000), "mileage": Number(40000)},
		{"make": String("toyota"), "model": String("camry"), "color": String("blue"),
			"transmission": String("automatic"), "year": Number(2006), "price": Number(9500), "mileage": Number(60000)},
		{"make": String("ford"), "model": String("mustang"), "color": String("black"),
			"transmission": String("manual"), "year": Number(2010), "price": Number(22000), "mileage": Number(15000)},
	}
	for _, r := range rows {
		if _, err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestTableInsertAndGet(t *testing.T) {
	tbl := carsTable(t)
	if tbl.Len() != 4 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	rec, ok := tbl.Get(0)
	if !ok || rec.ID != 0 {
		t.Fatalf("Get(0) = %+v, %v", rec, ok)
	}
	if _, ok := tbl.Get(99); ok {
		t.Error("Get(99) should fail")
	}
	if _, ok := tbl.Get(-1); ok {
		t.Error("Get(-1) should fail")
	}
}

func TestTableInsertUnknownColumn(t *testing.T) {
	tbl := carsTable(t)
	if _, err := tbl.Insert(map[string]Value{"warp": Number(9)}); err == nil {
		t.Error("Insert(unknown column) should error")
	}
}

func TestTableMissingColumnsAreNull(t *testing.T) {
	tbl := carsTable(t)
	id, err := tbl.Insert(map[string]Value{"make": String("kia")})
	if err != nil {
		t.Fatal(err)
	}
	if v := tbl.Value(id, "price"); !v.IsNull() {
		t.Errorf("missing price = %#v, want NULL", v)
	}
}

func TestLookupEqual(t *testing.T) {
	tbl := carsTable(t)
	ids := tbl.LookupEqual("make", String("honda"))
	if !reflect.DeepEqual(ids, []RowID{0, 1}) {
		t.Errorf("LookupEqual(make=honda) = %v", ids)
	}
	if ids := tbl.LookupEqual("make", String("bmw")); len(ids) != 0 {
		t.Errorf("LookupEqual(make=bmw) = %v", ids)
	}
	// Case-insensitivity via lower-cased storage.
	ids = tbl.LookupEqual("make", String("HONDA"))
	if len(ids) != 2 {
		t.Errorf("LookupEqual(make=HONDA) = %v", ids)
	}
}

func TestLookupRange(t *testing.T) {
	tbl := carsTable(t)
	ids := tbl.LookupRange("price", math.Inf(-1), 10000, false, true)
	if !reflect.DeepEqual(ids, []RowID{0, 2}) {
		t.Errorf("price <= 10000 = %v", ids)
	}
	ids = tbl.LookupRange("year", 2006, 2010, true, false)
	if !reflect.DeepEqual(ids, []RowID{1, 2}) {
		t.Errorf("2006 <= year < 2010 = %v", ids)
	}
}

func TestSortByColumn(t *testing.T) {
	tbl := carsTable(t)
	ids := tbl.SortByColumn([]RowID{0, 1, 2, 3}, "price", false)
	if !reflect.DeepEqual(ids, []RowID{0, 2, 1, 3}) {
		t.Errorf("sort by price asc = %v", ids)
	}
	ids = tbl.SortByColumn([]RowID{0, 1, 2, 3}, "year", true)
	if !reflect.DeepEqual(ids, []RowID{3, 1, 2, 0}) {
		t.Errorf("sort by year desc = %v", ids)
	}
}

func TestRecordMap(t *testing.T) {
	tbl := carsTable(t)
	m := tbl.RecordMap(0)
	if m["make"].Str() != "honda" || m["price"].Num() != 8000 {
		t.Errorf("RecordMap(0) = %v", m)
	}
	if m := tbl.RecordMap(99); m != nil {
		t.Errorf("RecordMap(99) = %v, want nil", m)
	}
}

func TestDBCatalog(t *testing.T) {
	db := NewDB()
	if _, err := db.CreateTable(schema.Cars()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(schema.Cars()); err == nil {
		t.Error("duplicate CreateTable should error")
	}
	if _, ok := db.Table("car_ads"); !ok {
		t.Error("Table(car_ads) missing")
	}
	if _, ok := db.TableForDomain("cars"); !ok {
		t.Error("TableForDomain(cars) missing")
	}
	if _, ok := db.Table("ghost"); ok {
		t.Error("Table(ghost) should fail")
	}
	if got := db.Domains(); len(got) != 1 || got[0] != "cars" {
		t.Errorf("Domains = %v", got)
	}
}

func TestNewTableRejectsInvalidSchema(t *testing.T) {
	s := schema.Cars()
	s.Domain = ""
	if _, err := NewTable(s); err == nil {
		t.Error("NewTable(invalid schema) should error")
	}
}
