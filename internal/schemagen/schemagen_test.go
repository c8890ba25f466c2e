package schemagen

import (
	"testing"

	"repro/internal/adsgen"
	"repro/internal/schema"
	"repro/internal/sqldb"
)

func TestInferRecoversDomainSchemas(t *testing.T) {
	// Inference over generated ads should type most attributes of
	// every built-in domain correctly.
	for _, name := range schema.DomainNames {
		ref := schema.ByName(name)
		db := sqldb.NewDB()
		tbl, err := adsgen.NewGenerator(17).Populate(db, ref, 500)
		if err != nil {
			t.Fatal(err)
		}
		inferred, err := InferFromTable(name, ref.Table, tbl, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// 0.7 floor: Type I vs Type II is genuinely ambiguous for
		// attributes with equal cardinality and coverage (clothing's
		// "item" and "color" both enumerate ten values), so perfect
		// agreement is not achievable from statistics alone.
		agreement, mismatches := Agreement(inferred, ref)
		if agreement < 0.7 {
			t.Errorf("%s: agreement %.2f (mismatches: %v)", name, agreement, mismatches)
		}
		// Type III ranges must contain the observed data.
		observed := map[string]sqldb.ColumnStats{}
		for _, c := range tbl.Stats().Columns {
			observed[c.Name] = c
		}
		for _, a := range ref.NumericAttrs() {
			got, ok := inferred.Attr(a.Name)
			col := observed[a.Name]
			if !ok || got.Type != schema.TypeIII || !col.HasNumeric {
				continue
			}
			lo, hi := col.Min, col.Max
			if got.Min > lo || got.Max < hi {
				t.Errorf("%s.%s: inferred range [%g,%g] misses data [%g,%g]",
					name, a.Name, got.Min, got.Max, lo, hi)
			}
		}
	}
}

func TestInferCarsTypeAssignments(t *testing.T) {
	ref := schema.Cars()
	db := sqldb.NewDB()
	tbl, err := adsgen.NewGenerator(17).Populate(db, ref, 500)
	if err != nil {
		t.Fatal(err)
	}
	inferred, err := InferFromTable("cars", "car_ads", tbl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The numeric trio must be Type III.
	for _, n := range []string{"year", "price", "mileage"} {
		if a, ok := inferred.Attr(n); !ok || a.Type != schema.TypeIII {
			t.Errorf("%s inferred as %v", n, a.Type)
		}
	}
	// Make and model (high-cardinality identifiers) must be Type I.
	for _, n := range []string{"make", "model"} {
		if a, ok := inferred.Attr(n); !ok || a.Type != schema.TypeI {
			t.Errorf("%s inferred as %v, want Type I", n, a.Type)
		}
	}
	// Low-cardinality properties must be Type II.
	for _, n := range []string{"transmission", "doors"} {
		if a, ok := inferred.Attr(n); !ok || a.Type != schema.TypeII {
			t.Errorf("%s inferred as %v, want Type II", n, a.Type)
		}
	}
	if err := inferred.Validate(); err != nil {
		t.Errorf("inferred schema invalid: %v", err)
	}
}

func TestInferErrors(t *testing.T) {
	if _, err := Infer("x", "t", nil, DefaultOptions()); err == nil {
		t.Error("no records should error")
	}
	// All-numeric records: no Type I candidate.
	recs := []map[string]sqldb.Value{
		{"a": sqldb.Number(1), "b": sqldb.Number(2)},
	}
	if _, err := Infer("x", "t", recs, DefaultOptions()); err == nil {
		t.Error("no categorical attribute should error")
	}
}

func TestInferSparseAttributeNotTypeI(t *testing.T) {
	// An attribute present in only half the records cannot be a
	// required identifier.
	var recs []map[string]sqldb.Value
	for i := 0; i < 100; i++ {
		r := map[string]sqldb.Value{
			"id":    sqldb.String(pick(i, 40)), // dense, high cardinality
			"price": sqldb.Number(float64(100 + i)),
		}
		if i%2 == 0 {
			r["note"] = sqldb.String(pick(i, 50))
		}
		recs = append(recs, r)
	}
	s, err := Infer("x", "t", recs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := s.Attr("id"); a.Type != schema.TypeI {
		t.Errorf("id inferred as %v", a.Type)
	}
	if a, _ := s.Attr("note"); a.Type == schema.TypeI {
		t.Error("sparse attribute promoted to Type I")
	}
}

func TestInferDropsEmptyAttributes(t *testing.T) {
	recs := []map[string]sqldb.Value{
		{"id": sqldb.String("a"), "ghost": sqldb.Null},
		{"id": sqldb.String("b"), "ghost": sqldb.Null},
	}
	s, err := Infer("x", "t", recs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Attr("ghost"); ok {
		t.Error("never-populated attribute survived inference")
	}
}

func TestDefaultSuperlativesAttached(t *testing.T) {
	ref := schema.Cars()
	db := sqldb.NewDB()
	tbl, err := adsgen.NewGenerator(17).Populate(db, ref, 200)
	if err != nil {
		t.Fatal(err)
	}
	inferred, err := InferFromTable("cars", "car_ads", tbl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sup, ok := inferred.SuperlativeAttr["cheapest"]
	if !ok || sup.Attr != "price" || sup.Descending {
		t.Errorf("cheapest = %+v, %v", sup, ok)
	}
	sup, ok = inferred.SuperlativeAttr["newest"]
	if !ok || sup.Attr != "year" || !sup.Descending {
		t.Errorf("newest = %+v, %v", sup, ok)
	}
	// No salary attribute: no salary superlatives.
	if _, ok := inferred.SuperlativeAttr["highest"]; ok {
		t.Error("salary superlative attached without a salary attribute")
	}
}

func TestAgreementEdgeCases(t *testing.T) {
	ref := schema.Cars()
	frac, miss := Agreement(&schema.Schema{}, ref)
	if frac != 0 || len(miss) != len(ref.Attrs) {
		t.Errorf("empty inferred: %g, %d mismatches", frac, len(miss))
	}
	frac, miss = Agreement(ref, ref)
	if frac != 1 || len(miss) != 0 {
		t.Errorf("self agreement: %g, %v", frac, miss)
	}
}

func pick(i, n int) string {
	letters := "abcdefghijklmnopqrstuvwxyz"
	a := letters[i%n%26]
	b := letters[(i/26+i%n)%26]
	return string([]byte{a, b, byte('0' + i%n%10)})
}
