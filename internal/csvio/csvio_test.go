package csvio

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/adsgen"
	"repro/internal/schema"
	"repro/internal/sqldb"
)

func TestReadRecords(t *testing.T) {
	in := `make,model,price,year
Honda,Accord,9000,2006
toyota,camry,"12,500",2008
ford,, ,1999
`
	recs, err := ReadRecords(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0]["make"].Str() != "honda" {
		t.Errorf("make = %v (values lower-case)", recs[0]["make"])
	}
	if !recs[0]["price"].IsNumber() || recs[0]["price"].Num() != 9000 {
		t.Errorf("price = %v", recs[0]["price"])
	}
	// Thousands separators parse.
	if recs[1]["price"].Num() != 12500 {
		t.Errorf("price = %v", recs[1]["price"])
	}
	// Empty cells are omitted (NULL).
	if _, ok := recs[2]["model"]; ok {
		t.Error("empty cell should be omitted")
	}
	if _, ok := recs[2]["price"]; ok {
		t.Error("whitespace cell should be omitted")
	}
}

func TestReadRecordsErrors(t *testing.T) {
	for name, in := range map[string]string{
		"empty input":  "",
		"empty column": "a,,c\n1,2,3\n",
		"ragged row":   "a,b\n1,2,3\n",
	} {
		if _, err := ReadRecords(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	// Generated table → CSV → fresh table must preserve every value.
	db := sqldb.NewDB()
	src, err := adsgen.NewGenerator(3).Populate(db, schema.Cars(), 100)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, src); err != nil {
		t.Fatal(err)
	}
	db2 := sqldb.NewDB()
	dst, err := LoadTable(db2, schema.Cars(), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if dst.Len() != src.Len() {
		t.Fatalf("rows: %d vs %d", dst.Len(), src.Len())
	}
	for _, id := range src.AllRowIDs() {
		for _, a := range schema.Cars().Attrs {
			want := src.Value(id, a.Name)
			got := dst.Value(id, a.Name)
			if !want.Equal(got) && !(want.IsNull() && got.IsNull()) {
				t.Fatalf("row %d %s: %v vs %v", id, a.Name, want, got)
			}
		}
	}
}

func TestLoadTableRejectsUnknownColumns(t *testing.T) {
	in := "make,model,hovercraft\nhonda,accord,yes\n"
	db := sqldb.NewDB()
	if _, err := LoadTable(db, schema.Cars(), strings.NewReader(in)); err == nil {
		t.Error("unknown column should error")
	}
}

func TestWriteTableHeaderOrder(t *testing.T) {
	db := sqldb.NewDB()
	tbl, err := adsgen.NewGenerator(3).Populate(db, schema.Cars(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(buf.String(), "\n", 2)[0]
	if header != "make,model,color,transmission,doors,drivetrain,year,price,mileage" {
		t.Errorf("header = %q", header)
	}
}

// TestParseCellKeepsNonFiniteAsString: strconv.ParseFloat reads "NaN"
// and "Inf" spellings as numbers, but no ad field is a non-finite
// number, so such cells load as the strings they are.
func TestParseCellKeepsNonFiniteAsString(t *testing.T) {
	for _, tc := range []struct {
		cell string
		want sqldb.Value
	}{
		{"9000", sqldb.Number(9000)},
		{"12,500", sqldb.Number(12500)},
		{"-0.5", sqldb.Number(-0.5)},
		{"1e3", sqldb.Number(1000)},
		{"NaN", sqldb.String("NaN")},
		{"nan", sqldb.String("nan")},
		{"Inf", sqldb.String("Inf")},
		{"+Inf", sqldb.String("+Inf")},
		{"-infinity", sqldb.String("-infinity")},
		{"Infinity", sqldb.String("Infinity")},
		{"1e400", sqldb.String("1e400")}, // out of range: ParseFloat errors
		{"automatic", sqldb.String("automatic")},
	} {
		if got := parseCell(tc.cell); got != tc.want {
			t.Errorf("parseCell(%q) = %#v, want %#v", tc.cell, got, tc.want)
		}
	}
}
