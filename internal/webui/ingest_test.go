package webui

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/adsgen"
	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/sqldb"
)

// ingestServer builds a private server (not the shared srvOnce one) so
// mutations don't leak into the read-only handler tests.
func ingestServer(t *testing.T) *Server {
	t.Helper()
	db, err := adsgen.PopulateAll(7, 100)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.New(core.Config{DB: db, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	return NewServer(sys)
}

func doJSON(t *testing.T, srv *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rdr *strings.Reader
	if body == "" {
		rdr = strings.NewReader("")
	} else {
		rdr = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rdr)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func TestPostAdThenAskThenDelete(t *testing.T) {
	srv := ingestServer(t)
	rec := doJSON(t, srv, http.MethodPost, "/api/ads",
		`{"domain":"cars","record":{"make":"lexus","model":"es350","color":"gold","price":31337}}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("POST /api/ads = %d: %s", rec.Code, rec.Body.String())
	}
	var created struct {
		Domain string `json:"domain"`
		ID     int    `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	if created.Domain != "cars" {
		t.Fatalf("created in domain %q", created.Domain)
	}

	// The freshly POSTed ad answers the next question.
	ask := doJSON(t, srv, http.MethodGet, "/api/ask?domain=cars&q=gold+lexus+es350", "")
	if ask.Code != http.StatusOK {
		t.Fatalf("ask = %d: %s", ask.Code, ask.Body.String())
	}
	var res struct {
		ExactCount int `json:"exact_count"`
		Answers    []struct {
			Exact  bool              `json:"exact"`
			Record map[string]string `json:"record"`
		} `json:"answers"`
	}
	if err := json.Unmarshal(ask.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range res.Answers {
		if a.Exact && a.Record["price"] == "31337" {
			found = true
		}
	}
	if !found {
		t.Fatalf("POSTed ad not among answers: %s", ask.Body.String())
	}

	// DELETE expires it; asking again no longer returns it.
	del := doJSON(t, srv, http.MethodDelete, fmt.Sprintf("/api/ads/%d?domain=cars", created.ID), "")
	if del.Code != http.StatusOK {
		t.Fatalf("DELETE = %d: %s", del.Code, del.Body.String())
	}
	ask = doJSON(t, srv, http.MethodGet, "/api/ask?domain=cars&q=gold+lexus+es350", "")
	if err := json.Unmarshal(ask.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Answers {
		if a.Record["price"] == "31337" {
			t.Fatalf("deleted ad still served: %s", ask.Body.String())
		}
	}
	// Deleting again 404s.
	if del := doJSON(t, srv, http.MethodDelete, fmt.Sprintf("/api/ads/%d?domain=cars", created.ID), ""); del.Code != http.StatusNotFound {
		t.Fatalf("double DELETE = %d, want 404", del.Code)
	}
}

func TestPostAdValidation(t *testing.T) {
	srv := ingestServer(t)
	cases := []struct {
		name, body string
		want       int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"unknown domain", `{"domain":"starships","record":{}}`, http.StatusNotFound},
		{"unknown column", `{"domain":"cars","record":{"warp":9}}`, http.StatusBadRequest},
		{"non-numeric quantitative", `{"domain":"cars","record":{"price":"cheap"}}`, http.StatusBadRequest},
		{"unsupported value", `{"domain":"cars","record":{"make":["a","b"]}}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if rec := doJSON(t, srv, http.MethodPost, "/api/ads", c.body); rec.Code != c.want {
			t.Errorf("%s: status = %d, want %d (%s)", c.name, rec.Code, c.want, rec.Body.String())
		}
	}
	// Numeric strings are accepted for quantitative columns, nulls
	// store NULL.
	rec := doJSON(t, srv, http.MethodPost, "/api/ads",
		`{"domain":"cars","record":{"make":"kia","price":"4200","mileage":null}}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("numeric-string insert = %d: %s", rec.Code, rec.Body.String())
	}
}

// TestStatusEndpointPersistent: a durable server reports its
// checkpoint/WAL state through /api/status, and the logged sequence
// advances with ingestion.
func TestStatusEndpointPersistent(t *testing.T) {
	db, err := adsgen.PopulateAll(7, 50)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Open(core.Config{DB: db, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv := NewServer(sys)

	status := func() (out struct {
		Persistence struct {
			Enabled        bool   `json:"enabled"`
			Dir            string `json:"dir"`
			Seq            uint64 `json:"seq"`
			CheckpointSeq  uint64 `json:"checkpoint_seq"`
			WALBytes       int64  `json:"wal_bytes"`
			LastCheckpoint string `json:"last_checkpoint"`
		} `json:"persistence"`
	}) {
		rec := doJSON(t, srv, http.MethodGet, "/api/status", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	st := status()
	if !st.Persistence.Enabled || st.Persistence.Dir == "" {
		t.Fatalf("persistence block = %+v, want enabled with dir", st.Persistence)
	}
	if st.Persistence.LastCheckpoint == "" {
		t.Error("initial checkpoint not reported")
	}
	before := st.Persistence.Seq
	rec := doJSON(t, srv, http.MethodPost, "/api/ads",
		`{"domain":"cars","record":{"make":"kia","price":4200}}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("POST = %d: %s", rec.Code, rec.Body.String())
	}
	st = status()
	if st.Persistence.Seq != before+1 {
		t.Errorf("seq after ingest = %d, want %d", st.Persistence.Seq, before+1)
	}
	if st.Persistence.WALBytes <= 0 {
		t.Errorf("wal_bytes after ingest = %d, want > 0", st.Persistence.WALBytes)
	}
}

// TestConvertRecordCoercesBySchemaType is the regression test for the
// categorical-number bug: a JSON number POSTed for a Type I/II column
// used to be stored as sqldb.Number, which never matches the
// string-keyed machinery (TI/WS similarity). It must be coerced to
// the schema's value class instead.
func TestConvertRecordCoercesBySchemaType(t *testing.T) {
	sch := schema.Cars()
	values, err := convertRecord(sch, map[string]any{
		"doors": float64(2),     // Type II ← JSON number
		"make":  "HONDA",        // Type I  ← string (lower-cased on store)
		"price": float64(12000), // Type III ← JSON number
		"year":  "2004",         // Type III ← numeric string
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := values["doors"]; !v.IsString() || v.Str() != "2" {
		t.Errorf("doors = %#v, want the string \"2\"", v)
	}
	if v := values["price"]; !v.IsNumber() || v.Num() != 12000 {
		t.Errorf("price = %#v, want Number(12000)", v)
	}
	if v := values["year"]; !v.IsNumber() || v.Num() != 2004 {
		t.Errorf("year = %#v, want Number(2004)", v)
	}

	// End to end: the numeric-categorical ad is stored as a string and
	// found through the hash index.
	srv := ingestServer(t)
	rec := doJSON(t, srv, http.MethodPost, "/api/ads",
		`{"domain":"cars","record":{"make":"kia","model":"sorento","doors":2}}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("POST = %d: %s", rec.Code, rec.Body.String())
	}
	var created struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	tbl, _ := srv.sys.DB().TableForDomain("cars")
	id := sqldb.RowID(created.ID)
	if v := tbl.Value(id, "doors"); !v.IsString() {
		t.Fatalf("stored doors = %#v, want a string", v)
	}
	found := false
	for _, got := range tbl.AppendEqual(nil, "doors", sqldb.String("2")) {
		if got == id {
			found = true
		}
	}
	if !found {
		t.Error("numeric-categorical value missing from the hash index")
	}
}

func TestDeleteAdValidation(t *testing.T) {
	srv := ingestServer(t)
	if rec := doJSON(t, srv, http.MethodDelete, "/api/ads/0", ""); rec.Code != http.StatusBadRequest {
		t.Errorf("missing domain = %d, want 400", rec.Code)
	}
	if rec := doJSON(t, srv, http.MethodDelete, "/api/ads/notanumber?domain=cars", ""); rec.Code != http.StatusBadRequest {
		t.Errorf("bad id = %d, want 400", rec.Code)
	}
	if rec := doJSON(t, srv, http.MethodDelete, "/api/ads/999999?domain=cars", ""); rec.Code != http.StatusNotFound {
		t.Errorf("unknown row = %d, want 404", rec.Code)
	}
}

// TestIngestRejectsNonFiniteQuantities: strconv.ParseFloat accepts
// "NaN", "Inf" and "infinity", but a non-finite price, year or mileage
// is no ad — and +Inf would win every "newest" superlative. Ingest
// answers 400 and the ad never reaches the answers.
func TestIngestRejectsNonFiniteQuantities(t *testing.T) {
	sch := schema.Cars()
	for _, v := range []string{"+Inf", "Inf", "-inf", "NaN", "nan", "infinity", " -Infinity "} {
		_, err := convertRecord(sch, map[string]any{"make": "honda", "year": v})
		if err == nil || !strings.Contains(err.Error(), "is not a finite number") {
			t.Errorf("convertRecord(year %q) error = %v, want \"is not a finite number\"", v, err)
		}
	}
	if _, err := convertRecord(sch, map[string]any{"year": "2004", "price": "1e4"}); err != nil {
		t.Errorf("finite numeric strings rejected: %v", err)
	}

	srv := ingestServer(t)
	rec := doJSON(t, srv, http.MethodPost, "/api/ads",
		`{"domain":"cars","record":{"make":"honda","model":"accord","year":"+Inf"}}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("POST year +Inf = %d, want 400: %s", rec.Code, rec.Body.String())
	}
	rec = doJSON(t, srv, http.MethodGet, "/api/ask?domain=cars&q=newest+honda+accord", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("ask = %d: %s", rec.Code, rec.Body.String())
	}
	if strings.Contains(rec.Body.String(), "Inf") {
		t.Errorf("a non-finite year reached the answers: %s", rec.Body.String())
	}
}
