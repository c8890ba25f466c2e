package webui

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/adsgen"
	"repro/internal/core"
)

var (
	srvOnce sync.Once
	srv     *Server
	srvErr  error
)

func server(t *testing.T) *Server {
	t.Helper()
	srvOnce.Do(func() {
		db, err := adsgen.PopulateAll(42, 200)
		if err != nil {
			srvErr = err
			return
		}
		sys, err := core.New(core.Config{DB: db})
		if err != nil {
			srvErr = err
			return
		}
		srv = NewServer(sys)
	})
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	return srv
}

func get(t *testing.T, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	server(t).ServeHTTP(rec, req)
	return rec
}

func TestIndexServesForm(t *testing.T) {
	rec := get(t, "/")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"<form", "auto-classify", "cars", "jewellery"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q", want)
		}
	}
}

func TestIndexNotFoundForOtherPaths(t *testing.T) {
	if rec := get(t, "/nope"); rec.Code != http.StatusNotFound {
		t.Errorf("status = %d", rec.Code)
	}
}

func TestAskRendersAnswerTable(t *testing.T) {
	rec := get(t, "/ask?domain=cars&q=red+honda+under+%249000")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"interpretation:", "SQL:", "<table>", "make", "price",
		"class=\"exact\"",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("answer page missing %q", want)
		}
	}
}

func TestAskPartialAnswersShowMeasure(t *testing.T) {
	rec := get(t, "/ask?domain=cars&q=honda+accord+blue+less+than+15000+dollars")
	body := rec.Body.String()
	if !strings.Contains(body, "class=\"partial\"") {
		t.Skip("no partial answers for this seed")
	}
	if !strings.Contains(body, "Sim") {
		t.Error("partial rows missing similarity measure")
	}
}

func TestAskEmptyQueryShowsForm(t *testing.T) {
	rec := get(t, "/ask?q=")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "<form") {
		t.Errorf("empty query should render the form (status %d)", rec.Code)
	}
}

func TestAskUnknownDomainShowsError(t *testing.T) {
	rec := get(t, "/ask?domain=ghost&q=anything")
	if !strings.Contains(rec.Body.String(), "unknown domain") {
		t.Error("error not surfaced")
	}
}

func TestAPIAsk(t *testing.T) {
	rec := get(t, "/api/ask?domain=cars&q=red+honda")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Domain     string `json:"domain"`
		SQL        string `json:"sql"`
		ExactCount int    `json:"exact_count"`
		Answers    []struct {
			Exact  bool              `json:"exact"`
			Record map[string]string `json:"record"`
		} `json:"answers"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if out.Domain != "cars" || !strings.Contains(out.SQL, "SELECT") {
		t.Errorf("payload = %+v", out)
	}
	if len(out.Answers) == 0 {
		t.Fatal("no answers")
	}
	for _, a := range out.Answers[:out.ExactCount] {
		if a.Record["make"] != "honda" || a.Record["color"] != "red" {
			t.Errorf("exact answer mismatch: %v", a.Record)
		}
	}
}

// TestAPIMissingQuery: the missing-q error is a real JSON error
// response — correct Content-Type and a decodable body, not a JSON
// string shipped as text/plain via http.Error.
func TestAPIMissingQuery(t *testing.T) {
	rec := get(t, "/api/ask")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var out struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.Error == "" {
		t.Errorf("body %q not a JSON error payload (%v)", rec.Body.String(), err)
	}
}

// TestAPIErrorsAreJSON: every /api/ask failure path carries the JSON
// Content-Type.
func TestAPIErrorsAreJSON(t *testing.T) {
	rec := get(t, "/api/ask?domain=ghost&q=anything")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
}

// TestAPIEmptyAnswersIsArray: a query matching nothing must encode
// "answers": [] rather than "answers": null.
func TestAPIEmptyAnswersIsArray(t *testing.T) {
	rec := get(t, "/api/ask?domain=cars&q=zzzzqqqq")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"answers":[]`) {
		t.Errorf("no-match response = %s, want \"answers\":[]", rec.Body.String())
	}
	var out struct {
		Answers []any `json:"answers"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Answers == nil {
		t.Error("answers decoded as nil slice")
	}
}

// TestStatusEndpoint: GET /api/status reports one entry per domain
// with sane counts, and a disabled persistence block for an in-memory
// server.
func TestStatusEndpoint(t *testing.T) {
	rec := get(t, "/api/status")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var out struct {
		Domains []struct {
			Domain  string `json:"domain"`
			Live    int    `json:"live"`
			Slots   int    `json:"slots"`
			Version uint64 `json:"version"`
		} `json:"domains"`
		Persistence struct {
			Enabled bool `json:"enabled"`
		} `json:"persistence"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Domains) == 0 {
		t.Fatal("no domains in status")
	}
	seenCars := false
	for _, d := range out.Domains {
		if d.Domain == "cars" {
			seenCars = true
		}
		if d.Live <= 0 || d.Slots < d.Live {
			t.Errorf("domain %s: live %d slots %d", d.Domain, d.Live, d.Slots)
		}
	}
	if !seenCars {
		t.Error("cars domain missing from status")
	}
	if out.Persistence.Enabled {
		t.Error("in-memory server reports persistence enabled")
	}
}

// TestStatusPlanCache: the plan_cache block reports the process-wide
// compile/hit tallies, and asking a question moves them.
func TestStatusPlanCache(t *testing.T) {
	readPlanCache := func() (hits, misses, size int64) {
		rec := get(t, "/api/status")
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
		}
		var out struct {
			PlanCache struct {
				Hits   int64 `json:"hits"`
				Misses int64 `json:"misses"`
				Size   int64 `json:"size"`
			} `json:"plan_cache"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out.PlanCache.Hits, out.PlanCache.Misses, out.PlanCache.Size
	}
	hits0, misses0, _ := readPlanCache()
	// Counters are process-wide, and earlier tests may already have
	// cached this shape — assert on lookup deltas, not absolutes.
	if rec := get(t, "/api/ask?domain=cars&q=blue+toyota+under+%247000"); rec.Code != http.StatusOK {
		t.Fatalf("ask status = %d", rec.Code)
	}
	hits1, misses1, size1 := readPlanCache()
	if hits1+misses1 <= hits0+misses0 {
		t.Errorf("plan-cache lookups did not move: %d+%d -> %d+%d", hits0, misses0, hits1, misses1)
	}
	if size1 <= 0 {
		t.Errorf("plan cache size = %d after a query", size1)
	}
	if rec := get(t, "/api/ask?domain=cars&q=blue+toyota+under+%247000"); rec.Code != http.StatusOK {
		t.Fatalf("ask status = %d", rec.Code)
	}
	hits2, misses2, _ := readPlanCache()
	if hits2 <= hits1 {
		t.Errorf("repeat ask did not hit the plan cache: hits %d -> %d", hits1, hits2)
	}
	if misses2 != misses1 {
		t.Errorf("repeat ask recompiled: misses %d -> %d", misses1, misses2)
	}
}

func TestSuggest(t *testing.T) {
	rec := get(t, "/api/suggest?domain=cars&prefix=ho")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var out []string
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range out {
		if s == "honda" {
			found = true
		}
		if !strings.HasPrefix(s, "ho") {
			t.Errorf("suggestion %q lacks prefix", s)
		}
	}
	if !found {
		t.Errorf("suggestions = %v, want honda included", out)
	}
}

func TestSuggestEmptyCases(t *testing.T) {
	for _, path := range []string{
		"/api/suggest",                        // no domain, no prefix
		"/api/suggest?domain=ghost&prefix=x",  // unknown domain
		"/api/suggest?domain=cars&prefix=zzz", // no matches
	} {
		rec := get(t, path)
		if rec.Code != http.StatusOK {
			t.Errorf("%s: status %d", path, rec.Code)
		}
		var out []string
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Errorf("%s: bad JSON %q", path, rec.Body.String())
		}
	}
}

func TestExplainPanel(t *testing.T) {
	rec := get(t, "/ask?domain=cars&q=red+honda+under+%249000&explain=1")
	body := rec.Body.String()
	for _, want := range []string{
		"streamed conjunction:",
		"driving scan:",
		"primary hash index lookup",
		"pushed residual: price",
		"plan cache:",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("explain panel missing %q", want)
		}
	}
	// The question just executed through the cache, so the panel
	// reports its shape as cached.
	if !strings.Contains(body, "plan cache: hit") {
		t.Error("explain panel did not report a plan-cache hit for the shape it just ran")
	}
	// Without explain=1 the plan is absent.
	rec = get(t, "/ask?domain=cars&q=red+honda+under+%249000")
	if strings.Contains(rec.Body.String(), "primary hash index lookup") {
		t.Error("plan shown without explain=1")
	}
}

// TestExplainSuperlativePlanCacheHit: a superlative answers through
// the cached plan of its own ORDER BY shape, but only the WHERE runs
// and an extreme run replaces the sort. The panel must say so, and
// asking again must report that shape as a plan-cache hit.
func TestExplainSuperlativePlanCacheHit(t *testing.T) {
	const path = "/ask?domain=cars&q=cheapest+honda+accord&explain=1"
	get(t, path)
	body := get(t, path).Body.String()
	if !strings.Contains(body, "extreme run on price ASC over the matches, no sort") {
		t.Fatalf("explain panel does not show the superlative's extreme run:\n%s", body)
	}
	if strings.Contains(body, "sort by") {
		t.Errorf("explain panel describes a sort the superlative does not run:\n%s", body)
	}
	if !strings.Contains(body, "plan cache: hit") {
		t.Error("second ask of a superlative question did not report a plan-cache hit")
	}
}

func TestHTMLEscaping(t *testing.T) {
	rec := get(t, "/ask?domain=cars&q=%3Cscript%3Ealert(1)%3C/script%3E")
	body := rec.Body.String()
	if strings.Contains(body, "<script>alert") {
		t.Error("unescaped question reflected into HTML")
	}
}

// TestConcurrentRequests exercises the handler from many goroutines
// (run with -race): the System behind it must be safe for the web
// server's concurrency.
func TestConcurrentRequests(t *testing.T) {
	paths := []string{
		"/ask?domain=cars&q=red+honda+under+%249000",
		"/ask?domain=cars&q=honda+accord+blue+less+than+15000+dollars",
		"/api/ask?domain=cars&q=cheapest+toyota",
		"/api/suggest?domain=cars&prefix=ho",
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				path := paths[(w+i)%len(paths)]
				req := httptest.NewRequest(http.MethodGet, path, nil)
				rec := httptest.NewRecorder()
				server(t).ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("%s: status %d", path, rec.Code)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
