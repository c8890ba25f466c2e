package webui

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/boolean"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/questions"
	"repro/internal/schema"
	"repro/internal/sqldb"
)

// wirePart is the ScatterPart wire form decoded with string records.
type wirePart = core.ScatterPart[map[string]string]

// wireScatter renders a live scatter part with records as strings —
// the shape the node served through json.Encoder before
// appendScatterPart, kept as that encoder's reference.
func wireScatter(p *core.ScatterResult) *wirePart {
	out := &wirePart{
		Domain:           p.Domain,
		Interpretation:   p.Interpretation,
		SQL:              p.SQL,
		MaxAnswers:       p.MaxAnswers,
		PartialsEligible: p.PartialsEligible,
		Superlative:      p.Superlative,
		Desc:             p.Desc,
		HasExtreme:       p.HasExtreme,
		Extreme:          p.Extreme,
		ExactCount:       p.ExactCount,
		Answers:          make([]core.ScatterAnswer[map[string]string], 0, len(p.Answers)),
	}
	for _, a := range p.Answers {
		rec := make(map[string]string, a.Record.Len())
		for k, v := range a.Record.All() {
			rec[k] = v.String()
		}
		out.Answers = append(out.Answers, core.ScatterAnswer[map[string]string]{
			ID:                   a.ID,
			Exact:                a.Exact,
			RankSim:              a.RankSim,
			DroppedCond:          a.DroppedCond,
			SimilarityUsed:       a.SimilarityUsed,
			Record:               rec,
			DemoteRankSim:        a.DemoteRankSim,
			DemoteDropped:        a.DemoteDropped,
			DemoteSimilarityUsed: a.DemoteSimilarityUsed,
		})
	}
	return out
}

// refEncode is the reference encoding: json.Encoder, as the handlers
// used before the append encoder.
func refEncode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

type domainQuestion struct{ domain, q string }

// workload650 generates the paper's 650-question split (80 cars, 570
// across the other seven domains) from srv's tables with the seeds
// shardtest.Workload uses for seed 42 (shardtest imports webui, so
// this package cannot call it), keeping each question's domain, plus a
// question no table can answer and superlative questions whose scatter
// parts carry demotion rankings.
func workload650(t testing.TB, srv *Server) []domainQuestion {
	t.Helper()
	const seed, carsCount, othersTotal = 42, 80, 570
	perOther := othersTotal / (len(schema.DomainNames) - 1)
	extra := othersTotal % (len(schema.DomainNames) - 1)
	var out []domainQuestion
	for i, d := range schema.DomainNames {
		n := perOther
		if d == "cars" {
			n = carsCount
		} else if i <= extra {
			n++
		}
		tbl, ok := srv.sys.DB().TableForDomain(d)
		if !ok {
			t.Fatalf("no table for %q", d)
		}
		for _, q := range questions.NewGenerator(tbl, seed+404+int64(i)).Generate(n, questions.DefaultOptions()) {
			out = append(out, domainQuestion{d, q.Text})
		}
	}
	if len(out) != carsCount+othersTotal {
		t.Fatalf("workload has %d questions, want %d", len(out), carsCount+othersTotal)
	}
	return append(out,
		domainQuestion{"cars", "zzzzqqqq"},
		domainQuestion{"cars", "cheapest red honda"},
		domainQuestion{"cars", "most expensive blue toyota"},
	)
}

func serve(srv *Server, path string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// TestEncodeMatchesReference holds the append encoder to the
// json.Encoder path byte for byte over the 650-question workload: the
// node's GET /api/ask body against BuildAPIResult, every 2- and 4-way
// scatter part against wireScatter, and the front tier's spliced merge
// (EncodeMerged over raw records) against decode-to-map → MergeScatter
// → APIResultFromScatter → encode. The merged body must also equal the
// monolith body.
func TestEncodeMatchesReference(t *testing.T) {
	srv := server(t)
	var answered, empty, demoted, superlative int
	for _, wq := range workload650(t, srv) {
		path := "/api/ask?" + url.Values{"domain": {wq.domain}, "q": {wq.q}}.Encode()
		res, err := srv.sys.AskInDomain(wq.domain, wq.q)
		if err != nil {
			t.Fatal(err)
		}
		rec := serve(srv, path, nil)
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%q: status %d, Content-Type %q", wq.q, rec.Code, rec.Header().Get("Content-Type"))
		}
		mono := rec.Body.Bytes()
		if want := refEncode(t, BuildAPIResult(res)); !bytes.Equal(mono, want) {
			t.Fatalf("%s %q: node body differs from json.Encoder\n got: %s\nwant: %s", wq.domain, wq.q, mono, want)
		}
		if len(res.Answers) == 0 {
			empty++
		} else {
			answered++
		}

		for _, count := range []uint32{2, 4} {
			raws := make([]*core.ScatterPart[json.RawMessage], count)
			maps := make([]*wirePart, count)
			for i := uint32(0); i < count; i++ {
				sl := partition.Slice{Index: i, Count: count}
				part, err := srv.sys.AskInDomainScatter(wq.domain, wq.q, sl)
				if err != nil {
					t.Fatal(err)
				}
				rec := serve(srv, path, map[string]string{ScatterHeader: sl.String()})
				if rec.Code != http.StatusOK {
					t.Fatalf("%q %s: status %d: %s", wq.q, sl, rec.Code, rec.Body)
				}
				body := rec.Body.Bytes()
				if want := refEncode(t, wireScatter(part)); !bytes.Equal(body, want) {
					t.Fatalf("%s %q %s: scatter part differs from json.Encoder\n got: %s\nwant: %s", wq.domain, wq.q, sl, body, want)
				}
				for _, a := range part.Answers {
					if a.DemoteRankSim != 0 || a.DemoteDropped != 0 || a.DemoteSimilarityUsed != "" {
						demoted++
					}
				}
				if part.Superlative {
					superlative++
				}
				raws[i], maps[i] = new(core.ScatterPart[json.RawMessage]), new(wirePart)
				if err := json.Unmarshal(body, raws[i]); err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(body, maps[i]); err != nil {
					t.Fatal(err)
				}
			}
			mergedRaw, err := core.MergeScatter(raws)
			if err != nil {
				t.Fatal(err)
			}
			mergedMap, err := core.MergeScatter(maps)
			if err != nil {
				t.Fatal(err)
			}
			got, err := EncodeMerged(mergedRaw)
			if err != nil {
				t.Fatal(err)
			}
			if want := refEncode(t, APIResultFromScatter(mergedMap)); !bytes.Equal(got, want) {
				t.Fatalf("%s %q %d-way: spliced merge differs from the map path\n got: %s\nwant: %s", wq.domain, wq.q, count, got, want)
			}
			if !bytes.Equal(got, mono) {
				t.Fatalf("%s %q %d-way: merged body differs from the monolith's\n got: %s\nwant: %s", wq.domain, wq.q, count, got, mono)
			}
		}
	}
	t.Logf("answered %d, empty %d, superlative parts %d, demotion-carrying answers %d", answered, empty, superlative, demoted)
	if answered == 0 || empty == 0 || superlative == 0 || demoted == 0 {
		t.Errorf("workload misses a case: answered %d, empty %d, superlative parts %d, demotion-carrying answers %d",
			answered, empty, superlative, demoted)
	}
}

// TestEncodeDeletedRow: an answer whose ad was deleted before the
// answer was assembled holds the zero Row, and both the append encoder
// and the json.Encoder reference write its record as {}, as they wrote
// the nil record map before answers held rows.
func TestEncodeDeletedRow(t *testing.T) {
	tbl, err := sqldb.NewTable(schema.Cars())
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range []string{"honda", "kia"} {
		if _, err := tbl.Insert(map[string]sqldb.Value{"make": sqldb.String(mk), "price": sqldb.Number(9000)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Delete(1); err != nil {
		t.Fatal(err)
	}
	res := &core.Result{
		Domain:         "cars",
		Interpretation: &boolean.Interpretation{},
		Answers: []core.Answer{
			{ID: 0, Record: tbl.Row(0), Exact: true},
			{ID: 1, Record: tbl.Row(1)},
		},
		ExactCount: 1,
	}
	got, err := appendAPIResult(nil, res, recordKeys(tbl.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	if want := refEncode(t, BuildAPIResult(res)); !bytes.Equal(got, want) {
		t.Errorf("body differs from json.Encoder\n got: %s\nwant: %s", got, want)
	}
	if !bytes.Contains(got, []byte(`"record":{}}]}`)) {
		t.Errorf("deleted row not written as {}: %s", got)
	}
}

// TestEncodeNonFinite: a float JSON cannot carry fails the encode, so
// the node answers 500 with a JSON error instead of a 200 with an
// empty body, on both the answer and the scatter path, and the front
// tier's merge encode reports an error.
func TestEncodeNonFinite(t *testing.T) {
	res := &core.Result{
		Domain:         "cars",
		Interpretation: &boolean.Interpretation{},
		Answers:        []core.Answer{{RankSim: math.NaN()}},
	}
	part := &core.ScatterResult{Domain: "cars", Superlative: true, HasExtreme: true, Extreme: math.Inf(1)}
	encoders := map[string]func([]byte) ([]byte, error){
		"answer":  func(dst []byte) ([]byte, error) { return appendAPIResult(dst, res, nil) },
		"scatter": func(dst []byte) ([]byte, error) { return appendScatterPart(dst, part, nil) },
	}
	for name, enc := range encoders {
		buf := bodyBufs.Get().(*[]byte)
		b, err := enc(*buf)
		if err == nil {
			t.Fatalf("%s: encoding a non-finite float succeeded: %s", name, b)
		}
		rec := httptest.NewRecorder()
		writeBody(rec, buf, b, err)
		if rec.Code != http.StatusInternalServerError || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s: status %d, Content-Type %q", name, rec.Code, rec.Header().Get("Content-Type"))
		}
		var out struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || !strings.Contains(out.Error, "NaN") && !strings.Contains(out.Error, "Inf") {
			t.Errorf("%s: body %q is not a JSON error naming the value (%v)", name, rec.Body, err)
		}
	}
	merged := &core.ScatterPart[json.RawMessage]{Domain: "cars", Answers: []core.ScatterAnswer[json.RawMessage]{
		{RankSim: math.Inf(-1), Record: json.RawMessage(`{}`)},
	}}
	if body, err := EncodeMerged(merged); err == nil {
		t.Errorf("EncodeMerged of a -Inf rank succeeded: %s", body)
	}
}

// FuzzAppendJSON holds appendString, appendFloat and appendValue to
// json.Marshal: same bytes, and an error exactly where json.Marshal
// rejects the value.
func FuzzAppendJSON(f *testing.F) {
	for _, s := range []string{"", "<>&", `"\`, "\b\f\n\r\t", "\x00\x01\x1f\x7f", "\u2028 \u2029", "\xff\xfe", "a\xc3", "h\u00e9llo w\u00f6rld", "U+FFFD \ufffd"} {
		f.Add(s, 0.0)
	}
	for _, x := range []float64{1e-7, 1e21, math.Copysign(0, -1), 5e-324, 0.30000000000000004, 1e20, 1e-6, -123.456, math.MaxFloat64} {
		f.Add("x", x)
	}
	f.Fuzz(func(t *testing.T, s string, x float64) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendString(%q) = %s, want %s", s, got, want)
		}
		got, gotErr := appendFloat(nil, x)
		want, wantErr := json.Marshal(x)
		if (gotErr != nil) != (wantErr != nil) || gotErr == nil && !bytes.Equal(got, want) {
			t.Errorf("appendFloat(%v) = %s, %v; want %s, %v", x, got, gotErr, want, wantErr)
		}
		for _, v := range []sqldb.Value{sqldb.String(s), sqldb.Number(x), sqldb.Null} {
			want, err := json.Marshal(v.String())
			if err != nil {
				t.Fatal(err)
			}
			if got := appendValue(nil, v); !bytes.Equal(got, want) {
				t.Errorf("appendValue(%#v) = %s, want %s", v, got, want)
			}
		}
	})
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// Allocation ceilings per encoded 30-answer GET /api/ask body (pooled
// buffer, as the handler encodes): the values measured when the append
// encoder replaced BuildAPIResult + json.Encoder (886 allocations per
// body), plus 5 %. Every remaining allocation is
// Interpretation.String's. A change that lowers the measurement lowers
// the ceiling with it; a change that raises it says why in CHANGES.md.
const (
	encodeAllocsCeiling = 9.6   // allocations per body (measured 9.1)
	encodeKBCeiling     = 0.205 // KiB allocated per body (measured 0.195)
)

// TestEncodeAllocBudget pins what encoding one 30-answer body
// allocates: records are written from the answers' row views in
// schema key order into a pooled buffer, so nothing is allocated per
// answer or per record value.
func TestEncodeAllocBudget(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector drops pooled items at random; allocation counts are not representative")
	}
	srv := server(t)
	var results []*core.Result
	for _, wq := range workload650(t, srv) {
		res, err := srv.sys.AskInDomain(wq.domain, wq.q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Answers) == core.DefaultMaxAnswers {
			results = append(results, res)
		}
		if len(results) == 16 {
			break
		}
	}
	if len(results) == 0 {
		t.Fatal("no 30-answer question in the workload")
	}
	encodeAll := func() {
		for _, res := range results {
			buf := bodyBufs.Get().(*[]byte)
			b, err := appendAPIResult(*buf, res, srv.recordKeys[res.Domain])
			if err != nil {
				t.Fatal(err)
			}
			*buf = b[:0]
			bodyBufs.Put(buf)
		}
	}
	// One P throughout, as AllocsPerRun does, so every encode draws on
	// the same per-P pool shard.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocs := testing.AllocsPerRun(10, encodeAll) / float64(len(results))

	const rounds = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		encodeAll()
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds*len(results)) / 1024

	t.Logf("per 30-answer body (%d bodies): %.1f allocations (ceiling %.1f), %.3f KiB (ceiling %.3f)",
		len(results), allocs, encodeAllocsCeiling, kb, encodeKBCeiling)
	if allocs > encodeAllocsCeiling {
		t.Errorf("%.1f allocations per body, ceiling %.1f", allocs, encodeAllocsCeiling)
	}
	if kb > encodeKBCeiling {
		t.Errorf("%.3f KiB allocated per body, ceiling %.3f", kb, encodeKBCeiling)
	}
}
