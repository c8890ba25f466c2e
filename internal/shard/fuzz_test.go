package shard_test

// Fuzzing the two surfaces adversarial input reaches first: the
// -shards flag parser, and the router's question→domain routing (a
// real trained classifier plus broadcast-and-merge fallback — the
// router must route or degrade, never panic).

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/cqads"
	"repro/internal/shard"
)

func newLoopbackListener() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

func FuzzParseMap(f *testing.F) {
	f.Add("cars=http://a:8080")
	f.Add("cars=http://a,motorcycles=http://a,csjobs=http://b")
	f.Add("cars=http://a,")
	f.Add(" cars = http://a/ , jewellery = https://b:9090 ")
	f.Add("")
	f.Add(",")
	f.Add("=")
	f.Add("cars=")
	f.Add("=http://a")
	f.Add("cars=http://a,cars=http://b")
	f.Add("cars=ftp://a")
	f.Add("cars=http://")
	f.Add("cars=://nope")
	f.Add("cars=http://a=b=c")
	f.Add("汽车=http://a")
	f.Add("cars=http://[::1]:8080")
	f.Add(strings.Repeat("cars=http://a,", 100))
	f.Add("cars=http://a\x00b")
	f.Add("cars=http://a1|http://a2|http://a3")
	f.Add("cars=http://a|http://a")
	f.Add("cars=http://a|")
	f.Add("cars=|")
	f.Add("cars=http://a|http://b,csjobs=http://a|http://b")
	f.Add("cars=h0:http://a,h1:http://b")
	f.Add("cars=h0:http://a,h1:http://b,h2:http://c,h3:http://d")
	f.Add("cars=h0:http://a|http://b,h1:http://c|http://d,csjobs=http://e")
	f.Add("cars=h0:http://a,h0:http://b")
	f.Add("cars=h0:http://a,h2:http://b")
	f.Add("cars=h1:http://a,h0:http://b")
	f.Add("cars=h0:http://a,h1:http://b,h2:http://c")
	f.Add("cars=h0:http://a")
	f.Add("h0:http://a")
	f.Add("cars=http://a,h1:http://b")
	f.Add("cars=h:http://a")
	f.Add("cars=hx:http://a")
	f.Add("cars=h-1:http://a,h0:http://b")
	f.Add("cars=h99999999999999999999:http://a")
	f.Add("cars=h0:,h1:http://b")
	f.Add("cars=h0:http://a,h1:http://b,cars=h0:http://c")
	f.Fuzz(func(t *testing.T, s string) {
		m, err := shard.ParseMap(s)
		if err != nil {
			if m != nil {
				t.Fatal("error with non-nil map")
			}
			return
		}
		if len(m) == 0 {
			t.Fatal("nil error with empty map")
		}
		for domain, groups := range m {
			if strings.TrimSpace(domain) == "" {
				t.Fatalf("empty domain key in %#v", m)
			}
			if len(groups) == 0 {
				t.Fatalf("domain %q accepted with no groups", domain)
			}
			// Either one whole-space group (plain form, zero Slice) or a
			// set of hash groups whose slices tile the space exactly.
			if len(groups) == 1 && groups[0].Slice.Count == 0 {
				// plain form
			} else {
				count := groups[0].Slice.Count
				if count&(count-1) != 0 || int(count) != len(groups) {
					t.Fatalf("domain %q: %d groups under partition count %d", domain, len(groups), count)
				}
				for i, g := range groups {
					if err := g.Slice.Validate(); err != nil {
						t.Fatalf("domain %q group %d has invalid slice: %v", domain, i, err)
					}
					if g.Slice.Count != count {
						t.Fatalf("domain %q mixes partition counts %d and %d", domain, count, g.Slice.Count)
					}
					if g.Slice.Index != uint32(i) {
						t.Fatalf("domain %q groups not sorted/tiling: slot %d at position %d", domain, g.Slice.Index, i)
					}
				}
			}
			for gi, g := range groups {
				if len(g.Members) == 0 {
					t.Fatalf("domain %q group %d accepted with no members", domain, gi)
				}
				seen := map[string]bool{}
				for _, base := range g.Members {
					u, err := url.Parse(base)
					if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
						t.Fatalf("accepted URL %q does not round-trip as absolute http(s)", base)
					}
					if strings.HasSuffix(base, "/") {
						t.Fatalf("accepted URL %q keeps its trailing slash", base)
					}
					if seen[base] {
						t.Fatalf("group for %q lists %q twice", domain, base)
					}
					seen[base] = true
				}
			}
		}
	})
}

// fuzzRouter builds one real router lazily: a trained classifier over
// a small deterministic environment, fronting two stub shards that
// answer every question with canned JSON (the fuzz target is routing,
// not answering).
var fuzzRouter = sync.OnceValues(func() (*shard.Router, error) {
	qc, err := cqads.NewQuestionClassifier(cqads.Options{Seed: 42, AdsPerDomain: 40})
	if err != nil {
		return nil, err
	}
	stub := func(domain string) *http.ServeMux {
		mux := http.NewServeMux()
		mux.HandleFunc("/api/ask", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"domain":"` + domain + `","exact_count":0,"answers":[]}`))
		})
		return mux
	}
	// Plain http.Server on loopback via httptest would tie the stubs'
	// lifetime to one test; package-scoped stubs are fine for fuzzing
	// (the process dies with them).
	srvA := &http.Server{Handler: stub("a")}
	srvB := &http.Server{Handler: stub("b")}
	lnA, err := newLoopbackListener()
	if err != nil {
		return nil, err
	}
	lnB, err := newLoopbackListener()
	if err != nil {
		return nil, err
	}
	go func() { _ = srvA.Serve(lnA) }()
	go func() { _ = srvB.Serve(lnB) }()
	m := shard.Map{}
	domains := []string{"cars", "motorcycles", "clothing", "csjobs", "furniture", "foodcoupons", "instruments", "jewellery"}
	for i, d := range domains {
		base := "http://" + lnB.Addr().String()
		if i%2 == 0 {
			base = "http://" + lnA.Addr().String()
		}
		m[d] = []shard.Group{{Members: []string{base}}}
	}
	return shard.New(shard.Config{
		Map:        m,
		Classifier: qc,
		Client:     &http.Client{Timeout: 2 * time.Second},
	})
})

func FuzzRouteQuestion(f *testing.F) {
	f.Add("cheapest honda civic")
	f.Add("gold necklace with diamond under 2000 dollars")
	f.Add("")
	f.Add("   ")
	f.Add("the of and a an") // pure stopwords: unclassifiable
	f.Add("zzzzqqqq xyzzy plugh")
	f.Add("SELECT * FROM ads; DROP TABLE ads")
	f.Add("汽车 本田 思域 最便宜")
	f.Add("café škoda naïve")
	f.Add(strings.Repeat("honda ", 2000))
	f.Add("\x00\x01\x02\xff")
	f.Add("a=b&c=d%20%%%")
	f.Fuzz(func(t *testing.T, q string) {
		rt, err := fuzzRouter()
		if err != nil {
			t.Skipf("building fuzz router: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		p, err := rt.Ask(ctx, "", q)
		if err != nil {
			// Degradation must be typed, never a panic and never nil
			// results with nil error.
			var re *shard.RouteError
			if !errors.As(err, &re) {
				t.Fatalf("Ask(%q) error is not a *RouteError: %v", q, err)
			}
			return
		}
		if p == nil || p.Status != http.StatusOK || len(p.Body) == 0 {
			t.Fatalf("Ask(%q) returned a degenerate answer: %+v", q, p)
		}
	})
}
