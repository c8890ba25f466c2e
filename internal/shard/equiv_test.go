package shard_test

// HTTP-level cross-topology equivalence: a monolith cqadsweb node and
// sharded clusters (8-shard and 2-shard) behind the front tier must
// serve byte-identical /api/ask responses for the
// 650-question workload; killing one shard degrades only that shard's
// domains. This is the wire-level twin of
// internal/core/shardequiv_test.go — both build their topologies with
// internal/shard/shardtest.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/adsgen"
	"repro/internal/schema"
	"repro/internal/shard/shardtest"
	"repro/internal/sqldb"
	"repro/internal/webui"
)

const equivAds = 100

// get fetches one URL and returns status + body.
func get(t *testing.T, rawurl string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(rawurl)
	if err != nil {
		t.Fatalf("GET %s: %v", rawurl, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func askURL(base, q string) string {
	return base + "/api/ask?" + url.Values{"q": {q}}.Encode()
}

// TestClusterEquivalence drives the 650-question workload through the
// monolith's API and through the front tier of an 8-shard and a
// 2-shard cluster, requiring byte-identical responses.
func TestClusterEquivalence(t *testing.T) {
	opts := shardtest.Options(equivAds)
	mono := shardtest.OpenMonolith(t, opts)
	monoSrv := httptest.NewServer(webui.NewServer(mono))
	defer monoSrv.Close()
	qc := shardtest.NewClassifier(t, opts)
	workload := shardtest.Workload(t, opts, mono)

	monoAsk := make([][]byte, len(workload))
	for i, q := range workload {
		status, body := get(t, askURL(monoSrv.URL, q))
		if status != http.StatusOK {
			t.Fatalf("monolith answered %d for %q: %s", status, q, body)
		}
		monoAsk[i] = body
	}

	for _, topo := range []struct {
		name   string
		groups [][]string
	}{
		{"8shard", shardtest.Groups8()},
		{"2shard", shardtest.Groups2()},
	} {
		t.Run(topo.name, func(t *testing.T) {
			cluster := shardtest.StartCluster(t, opts, topo.groups, qc)
			for i, q := range workload {
				status, body := get(t, askURL(cluster.Front.URL, q))
				if status != http.StatusOK {
					t.Fatalf("front tier answered %d for %q: %s", status, q, body)
				}
				if !bytes.Equal(body, monoAsk[i]) {
					t.Errorf("ask bytes diverge on %q\n got: %s\nwant: %s", q, body, monoAsk[i])
				}
			}
		})
	}
}

// TestClusterDegradedMode kills one shard of an 8-shard cluster and
// asserts only its domain degrades: its questions answer the
// empty-answers error envelope while every other domain still answers
// byte-identically to the monolith, and the cluster health rolls up
// as degraded.
func TestClusterDegradedMode(t *testing.T) {
	opts := shardtest.Options(40)
	mono := shardtest.OpenMonolith(t, opts)
	monoSrv := httptest.NewServer(webui.NewServer(mono))
	defer monoSrv.Close()
	qc := shardtest.NewClassifier(t, opts)
	cluster := shardtest.StartCluster(t, opts, shardtest.Groups8(), qc)

	// A question per domain bucket: one that classifies to cars (the
	// shard we will kill) and one that does not.
	carsQ, otherQ, otherD := "", "", ""
	for _, q := range shardtest.Workload(t, opts, mono) {
		d, err := qc.ClassifyQuestion(q)
		if err != nil {
			continue
		}
		if d == "cars" && carsQ == "" {
			carsQ = q
		}
		if d != "cars" && otherQ == "" {
			otherQ, otherD = q, d
		}
		if carsQ != "" && otherQ != "" {
			break
		}
	}
	if carsQ == "" || otherQ == "" {
		t.Fatal("workload produced no usable cars/non-cars questions")
	}

	carsShard := -1
	for i, group := range cluster.Groups {
		if group[0] == "cars" {
			carsShard = i
		}
	}
	cluster.KillShard(carsShard)

	// The dead shard's domain: empty answers, error surfaced, 502.
	status, body := get(t, askURL(cluster.Front.URL, carsQ))
	if status != http.StatusBadGateway {
		t.Fatalf("dead-shard question answered %d: %s", status, body)
	}
	var env struct {
		Domain  string            `json:"domain"`
		Answers []json.RawMessage `json:"answers"`
		Error   string            `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("degraded envelope is not JSON: %s", body)
	}
	if env.Domain != "cars" || len(env.Answers) != 0 || env.Error == "" {
		t.Fatalf("degraded envelope = %s", body)
	}

	// Every other domain: unaffected, still byte-identical.
	_, monoBody := get(t, askURL(monoSrv.URL, otherQ))
	status, body = get(t, askURL(cluster.Front.URL, otherQ))
	if status != http.StatusOK || !bytes.Equal(body, monoBody) {
		t.Fatalf("%s question degraded too: %d %s", otherD, status, body)
	}

	// Health rollup: degraded, not down.
	status, body = get(t, cluster.Front.URL+"/healthz")
	if status != http.StatusOK || !strings.Contains(string(body), `"state":"degraded"`) {
		t.Fatalf("cluster health = %d %s", status, body)
	}
	status, body = get(t, cluster.Front.URL+"/api/status")
	if status != http.StatusOK || !strings.Contains(string(body), `"shards_reachable":7`) {
		t.Fatalf("cluster status = %d %s", status, body)
	}
}

// adRecord renders a generated ad as the JSON record POST /api/ads
// accepts.
func adRecord(ad map[string]sqldb.Value) map[string]any {
	rec := make(map[string]any, len(ad))
	for col, v := range ad {
		if v.IsNull() {
			rec[col] = nil
			continue
		}
		rec[col] = v.String()
	}
	return rec
}

// TestIngestThroughRouterWhileBatchAsking is the acceptance race: ads
// flow through the front tier's ingest fan-out while readers' questions
// route across the shards, under -race via CI. Afterwards every
// ingested ad must be live on its owning shard.
func TestIngestThroughRouterWhileBatchAsking(t *testing.T) {
	opts := shardtest.Options(50)
	qc := shardtest.NewClassifier(t, opts)
	cluster := shardtest.StartCluster(t, opts, shardtest.Groups2(), qc)
	mono := shardtest.OpenMonolith(t, opts)
	workload := shardtest.Workload(t, opts, mono)[:40]

	const (
		writers   = 4
		adsPer    = 12
		askRounds = 6
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers+2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := adsgen.NewGenerator(int64(1000 + w))
			for i := 0; i < adsPer; i++ {
				domain := schema.DomainNames[(w+i)%len(schema.DomainNames)]
				ad := gen.Generate(schema.ByName(domain), 1)[0]
				body, err := json.Marshal(map[string]any{"domain": domain, "record": adRecord(ad)})
				if err != nil {
					errs <- err
					return
				}
				resp, err := http.Post(cluster.Front.URL+"/api/ads", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				respBody, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusCreated {
					errs <- fmt.Errorf("ingest %s answered %d: %s", domain, resp.StatusCode, respBody)
					return
				}
			}
		}(w)
	}
	for reader := 0; reader < 2; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < askRounds; i++ {
				for _, q := range workload {
					resp, err := http.Get(askURL(cluster.Front.URL, q))
					if err != nil {
						errs <- err
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("ask %q answered %d: %s", q, resp.StatusCode, body)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every ingested ad landed on its owning shard: live counts grew
	// by exactly the ingested totals.
	perDomain := make(map[string]int)
	for w := 0; w < writers; w++ {
		for i := 0; i < adsPer; i++ {
			perDomain[schema.DomainNames[(w+i)%len(schema.DomainNames)]]++
		}
	}
	_, statusBody := get(t, cluster.Front.URL+"/api/status")
	var cs struct {
		Shards []struct {
			Status struct {
				Domains []struct {
					Domain string `json:"domain"`
					Live   int    `json:"live"`
				} `json:"domains"`
			} `json:"status"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(statusBody, &cs); err != nil {
		t.Fatalf("cluster status: %v: %s", err, statusBody)
	}
	live := make(map[string]int)
	for _, sh := range cs.Shards {
		for _, d := range sh.Status.Domains {
			live[d.Domain] = d.Live
		}
	}
	for d, n := range perDomain {
		if want := opts.AdsPerDomain + n; live[d] != want {
			t.Errorf("domain %q live = %d, want %d (%d ingested)", d, live[d], want, n)
		}
	}
}
