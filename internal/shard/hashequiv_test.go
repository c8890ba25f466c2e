package shard_test

// HTTP-level hash-partition equivalence: splitting ONE domain's rows
// by ad-key hash across 2 or 4 partition shards must be invisible at
// the wire. The front tier scatters cars questions to every partition
// and merges the ranked fragments; the merged /api/ask responses
// must be byte-identical to a monolith
// serving the same corpus — and stay byte-identical after the same
// pinned ads are ingested into both topologies through their public
// ingest endpoints (the fan-out path on the cluster, plain POST on
// the monolith).

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"repro/internal/adsgen"
	"repro/internal/schema"
	"repro/internal/shard/shardtest"
	"repro/internal/webui"
)

// TestHashPartitionEquivalence drives the 650-question workload
// through a monolith and through front tiers over a 2-way and a 4-way
// hash split of cars, requiring byte-identical responses before and
// after a round of pinned ingest.
func TestHashPartitionEquivalence(t *testing.T) {
	opts := shardtest.Options(equivAds)
	mono := shardtest.OpenMonolith(t, opts)
	monoSrv := httptest.NewServer(webui.NewServer(mono))
	defer monoSrv.Close()
	qc := shardtest.NewClassifier(t, opts)
	workload := shardtest.Workload(t, opts, mono)

	// A deterministic batch of cars ads, pinned to ids far above the
	// generated corpus so both topologies create identical rows.
	gen := adsgen.NewGenerator(7007)
	ads := gen.Generate(schema.ByName("cars"), 12)
	type pinned struct {
		id   uint64
		body []byte
	}
	var ingest []pinned
	for i, ad := range ads {
		body, err := json.Marshal(map[string]any{"domain": "cars", "record": shardtest.AdRecord(ad)})
		if err != nil {
			t.Fatal(err)
		}
		ingest = append(ingest, pinned{id: uint64(1_000_000 + i), body: body})
	}

	pinIngest := func(t *testing.T, base string) {
		t.Helper()
		for _, p := range ingest {
			if err := shardtest.PinnedPost(base, p.id, p.body); err != nil {
				t.Fatal(err)
			}
		}
	}

	monoAsk := shardtest.AskBodies(t, monoSrv.URL, workload)
	pinIngest(t, monoSrv.URL)
	monoAskAfter := shardtest.AskBodies(t, monoSrv.URL, workload)

	for _, count := range []uint32{2, 4} {
		t.Run(fmt.Sprintf("%dway", count), func(t *testing.T) {
			cluster := shardtest.StartPartitionCluster(t, opts, "cars", count, qc, nil)
			shardtest.AssertSameBodies(t, "front tier", workload, monoAsk, cluster.Front.URL)
			if count == 2 {
				concurrentFrontPass(t, cluster.Front.URL, workload, monoAsk)
			}

			// Pinned ingest through the fan-out, then re-compare: each ad
			// must land on exactly the partition owning its key hash, and
			// the merged answers must still match the monolith byte for
			// byte.
			pinIngest(t, cluster.Front.URL)
			shardtest.AssertSameBodies(t, "post-ingest", workload, monoAskAfter, cluster.Front.URL)

			// The cluster latency rollup merged every partition's raw
			// histograms: all count+1 shards contribute, and the merged
			// ask count covers at least one leg per question served.
			status, statusBody := get(t, cluster.Front.URL+"/api/status")
			if status != http.StatusOK {
				t.Fatalf("cluster status answered %d", status)
			}
			var cs struct {
				ClusterLatency struct {
					Shards int `json:"shards"`
					Ask    struct {
						Count int64 `json:"count"`
					} `json:"ask"`
				} `json:"cluster_latency"`
			}
			if err := json.Unmarshal(statusBody, &cs); err != nil {
				t.Fatalf("cluster status: %v", err)
			}
			if cs.ClusterLatency.Shards != int(count)+1 {
				t.Errorf("cluster_latency merged %d shards, want %d", cs.ClusterLatency.Shards, count+1)
			}
			if cs.ClusterLatency.Ask.Count < int64(2*len(workload)) {
				t.Errorf("cluster_latency ask count = %d, want at least %d", cs.ClusterLatency.Ask.Count, 2*len(workload))
			}

			// The split is real: every partition holds a strict subset and
			// the slice sizes sum to the monolith's cars table.
			total := 0
			for i, sys := range cluster.Parts {
				tbl, ok := sys.DB().TableForDomain("cars")
				if !ok {
					t.Fatalf("partition %d hosts no cars table", i)
				}
				if tbl.Len() == 0 {
					t.Errorf("partition %d is empty — the hash split did nothing", i)
				}
				total += tbl.Len()
			}
			monoTbl, _ := mono.DB().TableForDomain("cars")
			if total != monoTbl.Len() {
				t.Errorf("partitions hold %d cars rows, monolith holds %d", total, monoTbl.Len())
			}
		})
	}
}

// concurrentFrontPass asks the workload through the front tier from 4
// goroutines, twice each and each from its own starting question, with
// every body byte-equal to the monolith's: the concurrent read path
// (pooled scratch, read views, scatter legs in flight together) must
// answer as a lone request does.
func concurrentFrontPass(t *testing.T, front string, workload []string, want [][]byte) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		k := w * len(workload) / 4
		qs := append(slices.Clone(workload[k:]), workload[:k]...)
		ws := append(slices.Clone(want[k:]), want[:k]...)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 2; pass++ {
				shardtest.AssertSameBodies(t, fmt.Sprintf("worker %d pass %d", w, pass), qs, ws, front)
			}
		}()
	}
	wg.Wait()
}
