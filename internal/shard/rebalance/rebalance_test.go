package rebalance_test

// The churn equivalence harness for live rebalancing: a 2-way
// hash-split cars cluster keeps serving pinned ingest and scattered
// questions while the coordinator splits h1/2 and moves h3/4 to
// a freshly attached follower. Zero queries may drop, every
// acknowledged write must survive, and afterwards the cluster must
// answer the cars workload byte-identically to a never-rebalanced
// monolith that ingested the same acknowledged ads — and again once
// the promoted target has crashed and restarted from its own
// directory.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/cqads"
	"repro/internal/adsgen"
	"repro/internal/partition"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/shard/rebalance"
	"repro/internal/shard/shardtest"
	"repro/internal/sqldb"
	"repro/internal/webui"
)

func TestLiveRebalanceUnderChurn(t *testing.T) {
	opts := shardtest.Options(40)
	opts.DataDir = t.TempDir() // partitions must serve snapshot + WAL
	qc := shardtest.NewClassifier(t, opts)
	cluster := shardtest.StartPartitionCluster(t, opts, "cars", 2, qc,
		func(rt *shard.Router) shard.Rebalancer { return rebalance.New(rt, nil) })
	sourceSys := cluster.Parts[1]
	sourceSrv := cluster.PartServers[1]

	// The rebalance target: a durable follower of the h1/2 source that
	// starts from the source's h3/4 snapshot section and keeps that
	// slice, tailing the source's WAL live, fronted by a webui that can
	// be promoted.
	fopts := opts
	fopts.Domains = []string{"cars"}
	fopts.Partitions = 4
	fopts.PartitionIndex = 3
	follower := shardtest.StartFollower(t, fopts, sourceSrv.URL)
	follower.Tail.Start()
	targetSrv := follower.Server

	// The monolith helpers must not share the cluster's DataDir: the
	// workload generator and the never-rebalanced reference both run in
	// memory.
	memOpts := opts
	memOpts.DataDir = ""

	// Cars questions for the churn readers.
	var carsQs []string
	for _, q := range shardtest.Workload(t, memOpts, shardtest.OpenMonolith(t, memOpts)) {
		if d, err := qc.ClassifyQuestion(q); err == nil && d == "cars" {
			carsQs = append(carsQs, q)
		}
		if len(carsQs) == 8 {
			break
		}
	}
	if len(carsQs) == 0 {
		t.Fatal("workload produced no cars questions")
	}

	// Churn: one writer streams pinned cars ads through the front
	// tier's fan-out, two readers stream GET /api/ask questions through
	// the scatter path. Every acknowledgement and every query outcome is
	// recorded; nothing may fail at any point of the move.
	gen := adsgen.NewGenerator(9009)
	ads := gen.Generate(schema.ByName("cars"), 400)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var ackedMu sync.Mutex
	var acked []uint64
	ackedInSlice := func(sl partition.Slice) int {
		ackedMu.Lock()
		defer ackedMu.Unlock()
		n := 0
		for _, id := range acked {
			if sl.ContainsKey(id) {
				n++
			}
		}
		return n
	}
	var queries, churnErrs atomic.Int64
	errCh := make(chan error, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, ad := range ads {
			select {
			case <-stop:
				return
			default:
			}
			id := uint64(2_000_000 + i)
			body, err := json.Marshal(map[string]any{"domain": "cars", "record": shardtest.AdRecord(ad)})
			if err != nil {
				churnErrs.Add(1)
				errCh <- err
				return
			}
			if err := shardtest.PinnedPost(cluster.Front.URL, id, body); err != nil {
				churnErrs.Add(1)
				errCh <- err
				return
			}
			ackedMu.Lock()
			acked = append(acked, id)
			ackedMu.Unlock()
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, q := range carsQs {
					resp, err := http.Get(cluster.Front.URL + "/api/ask?q=" + url.QueryEscape(q))
					if err != nil {
						churnErrs.Add(1)
						errCh <- err
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					var out struct {
						Error string `json:"error"`
					}
					if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &out) != nil || out.Error != "" {
						churnErrs.Add(1)
						errCh <- fmt.Errorf("query dropped during churn: %d: %s", resp.StatusCode, body)
						return
					}
					queries.Add(1)
				}
			}
		}()
	}

	// Let churn establish, then start the move through the public API.
	time.Sleep(100 * time.Millisecond)
	moveReq, _ := json.Marshal(map[string]string{
		"domain": "cars", "source": "h1/2",
		"target_url": targetSrv.URL, "target_slice": "h3/4",
	})
	resp, err := http.Post(cluster.Front.URL+"/api/rebalance", "application/json", bytes.NewReader(moveReq))
	if err != nil {
		t.Fatal(err)
	}
	startBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /api/rebalance answered %d: %s", resp.StatusCode, startBody)
	}

	// The move's progress is observable in /api/status while it runs;
	// poll it to completion.
	type rebStatus struct {
		Rebalance struct {
			Active   bool `json:"active"`
			Progress struct {
				Step  string `json:"step"`
				Error string `json:"error"`
			} `json:"progress"`
		} `json:"rebalance"`
	}
	deadline := time.Now().Add(60 * time.Second)
	var st rebStatus
	stepsSeen := map[string]bool{}
	for {
		if time.Now().After(deadline) {
			t.Fatalf("rebalance did not finish; last status %+v", st)
		}
		resp, err := http.Get(cluster.Front.URL + "/api/status")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("cluster status: %v: %s", err, body)
		}
		stepsSeen[st.Rebalance.Progress.Step] = true
		if !st.Rebalance.Active && st.Rebalance.Progress.Step != "" && st.Rebalance.Progress.Step != "idle" {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.Rebalance.Progress.Step != "done" {
		t.Fatalf("rebalance ended in %q: %s", st.Rebalance.Progress.Step, st.Rebalance.Progress.Error)
	}

	// Keep churning on the new topology until writes have landed in
	// the moved slice — those route to the promoted target now.
	moved := partition.Slice{Index: 3, Count: 4}
	for ackedInSlice(moved) < 4 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if churnErrs.Load() != 0 {
		t.Fatalf("%d churn operations failed across the move", churnErrs.Load())
	}
	if queries.Load() == 0 {
		t.Fatal("the readers never completed a query — the harness measured nothing")
	}
	t.Logf("churn served %d queries and acked %d writes across the move; steps %v",
		queries.Load(), len(acked), stepsSeen)

	// The router map cut over: cars is now h0/2 + h1/4 + h3/4.
	parts, ok := cluster.Router.Partitions("cars")
	if !ok || len(parts) != 3 {
		t.Fatalf("post-move partition map has %d groups: %+v", len(parts), parts)
	}
	wantSlices := map[partition.Slice]bool{
		{Index: 0, Count: 2}: true, {Index: 1, Count: 4}: true, {Index: 3, Count: 4}: true,
	}
	for _, g := range parts {
		if !wantSlices[g.Slice] {
			t.Fatalf("unexpected post-move slice %s", g.Slice)
		}
		delete(wantSlices, g.Slice)
	}

	// Acked writes in the moved slice landed on the target; the source
	// retired to h1/4 and holds none of them.
	movedAcked := assertHoldsMoved(t, follower.Sys, acked, moved)
	retained := partition.Slice{Index: 1, Count: 4}
	if movedAcked == 0 {
		t.Error("no acked write hashed into the moved slice — the churn never exercised the move")
	}
	if got := sourceSys.PartitionSlice(); got != retained {
		t.Fatalf("source hosts %s after the move, want retirement to %s", got, retained)
	}

	// Equivalence: a never-rebalanced monolith that ingests the same
	// acked ads answers the full cars workload byte-identically to the
	// post-move cluster.
	mono := shardtest.OpenMonolith(t, memOpts)
	monoSrv := httptest.NewServer(webui.NewServer(mono))
	defer monoSrv.Close()
	for i, id := range acked {
		body, err := json.Marshal(map[string]any{"domain": "cars", "record": shardtest.AdRecord(ads[i])})
		if err != nil {
			t.Fatal(err)
		}
		if err := shardtest.PinnedPost(monoSrv.URL, id, body); err != nil {
			t.Fatalf("reference ingest: %v", err)
		}
	}
	reference := shardtest.AskBodies(t, monoSrv.URL, carsQs)
	shardtest.AssertSameBodies(t, "post-move cluster vs never-rebalanced reference",
		carsQs, reference, cluster.Front.URL)

	// The promoted target is now the only copy of the moved slice: the
	// source retired those rows. Abandon it without Close, as a crash
	// would: the churn has stopped and a StartFollower node never
	// compacts in the background, so the abandoned System writes its
	// directory no more, and reads do not write. Reopen the directory as
	// a plain durable h3/4 partition, with the source not consulted.
	// Every acked write of the slice is still there, and the cluster
	// still answers as the reference does.
	reopened, err := cqads.Open(follower.Opts)
	if err != nil {
		t.Fatalf("reopening the promoted target from its directory: %v", err)
	}
	follower.Sys = reopened // closed by the follower's cleanup
	follower.Serve(webui.NewServer(reopened))
	if got := assertHoldsMoved(t, reopened, acked, moved); got != movedAcked {
		t.Errorf("the reopened target holds %d acked writes of %s, want %d", got, moved, movedAcked)
	}
	shardtest.AssertSameBodies(t, "restarted target vs never-rebalanced reference",
		carsQs, reference, cluster.Front.URL)
}

// assertHoldsMoved fails t for each id of acked in the moved slice
// that sys does not hold, and returns how many ids of acked the slice
// has.
func assertHoldsMoved(t *testing.T, sys *cqads.System, acked []uint64, moved partition.Slice) int {
	t.Helper()
	tbl, ok := sys.DB().TableForDomain("cars")
	if !ok {
		t.Fatal("target hosts no cars table")
	}
	n := 0
	for _, id := range acked {
		if moved.ContainsKey(id) {
			n++
			if tbl.Row(sqldb.RowID(id)).IsZero() {
				t.Errorf("acked write %d (slice %s) is missing from the target", id, moved)
			}
		}
	}
	return n
}
