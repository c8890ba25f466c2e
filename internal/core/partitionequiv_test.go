package core_test

// Hash-partition equivalence at the core API level: a monolith and 2-
// and 4-way hash partitions of the "cars" domain, built from the same
// cqads.Options, must answer every cars question of the 650-question
// workload bit-identically — AskInDomain on the monolith versus
// AskInDomainScatter on every partition folded through MergeScatter.
// This is the process-free half of the tentpole harness; the HTTP-byte
// half lives in internal/shard.

import (
	"encoding/json"
	"errors"
	"testing"

	"repro/cqads"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/schema"
	"repro/internal/shard/shardtest"
	"repro/internal/sqldb"
)

// scatterKey renders a merged scatter part in exactly resultKey's
// shape, so a merged answer and a monolith Result compare bit-for-bit.
func scatterKey(t *testing.T, res *core.ScatterResult) string {
	t.Helper()
	type answerKey struct {
		ID             sqldb.RowID
		Exact          bool
		RankSim        float64
		DroppedCond    int
		SimilarityUsed string
		Record         map[string]string
	}
	key := struct {
		Domain         string
		Interpretation string
		SQL            string
		ExactCount     int
		Answers        []answerKey
	}{
		Domain:         res.Domain,
		Interpretation: res.Interpretation,
		SQL:            res.SQL,
		ExactCount:     res.ExactCount,
		Answers:        []answerKey{},
	}
	for _, a := range res.Answers {
		rec := make(map[string]string, a.Record.Len())
		for k, v := range a.Record.All() {
			rec[k] = v.String()
		}
		key.Answers = append(key.Answers, answerKey{
			ID: sqldb.RowID(a.ID), Exact: a.Exact, RankSim: a.RankSim,
			DroppedCond: a.DroppedCond, SimilarityUsed: a.SimilarityUsed,
			Record: rec,
		})
	}
	b, err := json.Marshal(key)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestHashPartitionEquivalence(t *testing.T) {
	opts := shardtest.Options(equivAds)
	mono := shardtest.OpenMonolith(t, opts)
	qc := shardtest.NewClassifier(t, opts)
	workload := shardtest.Workload(t, opts, mono)

	var carsQs []string
	for _, q := range workload {
		d, err := qc.ClassifyQuestion(q)
		if err != nil {
			t.Fatalf("classifying %q: %v", q, err)
		}
		if d == "cars" {
			carsQs = append(carsQs, q)
		}
	}
	if len(carsQs) < 50 {
		t.Fatalf("only %d cars questions in the workload; the harness needs a real sample", len(carsQs))
	}

	monoTbl, _ := mono.DB().TableForDomain("cars")
	for _, count := range []uint32{2, 4} {
		parts := shardtest.OpenPartitionSystems(t, opts, "cars", count)

		// The partitions must hold a disjoint cover of the monolith's
		// rows — every monolith ad on exactly one partition.
		owners := make(map[sqldb.RowID]int)
		for pi, p := range parts {
			tbl, _ := p.DB().TableForDomain("cars")
			if tbl.Slots() != monoTbl.Slots() {
				t.Fatalf("%d-way partition %d has %d slots, monolith %d", count, pi, tbl.Slots(), monoTbl.Slots())
			}
			for _, id := range tbl.AllRowIDs() {
				if prev, dup := owners[id]; dup {
					t.Fatalf("%d-way: ad %d lives on partitions %d and %d", count, id, prev, pi)
				}
				owners[id] = pi
			}
		}
		if len(owners) != monoTbl.Len() {
			t.Fatalf("%d-way partitions hold %d ads, monolith holds %d", count, len(owners), monoTbl.Len())
		}

		for _, q := range carsQs {
			want, err := mono.AskInDomain("cars", q)
			if err != nil {
				t.Fatalf("monolith: %q: %v", q, err)
			}
			scattered := make([]*core.ScatterResult, len(parts))
			for pi, p := range parts {
				sp, err := p.AskInDomainScatter("cars", q, p.PartitionSlice())
				if err != nil {
					t.Fatalf("%d-way partition %d: %q: %v", count, pi, q, err)
				}
				scattered[pi] = sp
			}
			merged, err := core.MergeScatter(scattered)
			if err != nil {
				t.Fatalf("%d-way merge: %q: %v", count, q, err)
			}
			if got, wantKey := scatterKey(t, merged), resultKey(t, want); got != wantKey {
				t.Fatalf("%d-way: answer diverges on %q\n got: %s\nwant: %s", count, q, got, wantKey)
			}
			// The merge must be order-independent: reversed arrival gives
			// the identical answer, tie-breaks included.
			reversed := make([]*core.ScatterResult, len(scattered))
			for pi := range scattered {
				reversed[len(scattered)-1-pi] = scattered[pi]
			}
			remerged, err := core.MergeScatter(reversed)
			if err != nil {
				t.Fatal(err)
			}
			if scatterKey(t, remerged) != scatterKey(t, merged) {
				t.Fatalf("%d-way: merge is arrival-order dependent on %q", count, q)
			}
		}
	}
}

// TestMonolithScatterOverSubSlices drives AskInDomainScatter's slice
// filter, which partitions asked for their own slice never reach: a
// node asked for a narrower slice than it hosts (a rebalance source
// during cutover) must answer from that slice's rows only, the
// superlative's extreme run included. Scattering the monolith over
// the whole slice (one part: AskInDomainScatter must agree with
// AskInDomain) and over every 2- and 4-way slice, then merging, must
// give AskInDomain's answer on every workload question, each asked in
// the domain the classifier routes it to.
func TestMonolithScatterOverSubSlices(t *testing.T) {
	opts := shardtest.Options(equivAds)
	mono := shardtest.OpenMonolith(t, opts)
	qc := shardtest.NewClassifier(t, opts)
	superlative, plain := 0, 0
	domains := map[string]bool{}
	for _, q := range shardtest.Workload(t, opts, mono) {
		d, err := qc.ClassifyQuestion(q)
		if err != nil {
			t.Fatalf("classifying %q: %v", q, err)
		}
		domains[d] = true
		want, err := mono.AskInDomain(d, q)
		if err != nil {
			t.Fatalf("monolith: %s %q: %v", d, q, err)
		}
		if want.Interpretation.Superlative != nil {
			superlative++
		} else {
			plain++
		}
		for _, count := range []uint32{1, 2, 4} {
			parts := make([]*core.ScatterResult, count)
			for i := range count {
				if parts[i], err = mono.AskInDomainScatter(d, q, partition.Slice{Index: i, Count: count}); err != nil {
					t.Fatalf("%s %q over h%d/%d: %v", d, q, i, count, err)
				}
			}
			merged, err := core.MergeScatter(parts)
			if err != nil {
				t.Fatalf("%d-way merge: %s %q: %v", count, d, q, err)
			}
			if got, wantKey := scatterKey(t, merged), resultKey(t, want); got != wantKey {
				t.Fatalf("%d-way sub-slices of the monolith: answer diverges on %s %q\n got: %s\nwant: %s", count, d, q, got, wantKey)
			}
		}
	}
	t.Logf("%d superlative and %d other questions in %d domains", superlative, plain, len(domains))
	if superlative == 0 || plain == 0 || len(domains) != len(schema.DomainNames) {
		t.Fatalf("the workload has %d superlative and %d other questions in %d domains; both kinds in all %d domains are needed",
			superlative, plain, len(domains), len(schema.DomainNames))
	}
}

// TestPartitionIngest pins the admission contract: pinned inserts land
// on the owning partition and are refused elsewhere with the typed
// misdirect error; unpinned inserts self-assign an in-slice id;
// deletes of foreign keys are refused the same way.
func TestPartitionIngest(t *testing.T) {
	opts := shardtest.Options(40)
	parts := shardtest.OpenPartitionSystems(t, opts, "cars", 2)
	slices := []partition.Slice{parts[0].PartitionSlice(), parts[1].PartitionSlice()}
	if slices[0] == slices[1] {
		t.Fatalf("both partitions report slice %s", slices[0])
	}

	tbl, _ := parts[0].DB().TableForDomain("cars")
	pin := sqldb.RowID(tbl.Slots())
	for !slices[0].ContainsKey(uint64(pin)) {
		pin++
	}
	ad := map[string]sqldb.Value{"make": sqldb.String("honda"), "price": sqldb.Number(9500)}
	id, err := parts[0].InsertAdPinnedWithAck("cars", ad, pin, cqads.AckLocal)
	if err != nil || id != pin {
		t.Fatalf("pinned insert on owner = %d, %v; want %d", id, err, pin)
	}
	// The same key on the other partition is a typed misdirect.
	_, err = parts[1].InsertAdPinnedWithAck("cars", ad, pin, cqads.AckLocal)
	if !errors.Is(err, core.ErrNotHosted) {
		t.Fatalf("pinned insert on wrong partition = %v, want ErrNotHosted", err)
	}
	var wp *core.WrongPartitionError
	if !errors.As(err, &wp) || wp.ID != pin || wp.Domain != "cars" {
		t.Fatalf("typed error = %#v", err)
	}
	if err := parts[1].DeleteAd("cars", pin); !errors.Is(err, core.ErrNotHosted) {
		t.Fatalf("foreign delete = %v, want ErrNotHosted", err)
	}

	// Unpinned inserts self-assign an id the partition owns.
	selfID, err := parts[1].InsertAd("cars", ad)
	if err != nil {
		t.Fatal(err)
	}
	if !slices[1].ContainsKey(uint64(selfID)) {
		t.Fatalf("self-assigned id %d does not hash into %s", selfID, slices[1])
	}
	if err := parts[0].DeleteAd("cars", pin); err != nil {
		t.Fatalf("deleting an owned ad: %v", err)
	}
}

// TestRetirePartition: narrowing h0/2 to h0/4 on a durable partition
// drops exactly the moved-out rows, refuses their keys afterwards, and
// the checkpointed directory reopens cleanly under the narrowed config.
func TestRetirePartition(t *testing.T) {
	dir := t.TempDir()
	opts := shardtest.Options(40)
	opts.Domains = []string{"cars"}
	opts.Partitions = 2
	opts.PartitionIndex = 0
	opts.DataDir = dir
	sys, err := cqads.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := sys.DB().TableForDomain("cars")
	narrow := partition.Slice{Index: 0, Count: 4}
	// h1/4 covers keys with low hash bit 1 — outside h0/2, so retiring
	// to it must be refused (h2/4, low bit 0, would be the legal sibling
	// choice besides h0/4).
	foreign := partition.Slice{Index: 1, Count: 4}
	var keepIDs, moveIDs []sqldb.RowID
	for _, id := range tbl.AllRowIDs() {
		if narrow.ContainsKey(uint64(id)) {
			keepIDs = append(keepIDs, id)
		} else {
			moveIDs = append(moveIDs, id)
		}
	}
	if len(moveIDs) == 0 || len(keepIDs) == 0 {
		t.Fatalf("degenerate split: %d keep, %d move", len(keepIDs), len(moveIDs))
	}
	if err := sys.RetirePartition(foreign); err == nil {
		t.Fatal("retired to a non-subset slice")
	}
	if err := sys.RetirePartition(narrow); err != nil {
		t.Fatal(err)
	}
	if got := sys.PartitionSlice(); got != narrow {
		t.Fatalf("slice after retire = %s, want %s", got, narrow)
	}
	if tbl.Len() != len(keepIDs) {
		t.Fatalf("%d rows after retire, want %d", tbl.Len(), len(keepIDs))
	}
	for _, id := range moveIDs {
		if err := sys.DeleteAd("cars", id); !errors.Is(err, core.ErrNotHosted) {
			t.Fatalf("retired key %d delete = %v, want ErrNotHosted", id, err)
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen under the narrowed slice: the checkpoint is the baseline.
	reopenOpts := opts
	reopenOpts.Partitions = 4
	reopenOpts.PartitionIndex = 0
	again, err := cqads.Open(reopenOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	tbl2, _ := again.DB().TableForDomain("cars")
	if tbl2.Len() != len(keepIDs) {
		t.Fatalf("reopened with %d rows, want %d", tbl2.Len(), len(keepIDs))
	}
	for _, id := range keepIDs {
		if tbl2.Row(id).IsZero() {
			t.Fatalf("kept ad %d missing after reopen", id)
		}
	}
}
