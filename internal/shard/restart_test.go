package shard_test

// Durability and replication for SHARDED stores: a shard with its own
// DataDir survives a SIGKILL-style abandon (no Close, no checkpoint)
// and recovers bit-identical answers, and a follower of a multi-domain
// shard receives and applies only that shard's operations.

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"repro/cqads"
	"repro/internal/core"
	"repro/internal/shard/shardtest"
	"repro/internal/sqldb"
	"repro/internal/webui"
)

// askKey renders one answer set for comparison.
func askKey(t *testing.T, sys *cqads.System, domain, q string) string {
	t.Helper()
	res, err := sys.AskInDomain(domain, q)
	if err != nil {
		t.Fatalf("%q in %q: %v", q, domain, err)
	}
	type row struct {
		ID      sqldb.RowID
		Exact   bool
		RankSim float64
		Record  map[string]string
	}
	rows := make([]row, 0, len(res.Answers))
	for _, a := range res.Answers {
		rec := map[string]string{}
		for k, v := range a.Record.All() {
			rec[k] = v.String()
		}
		rows = append(rows, row{ID: a.ID, Exact: a.Exact, RankSim: a.RankSim, Record: rec})
	}
	b, err := json.Marshal(struct {
		SQL  string
		N    int
		Rows []row
	}{res.SQL, res.ExactCount, rows})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

var shardProbes = map[string]string{
	"cars":      "cheapest honda",
	"jewellery": "gold necklace with diamond",
}

// TestShardRestartRecovery: kill a two-domain durable shard mid-life
// (no Close), reopen its DataDir, and require bit-identical answers
// including the WAL-tail ingests.
func TestShardRestartRecovery(t *testing.T) {
	opts := shardtest.Options(60)
	opts.Domains = []string{"cars", "jewellery"}
	opts.DataDir = t.TempDir()

	live, err := cqads.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	carsID, err := live.InsertAd("cars", map[string]sqldb.Value{
		"make": sqldb.String("honda"), "model": sqldb.String("civic"),
		"color": sqldb.String("red"), "price": sqldb.Number(3100),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.InsertAd("jewellery", map[string]sqldb.Value{
		"piece": sqldb.String("necklace"), "metal": sqldb.String("gold"),
		"stone": sqldb.String("diamond"), "price": sqldb.Number(950),
	}); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for d, q := range shardProbes {
		want[d] = askKey(t, live, d, q)
	}

	// Kill: no Close, no Checkpoint — recovery must replay the WAL
	// tail through the shard-filtered path.
	recovered, err := cqads.Open(opts)
	if err != nil {
		t.Fatalf("recovering shard: %v", err)
	}
	defer recovered.Close()
	for d, q := range shardProbes {
		if got := askKey(t, recovered, d, q); got != want[d] {
			t.Errorf("%s answers diverge after restart\n got: %s\nwant: %s", d, got, want[d])
		}
	}
	// The WAL-tail insert is live on the recovered shard.
	tbl, _ := recovered.DB().TableForDomain("cars")
	if tbl.Row(carsID).IsZero() {
		t.Error("WAL-tail cars insert lost across restart")
	}
	st := recovered.Status()
	if len(st.Domains) != 2 {
		t.Errorf("recovered shard hosts %d domains, want 2", len(st.Domains))
	}
	if !st.Persistence.Enabled {
		t.Error("recovered shard is not durable")
	}
}

// TestShardFollowerReceivesOnlyShardOps: a follower of a two-domain
// shard hosts exactly those domains, applies exactly the
// shard's operations, and answers bit-identically — replication of a
// shard ships only the hosted domains.
func TestShardFollowerReceivesOnlyShardOps(t *testing.T) {
	opts := shardtest.Options(60)
	opts.Domains = []string{"cars", "jewellery"}
	opts.DataDir = t.TempDir()

	primary, err := cqads.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	primarySrv := httptest.NewServer(webui.NewServer(primary))
	defer primarySrv.Close()

	f := shardtest.StartFollower(t, opts, primarySrv.URL).Tail

	// Ingest into both hosted domains while the follower exists.
	for i := 0; i < 5; i++ {
		if _, err := primary.InsertAd("cars", map[string]sqldb.Value{
			"make": sqldb.String("honda"), "price": sqldb.Number(float64(5000 + i)),
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := primary.InsertAd("jewellery", map[string]sqldb.Value{
			"metal": sqldb.String("silver"), "price": sqldb.Number(float64(100 + i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for f.System().AppliedSeq() < primary.AppliedSeq() {
		if _, err := f.SyncOnce(context.Background()); err != nil {
			t.Fatalf("sync: %v", err)
		}
	}

	fs := f.System()
	if got := fs.Domains(); len(got) != 2 {
		t.Fatalf("follower hosts %v, want the shard's 2 domains", got)
	}
	st := fs.Status()
	if st.Replication.Role != core.RoleFollower || st.Replication.LagOps != 0 {
		t.Fatalf("follower replication status = %+v", st.Replication)
	}
	if len(st.Domains) != 2 {
		t.Fatalf("follower status reports %d domains, want 2", len(st.Domains))
	}
	// Every applied op landed in the shard's two tables, nowhere else:
	// the follower's other tables are still empty, and the hosted
	// live counts match the primary exactly.
	for _, d := range []string{"motorcycles", "clothing", "csjobs", "furniture", "foodcoupons", "instruments"} {
		if tbl, ok := fs.DB().TableForDomain(d); ok && tbl.Len() != 0 {
			t.Errorf("unhosted domain %q has %d rows on the follower", d, tbl.Len())
		}
	}
	for _, d := range []string{"cars", "jewellery"} {
		pt, _ := primary.DB().TableForDomain(d)
		ft, _ := fs.DB().TableForDomain(d)
		if pt.Len() != ft.Len() || pt.Slots() != ft.Slots() {
			t.Errorf("%s: primary %d/%d vs follower %d/%d (live/slots)",
				d, pt.Len(), pt.Slots(), ft.Len(), ft.Slots())
		}
		if got, want := askKey(t, fs, d, shardProbes[d]), askKey(t, primary, d, shardProbes[d]); got != want {
			t.Errorf("%s answers diverge between shard and its follower", d)
		}
	}
	// The follower inherits the shard's write fencing AND its hosting
	// boundary: a write lands 403 (read-only), not 421, but an
	// unhosted ask is still typed.
	if _, err := fs.InsertAd("cars", nil); err == nil {
		t.Error("follower accepted a direct write")
	}
	if _, err := fs.AskInDomain("motorcycles", "anything"); err == nil {
		t.Error("follower answered an unhosted domain")
	}
}
