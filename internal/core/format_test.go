package core

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/adsgen"
	"repro/internal/persist"
	"repro/internal/schema"
	"repro/internal/sqldb"
)

var updateFixture = flag.Bool("update-fixture", false, "rewrite the on-disk format fixture under internal/persist/testdata from the current code")

// formatFixtureDir holds a data directory written by an earlier build:
// a CQSNAP3 snapshot, one WAL segment, and the digest of the answers
// the recovered system gave to formatQuestions.
const formatFixtureDir = "../persist/testdata/seed42"

// formatFixtureAds is the baseline corpus size per domain.
const formatFixtureAds = 12

// formatQuestions is the fixed question list whose answers the
// fixture's digest pins: two or three per domain, several aimed at the
// exceptional rows formatMutations inserts.
var formatQuestions = []struct{ domain, q string }{
	{"cars", "Find Honda Accord blue less than 15,000 dollars"},
	{"cars", "cheapest honda"},
	{"cars", "honda under 9600 dollars"},
	{"cars", "red or blue toyota under $9000"},
	{"cars", "newest ford"},
	{"motorcycles", "red yamaha sportbike"},
	{"motorcycles", "cheapest harley"},
	{"clothing", "blue nike jacket under 80 dollars"},
	{"clothing", "large cotton shirt"},
	{"csjobs", "senior java software engineer"},
	{"csjobs", "remote python web developer"},
	{"furniture", "oak table under 300 dollars"},
	{"furniture", "cheapest sofa"},
	{"foodcoupons", "subway sandwich coupon"},
	{"foodcoupons", "pizza buy one get one free"},
	{"instruments", "used fender guitar"},
	{"instruments", "cheapest piano"},
	{"jewellery", "gold ring with diamond"},
	{"jewellery", "silver necklace under 200 dollars"},
}

// formatMutations applies the fixture's writes to sys in two phases:
// phase 0 lands in the snapshot, phase 1 in the WAL. Between them they
// insert generated ads, delete baseline and inserted rows, pin one
// insert past the slot count (leaving never-live slots), and store the
// exceptional cells InsertAd accepts: missing columns (NULL), numeric
// and non-numeric strings in Type III columns, a numeric string's
// second spelling in a Type II column, -0 and NaN.
func formatMutations(t *testing.T, sys *System, phase int) {
	t.Helper()
	insert := func(domain string, ad map[string]sqldb.Value) sqldb.RowID {
		t.Helper()
		id, err := sys.InsertAd(domain, ad)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	del := func(domain string, id sqldb.RowID) {
		t.Helper()
		if err := sys.DeleteAd(domain, id); err != nil {
			t.Fatal(err)
		}
	}
	gen := adsgen.NewGenerator(4200 + int64(phase))
	for _, d := range schema.DomainNames {
		var ids []sqldb.RowID
		for _, ad := range gen.Generate(schema.ByName(d), 3) {
			ids = append(ids, insert(d, ad))
		}
		del(d, sqldb.RowID(phase*3+1)) // a baseline row
		del(d, ids[1])                 // a row this phase inserted
	}
	switch phase {
	case 0:
		insert("cars", map[string]sqldb.Value{"make": sqldb.String("honda"), "model": sqldb.String("accord")})
		insert("cars", map[string]sqldb.Value{
			"make": sqldb.String("honda"), "model": sqldb.String("civic"), "color": sqldb.String("blue"),
			"year": sqldb.String("2004"), "price": sqldb.String("9500"), "mileage": sqldb.String("unknown"),
		})
		insert("furniture", map[string]sqldb.Value{"piece": sqldb.String("table"), "price": sqldb.Number(math.Copysign(0, -1))})
	case 1:
		insert("cars", map[string]sqldb.Value{
			"make": sqldb.String("honda"), "doors": sqldb.String("2.0"),
			"price": sqldb.Number(math.NaN()), "year": sqldb.Number(2004), "mileage": sqldb.String("2e3"),
		})
		tbl, _ := sys.DB().TableForDomain("jewellery")
		if _, err := sys.InsertAdPinnedWithAck("jewellery", map[string]sqldb.Value{
			"piece": sqldb.String("ring"), "metal": sqldb.String("gold"), "carat": sqldb.Number(0),
		}, sqldb.RowID(tbl.Slots()+3), AckLocal); err != nil {
			t.Fatal(err)
		}
		del("cars", sqldb.RowID(formatFixtureAds+3)) // phase 0's NULL-heavy row
	}
}

// formatAnswersDigest hashes sys's answers to formatQuestions: for each
// question the domain, interpretation, SQL and exact count, and each
// answer's row id, exactness, Rank_Sim bits, dropped condition,
// similarity label and cells (kind, text and float bits).
func formatAnswersDigest(t *testing.T, sys *System) string {
	t.Helper()
	h := sha256.New()
	for _, fq := range formatQuestions {
		res, err := sys.AskInDomain(fq.domain, fq.q)
		if err != nil {
			t.Fatalf("%s: %q: %v", fq.domain, fq.q, err)
		}
		fmt.Fprintf(h, "%s\t%s\t%s\t%s\t%d\n", fq.q, res.Domain, res.Interpretation, res.SQL, res.ExactCount)
		for _, a := range res.Answers {
			fmt.Fprintf(h, "%d %v %x %d %q", a.ID, a.Exact, math.Float64bits(a.RankSim), a.DroppedCond, a.SimilarityUsed)
			for c := 0; c < a.Record.Len(); c++ {
				v := a.Record.At(c)
				switch {
				case v.IsNull():
					fmt.Fprint(h, " N")
				case v.IsNumber():
					fmt.Fprintf(h, " n%x", math.Float64bits(v.Num()))
				default:
					fmt.Fprintf(h, " s%q", v.Str())
				}
			}
			fmt.Fprintln(h)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestOnDiskFormatFixture opens a data directory an earlier build
// wrote: the snapshot and WAL still decode, every table holds what the
// same writes build in memory, slot for slot and cell for cell, and
// the answers to a fixed question list hash to the committed digest.
// Run with -update-fixture to write the fixture afresh (only when the
// on-disk format changes on purpose, which also changes its magic).
func TestOnDiskFormatFixture(t *testing.T) {
	if *updateFixture {
		writeFormatFixture(t)
	}
	dir := t.TempDir()
	for _, name := range []string{persist.SnapshotFile, persist.WALFile} {
		b, err := os.ReadFile(filepath.Join(formatFixtureDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == persist.SnapshotFile && !strings.HasPrefix(string(b), "CQSNAP3") {
			t.Fatalf("fixture snapshot starts %q, want the CQSNAP3 magic", b[:min(len(b), 7)])
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	recovered, err := Open(persistentConfig(t, populatedDB(t, formatFixtureAds), dir))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if recovered.AppliedSeq() == 0 {
		t.Fatal("the fixture replayed no WAL record")
	}

	want, err := New(persistentConfig(t, populatedDB(t, formatFixtureAds), ""))
	if err != nil {
		t.Fatal(err)
	}
	formatMutations(t, want, 0)
	formatMutations(t, want, 1)
	assertSameTables(t, "fixture-vs-rebuilt", recovered, want)

	digest, err := os.ReadFile(filepath.Join(formatFixtureDir, "answers.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	if got := formatAnswersDigest(t, recovered); got != strings.TrimSpace(string(digest)) {
		t.Errorf("answers over the fixture hash to %s, committed digest %s", got, digest)
	}
}

// writeFormatFixture writes the fixture: the baseline and phase 0 into
// a checkpointed snapshot, phase 1 into the WAL, and the digest of the
// answers the writing system gives. The system is abandoned, not
// closed, because Close would checkpoint the WAL away.
func writeFormatFixture(t *testing.T) {
	t.Helper()
	dir := t.TempDir()
	sys, err := Open(persistentConfig(t, populatedDB(t, formatFixtureAds), dir))
	if err != nil {
		t.Fatal(err)
	}
	formatMutations(t, sys, 0)
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	formatMutations(t, sys, 1)
	if err := os.MkdirAll(formatFixtureDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{persist.SnapshotFile, persist.WALFile} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(formatFixtureDir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	digest := formatAnswersDigest(t, sys) + "\n"
	if err := os.WriteFile(filepath.Join(formatFixtureDir, "answers.sha256"), []byte(digest), 0o644); err != nil {
		t.Fatal(err)
	}
}
