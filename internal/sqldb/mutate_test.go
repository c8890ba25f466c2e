package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/schema"
)

func TestDeleteSemantics(t *testing.T) {
	tbl := carsTable(t)
	v0 := tbl.Version()
	if err := tbl.Delete(1); err != nil { // the red honda civic
		t.Fatal(err)
	}
	if tbl.Version() == v0 {
		t.Error("Delete did not move the table version")
	}
	if tbl.Len() != 3 {
		t.Errorf("Len after delete = %d, want 3", tbl.Len())
	}
	if tbl.Slots() != 4 {
		t.Errorf("Slots after delete = %d, want 4 (slot retired, not reused)", tbl.Slots())
	}
	if _, ok := tbl.Get(1); ok {
		t.Error("Get(1) should fail after delete")
	}
	if v := tbl.Value(1, "make"); !v.IsNull() {
		t.Errorf("Value of deleted row = %#v, want NULL", v)
	}
	if m := tbl.Row(1).Record(); m != nil {
		t.Errorf("Row(1).Record() of deleted row = %v, want nil", m)
	}
	if ids := tbl.AllRowIDs(); !reflect.DeepEqual(ids, []RowID{0, 2, 3}) {
		t.Errorf("AllRowIDs = %v", ids)
	}
	// Every index forgets the row.
	if ids := tbl.LookupEqual("make", String("honda")); !reflect.DeepEqual(ids, []RowID{0}) {
		t.Errorf("LookupEqual(honda) = %v", ids)
	}
	if ids := tbl.LookupRange("price", 10000, 12000, true, true); len(ids) != 0 {
		t.Errorf("LookupRange over deleted row = %v", ids)
	}
	// Stats skip the deleted row: "civic" is no longer a model.
	st := tbl.Stats()
	if st.Rows != 3 {
		t.Errorf("Stats rows = %d, want 3", st.Rows)
	}
	for _, c := range st.Columns {
		if c.Name == "model" && c.Distinct != 3 {
			t.Errorf("Stats model distinct = %d, want 3", c.Distinct)
		}
	}
	// A new insert takes a fresh slot.
	id, err := tbl.Insert(map[string]Value{"make": String("kia")})
	if err != nil {
		t.Fatal(err)
	}
	if id != 4 {
		t.Errorf("post-delete insert id = %d, want 4", id)
	}
	// Deleting again or out of range errors.
	if err := tbl.Delete(1); err == nil {
		t.Error("double Delete should error")
	}
	if err := tbl.Delete(99); err == nil {
		t.Error("Delete(99) should error")
	}
	if err := tbl.Delete(-1); err == nil {
		t.Error("Delete(-1) should error")
	}
}

// TestRowDeletedAndKeptValues pins the row view's lifetime: the view
// of a row deleted before it is taken is the zero Row (answer assembly
// encodes it as {}, as it did the nil record map), and a view taken
// before a Delete, and before later inserts regrow the table, still
// reads the row's values.
func TestRowDeletedAndKeptValues(t *testing.T) {
	tbl := carsTable(t)
	kept := tbl.Row(2)
	for _, id := range []RowID{1, 2} {
		if err := tbl.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if _, err := tbl.Insert(map[string]Value{"make": String("kia"), "price": Number(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}

	gone := tbl.Row(1)
	if !gone.IsZero() || gone.Len() != 0 || gone.Record() != nil || !gone.Value("make").IsNull() {
		t.Errorf("Row of a deleted id: zero %v, %d columns, record %v, make %v; want the zero Row",
			gone.IsZero(), gone.Len(), gone.Record(), gone.Value("make"))
	}
	for col := range gone.All() {
		t.Errorf("the zero Row yields column %q", col)
	}

	if kept.IsZero() || kept.Value("make").Str() != "toyota" || kept.Value("price").Num() != 9500 {
		t.Errorf("Row taken before Delete reads %v, want the toyota at 9500", kept.Record())
	}
}

// TestPostingListsStayAscending asserts the invariant LookupEqual
// relies on to skip re-sorting: hash posting lists are kept in
// ascending RowID order through arbitrary insert/delete
// interleavings, and the ordered index stays sorted through deletes.
func TestPostingListsStayAscending(t *testing.T) {
	tbl, err := NewTable(schema.Cars())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	makes := []string{"honda", "toyota", "ford", "bmw"}
	var live []RowID
	for step := 0; step < 400; step++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(live))
			if err := tbl.Delete(live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		} else {
			id, err := tbl.Insert(map[string]Value{
				"make":  String(makes[rng.Intn(len(makes))]),
				"model": String("accord"),
				"price": Number(float64(5000 + rng.Intn(40)*500)),
			})
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		}
		if step%10 == 0 {
			// Force the ordered index's lazy sort so deletes exercise
			// the sorted (binary search) removal path too.
			tbl.LookupRange("price", math.Inf(-1), math.Inf(1), false, false)
		}
	}
	for col, ix := range tbl.hash {
		if ix == nil {
			continue
		}
		for class, ids := range ix.postings {
			if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
				t.Fatalf("hash postings %s[class %d] not ascending: %v", tbl.cols[col].name, class, ids)
			}
		}
	}
	// LookupEqual (which no longer re-sorts) must agree with a scan.
	for _, m := range makes {
		got := tbl.LookupEqual("make", String(m))
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Fatalf("LookupEqual(%s) not ascending: %v", m, got)
		}
		var want []RowID
		for _, id := range tbl.AllRowIDs() {
			if tbl.Value(id, "make").Str() == m {
				want = append(want, id)
			}
		}
		if !reflect.DeepEqual(got, append([]RowID{}, want...)) && (len(got) != 0 || len(want) != 0) {
			t.Fatalf("LookupEqual(%s) = %v, scan says %v", m, got, want)
		}
	}
	// The ordered index agrees with a scan after all that churn.
	got := tbl.LookupRange("price", 6000, 20000, true, true)
	var want []RowID
	for _, id := range tbl.AllRowIDs() {
		if n, ok := tbl.Value(id, "price").tryNum(); ok && n >= 6000 && n <= 20000 {
			want = append(want, id)
		}
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LookupRange = %v, scan says %v", got, want)
	}
}

// TestConcurrentMutateAndScan hammers one table from writer and reader
// goroutines; run with -race. Readers only assert internal
// consistency (no panics, sorted results), not point-in-time
// contents, since rows legitimately come and go mid-test.
func TestConcurrentMutateAndScan(t *testing.T) {
	tbl := carsTable(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: insert and delete continuously
		defer wg.Done()
		rng := rand.New(rand.NewSource(11))
		var mine []RowID
		for i := 0; i < 300; i++ {
			if len(mine) > 4 && rng.Intn(2) == 0 {
				id := mine[0]
				mine = mine[1:]
				if err := tbl.Delete(id); err != nil {
					t.Errorf("Delete(%d): %v", id, err)
					return
				}
				continue
			}
			id, err := tbl.Insert(map[string]Value{
				"make":  String("honda"),
				"model": String("accord"),
				"price": Number(float64(4000 + i)),
			})
			if err != nil {
				t.Errorf("Insert: %v", err)
				return
			}
			mine = append(mine, id)
		}
		close(stop)
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ids := tbl.LookupEqual("make", String("honda"))
				if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
					t.Errorf("LookupEqual not ascending under writes: %v", ids)
					return
				}
				tbl.LookupRange("price", 4000, 9000, true, true)
				tbl.Stats()
				for _, id := range tbl.AllRowIDs() {
					tbl.Row(id).Record()
				}
			}
		}()
	}
	wg.Wait()
}

// TestVersionMovesOnEveryMutation pins the staleness-check contract.
func TestVersionMovesOnEveryMutation(t *testing.T) {
	tbl, err := NewTable(schema.Cars())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{tbl.Version(): true}
	for i := 0; i < 5; i++ {
		if _, err := tbl.Insert(map[string]Value{"make": String(fmt.Sprintf("make%d", i))}); err != nil {
			t.Fatal(err)
		}
		if v := tbl.Version(); seen[v] {
			t.Fatalf("version %d reused after insert %d", v, i)
		} else {
			seen[v] = true
		}
	}
	if err := tbl.Delete(0); err != nil {
		t.Fatal(err)
	}
	if v := tbl.Version(); seen[v] {
		t.Fatalf("version %d reused after delete", v)
	}
	// Failed mutations do not move the version.
	v := tbl.Version()
	if _, err := tbl.Insert(map[string]Value{"warp": Number(9)}); err == nil {
		t.Fatal("insert of unknown column should error")
	}
	if err := tbl.Delete(0); err == nil {
		t.Fatal("double delete should error")
	}
	if tbl.Version() != v {
		t.Error("failed mutations moved the version")
	}
}
