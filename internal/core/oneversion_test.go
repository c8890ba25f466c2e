package core_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/schema"
	"repro/internal/shard/shardtest"
	"repro/internal/sql"
	"repro/internal/sqldb"
)

// oneVersionAnswer is what the one-version check reads of an answer,
// from a monolith Result or a scatter part alike.
type oneVersionAnswer struct {
	id     sqldb.RowID
	exact  bool
	record sqldb.Row
}

// TestAskSeesOneVersion runs one writer that inserts copies of exact
// answers and deletes exact answers while several askers ask, on the
// monolith (AskInDomain) and on each partition of a 2-way split
// (AskInDomainScatter). Rows never change once inserted, so every
// answer can be checked after the fact against the version it was
// read from:
//
//   - (i) a partial answer's row fails every group of the question,
//     judged by the executor's own = (a one-row table queried with the
//     question's WHERE), not by rank.Satisfies, whose shorthand
//     matching is looser;
//   - (ii) no answer carries the zero Row.
//
// An ask that read its exact answers and its partial pool from two
// versions breaks (i) when a copy lands in between, and one that
// assembled an exact answer after its delete breaks (ii).
func TestAskSeesOneVersion(t *testing.T) {
	opts := shardtest.Options(equivAds)
	mono := shardtest.OpenMonolith(t, opts)
	sch := schema.Cars()

	// Questions with a few exact answers and room for partials, so a
	// copied exact answer would rank at the top of the partial list.
	type question struct {
		text string
		sel  *sql.Select
	}
	var qs []question
	for _, q := range shardtest.Workload(t, opts, mono) {
		res, err := mono.AskInDomain("cars", q)
		if err != nil {
			continue
		}
		in := res.Interpretation
		if in.Superlative != nil || in.ConditionCount() < 2 || res.ExactCount == 0 || len(res.Answers) == res.ExactCount {
			continue
		}
		qs = append(qs, question{q, core.BuildSelect(sch, in, 0)})
		if len(qs) == 6 {
			break
		}
	}
	if len(qs) < 3 {
		t.Fatalf("only %d cars questions with exact and partial answers; the test needs a real sample", len(qs))
	}

	// fullMatch reports whether row satisfies some group of sel's WHERE.
	fullMatch := func(t *testing.T, row sqldb.Row, sel *sql.Select) bool {
		db := sqldb.NewDB()
		tbl, err := db.CreateTable(sch)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.Insert(row.Record()); err != nil {
			t.Fatal(err)
		}
		ids, err := sql.Exec(db, sel)
		if err != nil {
			t.Fatal(err)
		}
		return len(ids) > 0
	}

	run := func(t *testing.T, sys *core.System, ask func(q string) ([]oneVersionAnswer, error)) {
		const writes = 150
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // writer: copy an exact answer, then delete it
			defer wg.Done()
			defer close(done)
			for i := 0; i < writes; i++ {
				answers, err := ask(qs[i%len(qs)].text)
				if err != nil {
					t.Error(err)
					return
				}
				var exact []oneVersionAnswer
				for _, a := range answers {
					if a.exact {
						exact = append(exact, a)
					}
				}
				if len(exact) == 0 {
					continue // no exact answer on this partition
				}
				e := exact[i%len(exact)]
				if _, err := sys.InsertAd("cars", e.record.Record()); err != nil {
					t.Error(err)
					return
				}
				if err := sys.DeleteAd("cars", e.id); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := r; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					q := qs[i%len(qs)]
					answers, err := ask(q.text)
					if err != nil {
						t.Error(err)
						return
					}
					for _, a := range answers {
						if a.record.IsZero() {
							t.Errorf("%q: answer %d has the zero Row", q.text, a.id)
							return
						}
						if !a.exact && fullMatch(t, a.record, q.sel) {
							t.Errorf("%q: partial answer %d satisfies every condition of a group", q.text, a.id)
							return
						}
					}
				}
			}(r)
		}
		wg.Wait()
	}

	t.Run("monolith", func(t *testing.T) {
		run(t, mono, func(q string) ([]oneVersionAnswer, error) {
			res, err := mono.AskInDomain("cars", q)
			if err != nil {
				return nil, err
			}
			out := make([]oneVersionAnswer, len(res.Answers))
			for i, a := range res.Answers {
				out[i] = oneVersionAnswer{a.ID, a.Exact, a.Record}
			}
			return out, nil
		})
	})
	for i, p := range shardtest.OpenPartitionSystems(t, opts, "cars", 2) {
		t.Run(fmt.Sprintf("partition h%d/2", i), func(t *testing.T) {
			run(t, p, func(q string) ([]oneVersionAnswer, error) {
				part, err := p.AskInDomainScatter("cars", q, partition.Slice{Index: uint32(i), Count: 2})
				if err != nil {
					return nil, err
				}
				out := make([]oneVersionAnswer, len(part.Answers))
				for j, a := range part.Answers {
					out[j] = oneVersionAnswer{sqldb.RowID(a.ID), a.Exact, a.Record}
				}
				return out, nil
			})
		})
	}
}
