package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/classify"
	"repro/internal/pool"
	"repro/internal/schema"
	"repro/internal/text"
)

// TestConcurrentAsks exercises the System from many goroutines (the
// web UI's usage pattern); run with -race to validate the similarity
// cache locking.
func TestConcurrentAsks(t *testing.T) {
	sys := testSystem(t)
	queries := []string{
		"Find Honda Accord blue less than 15,000 dollars",
		"cheapest 2 door mazda",
		"red or blue toyota under $9000",
		"Hondaaccord less than $2000",
		"4 wheel drive with less than 20k miles",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				q := queries[(w+i)%len(queries)]
				if _, err := sys.AskInDomain("cars", q); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// pooledAsk answers questions with ask on a pool of workers, in input
// order.
func pooledAsk(questions []string, workers int, ask func(string) (*Result, error)) []pooledResult {
	return pool.Map(questions, workers, func(_ int, q string) pooledResult {
		res, err := ask(q)
		return pooledResult{res, err}
	})
}

type pooledResult struct {
	res *Result
	err error
}

// TestPooledAskRace hammers AskInDomain from many workers over a mix
// of exact, partial, single-condition and OR questions; run with -race
// to validate the sharded similarity cache and classifier fitting.
func TestPooledAskRace(t *testing.T) {
	sys := testSystem(t)
	base := []string{
		"Find Honda Accord blue less than 15,000 dollars",
		"cheapest 2 door mazda",
		"red or blue toyota under $9000",
		"Hondaaccord less than $2000",
		"4 wheel drive with less than 20k miles",
		"blue car",
		"manual bmw m3 less than $9000",
		"red automatic toyota camry",
	}
	questions := make([]string, 0, 8*len(base))
	for i := 0; i < 8; i++ {
		questions = append(questions, base...)
	}
	inCars := func(q string) (*Result, error) { return sys.AskInDomain("cars", q) }
	for i, r := range pooledAsk(questions, 12, inCars) {
		if r.err != nil {
			t.Fatalf("question %d (%q): %v", i, questions[i], r.err)
		}
		if r.res == nil {
			t.Fatalf("question %d (%q): nil result", i, questions[i])
		}
	}
}

// TestPooledAskMatchesSequential: asks answered on a worker pool must
// return exactly the answers a sequential sweep returns, per question.
func TestPooledAskMatchesSequential(t *testing.T) {
	sys := testSystem(t)
	questions := []string{
		"Find Honda Accord blue less than 15,000 dollars",
		"blue car",
		"red or blue toyota under $9000",
		"cheapest 2 door mazda",
	}
	pooled := pooledAsk(questions, 8, func(q string) (*Result, error) { return sys.AskInDomain("cars", q) })
	for i, q := range questions {
		seq, err := sys.AskInDomain("cars", q)
		if err != nil {
			t.Fatal(err)
		}
		r := pooled[i]
		if r.err != nil {
			t.Fatalf("%q: pooled error %v", q, r.err)
		}
		assertSameResult(t, fmt.Sprintf("%q pooled vs sequential", q), r.res, seq)
	}
}

// TestPooledAskClassified drives concurrent Asks through the classifier
// (the full pipeline) with a quickly-trained model, checking every
// question is routed to a domain.
func TestPooledAskClassified(t *testing.T) {
	sys := testSystem(t)
	cls := classify.NewJBBSM()
	for _, d := range schema.DomainNames {
		tbl, _ := sys.db.TableForDomain(d)
		sch := tbl.Schema()
		var docs [][]string
		for _, a := range sch.Attrs {
			for _, v := range a.Values {
				docs = append(docs, text.Words(strings.ToLower(d+" "+v)))
			}
		}
		cls.Train(d, docs)
	}
	sys.classifier = cls
	questions := []string{
		"honda accord blue",
		"cars red toyota",
		"cars cheapest manual transmission",
	}
	for i, r := range pooledAsk(questions, 8, sys.Ask) {
		if r.err != nil {
			t.Fatalf("question %d (%q): %v", i, questions[i], r.err)
		}
		if r.res == nil || r.res.Domain == "" {
			t.Fatalf("question %d (%q): missing routed domain", i, questions[i])
		}
	}
}

// TestConcurrentAsksDeterministic: concurrent execution must not
// change results relative to sequential execution.
func TestConcurrentAsksDeterministic(t *testing.T) {
	sys := testSystem(t)
	q := "Find Honda Accord blue less than 15,000 dollars"
	base, err := sys.AskInDomain("cars", q)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]*Result, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := sys.AskInDomain("cars", q)
			if err == nil {
				results[i] = r
			}
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r == nil {
			t.Fatalf("worker %d failed", i)
		}
		assertSameResult(t, fmt.Sprintf("worker %d", i), r, base)
	}
}
