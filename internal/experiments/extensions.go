package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/boolean"
	"repro/internal/core"
	"repro/internal/dedup"
	"repro/internal/questions"
	"repro/internal/schemagen"
	"repro/internal/sqldb"
	"repro/internal/trie"
)

// StrictBooleanResult measures the Sec. 6 future-work (i) extension:
// how often the strict explicit-Boolean interpreter and the paper's
// strip-and-fall-back interpreter agree, and how often each recovers
// the generated ground truth, over explicit-OR questions.
type StrictBooleanResult struct {
	Questions       int
	AgreementRate   float64
	ImplicitCorrect float64
	StrictCorrect   float64
}

// StrictBoolean runs the comparison on the cars domain.
func (e *Env) StrictBoolean() (*StrictBooleanResult, error) {
	tbl, _ := e.DB.TableForDomain("cars")
	opts := questions.CleanOptions()
	opts.MinConds, opts.MaxConds = 2, 3
	opts.ExplicitOrRate = 0.6
	opts.MutexAndRate = 0.6 // divergence probes: "black and grey"
	gen := questions.NewGenerator(tbl, e.Seed+808)
	qs := gen.Generate(300, opts)
	tagger := trie.NewTagger(e.Schemas["cars"])

	res := &StrictBooleanResult{}
	agree, impCorrect, strCorrect := 0, 0, 0
	for _, q := range qs {
		if !q.Explicit {
			continue
		}
		res.Questions++
		tags := tagger.Tag(q.Text)
		imp := boolean.Interpret(e.Schemas["cars"], tags)
		str := boolean.InterpretStrict(e.Schemas["cars"], tags)
		truth := &boolean.Interpretation{Groups: q.TruthGroups(), Superlative: q.Superlative}
		if boolean.InterpretationsAgree(imp, str) {
			agree++
		}
		if boolean.InterpretationsAgree(imp, truth) {
			impCorrect++
		}
		if boolean.InterpretationsAgree(str, truth) {
			strCorrect++
		}
	}
	if res.Questions > 0 {
		res.AgreementRate = float64(agree) / float64(res.Questions)
		res.ImplicitCorrect = float64(impCorrect) / float64(res.Questions)
		res.StrictCorrect = float64(strCorrect) / float64(res.Questions)
	}
	return res, nil
}

// String renders the comparison.
func (r *StrictBooleanResult) String() string {
	return fmt.Sprintf(
		"Extension — strict explicit-Boolean evaluation (%d explicit questions)\n"+
			"  strict/implicit agreement: %.1f%%\n"+
			"  ground truth recovered: implicit %.1f%%, strict %.1f%%\n",
		r.Questions, 100*r.AgreementRate, 100*r.ImplicitCorrect, 100*r.StrictCorrect)
}

// DedupResult measures the Sec. 6 future-work (iv) extension: with
// near-duplicate listings injected, how many duplicate answers reach
// the 30-answer cutoff with and without de-duplication.
type DedupResult struct {
	InjectedDuplicates int
	DetectedGroups     int
	TrueListings       int
	AvgDupAnswersOff   float64
	AvgDupAnswersOn    float64
	Questions          int
}

// DedupImpact injects near-duplicates into a fresh cars table and
// compares the answer lists over it with those over its de-duplicated
// copy: the table with every near-duplicate removed, as Sec. 6 words
// it ("remove similar data records from a DB"). The copy keeps each
// representative's RowID, so ties rank in the same order on both.
func (e *Env) DedupImpact() (*DedupResult, error) {
	// Build a dirty copy of the cars table: every third record gets a
	// repost with a tiny price perturbation.
	rng := rand.New(rand.NewSource(e.Seed + 909))
	src, _ := e.DB.TableForDomain("cars")
	dirtyDB := sqldb.NewDB()
	sch := e.Schemas["cars"]
	dirty, err := dirtyDB.CreateTable(sch)
	if err != nil {
		return nil, err
	}
	res := &DedupResult{}
	for _, id := range src.AllRowIDs() {
		rec := src.Row(id).Record()
		if _, err := dirty.Insert(rec); err != nil {
			return nil, err
		}
		if int(id)%3 == 0 {
			repost := src.Row(id).Record()
			price := repost["price"].Num()
			repost["price"] = sqldb.Number(price + float64(rng.Intn(80)))
			if _, err := dirty.Insert(repost); err != nil {
				return nil, err
			}
			res.InjectedDuplicates++
		}
	}
	res.TrueListings = src.Len()
	var d *dedup.Result
	dirty.View(func(v sqldb.View) { d = dedup.Dedup(v, dedup.DefaultOptions()) })
	res.DetectedGroups = d.Groups

	cleanDB := sqldb.NewDB()
	clean, err := cleanDB.CreateTable(sch)
	if err != nil {
		return nil, err
	}
	for _, id := range d.Keep {
		if err := clean.InsertAt(id, dirty.Row(id).Record()); err != nil {
			return nil, err
		}
	}

	plain, err := core.New(core.Config{DB: dirtyDB, TI: e.TI, WS: e.WS})
	if err != nil {
		return nil, err
	}
	deduped, err := core.New(core.Config{DB: cleanDB, TI: e.TI, WS: e.WS})
	if err != nil {
		return nil, err
	}
	countDups := func(answers []core.Answer) int {
		seen := map[string]int{}
		dups := 0
		for _, a := range answers {
			key := fingerprint(a.Record)
			seen[key]++
			if seen[key] > 1 {
				dups++
			}
		}
		return dups
	}
	var offTotal, onTotal float64
	for _, q := range e.Tests["cars"] {
		r1, err := plain.AskInDomain("cars", q.Text)
		if err != nil {
			return nil, err
		}
		r2, err := deduped.AskInDomain("cars", q.Text)
		if err != nil {
			return nil, err
		}
		offTotal += float64(countDups(r1.Answers))
		onTotal += float64(countDups(r2.Answers))
		res.Questions++
	}
	if res.Questions > 0 {
		res.AvgDupAnswersOff = offTotal / float64(res.Questions)
		res.AvgDupAnswersOn = onTotal / float64(res.Questions)
	}
	return res, nil
}

// fingerprint keys a record by its categorical values and coarse
// price bucket (the duplicate-injection granularity).
func fingerprint(rec sqldb.Row) string {
	var sb strings.Builder
	for _, k := range []string{"make", "model", "color", "transmission", "doors", "drivetrain", "year", "mileage"} {
		sb.WriteString(rec.Value(k).String())
		sb.WriteByte('|')
	}
	fmt.Fprintf(&sb, "%d", int(rec.Value("price").Num())/100)
	return sb.String()
}

// String renders the dedup experiment.
func (r *DedupResult) String() string {
	return fmt.Sprintf(
		"Extension — de-duplication (%d listings + %d injected reposts)\n"+
			"  detected %d distinct listings (true: %d)\n"+
			"  duplicate answers per question: %.2f without dedup, %.2f with (over %d questions)\n",
		r.TrueListings, r.InjectedDuplicates, r.DetectedGroups, r.TrueListings,
		r.AvgDupAnswersOff, r.AvgDupAnswersOn, r.Questions)
}

// SchemaGenResult measures the Sec. 6 future-work (ii) extension:
// schema-inference agreement per domain.
type SchemaGenResult struct {
	PerDomain map[string]float64
	Average   float64
}

// SchemaGen infers every domain's schema from its generated ads.
func (e *Env) SchemaGen() (*SchemaGenResult, error) {
	res := &SchemaGenResult{PerDomain: map[string]float64{}}
	total := 0.0
	for d, ref := range e.Schemas {
		tbl, _ := e.DB.TableForDomain(d)
		inferred, err := schemagen.InferFromTable(d, ref.Table, tbl, schemagen.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("schemagen %s: %w", d, err)
		}
		frac, _ := schemagen.Agreement(inferred, ref)
		res.PerDomain[d] = frac
		total += frac
	}
	res.Average = total / float64(len(e.Schemas))
	return res, nil
}

// String renders the inference agreement.
func (r *SchemaGenResult) String() string {
	var sb strings.Builder
	sb.WriteString("Extension — automated schema generation (attribute-type agreement)\n")
	keys := make([]string, 0, len(r.PerDomain))
	for k := range r.PerDomain {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "  %-12s %5.1f%%\n", k, 100*r.PerDomain[k])
	}
	fmt.Fprintf(&sb, "  %-12s %5.1f%%\n", "average", 100*r.Average)
	return sb.String()
}
