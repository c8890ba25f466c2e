// Extensions demonstrates the four future-work features of the
// paper's Sec. 6 that this reproduction implements beyond the
// published system:
//
//  1. strict explicit-Boolean evaluation (vs. the paper's
//     strip-and-fall-back),
//  2. automated schema generation from raw ads records,
//  3. transformation rules ("stick shift" → manual),
//  4. de-duplication of reposted listings.
package main

import (
	"fmt"
	"log"

	"repro/cqads"
	"repro/internal/adsgen"
	"repro/internal/boolean"
	"repro/internal/dedup"
	"repro/internal/schema"
	"repro/internal/schemagen"
	"repro/internal/sqldb"
	"repro/internal/trie"
)

func main() {
	strictVsImplicit()
	schemaInference()
	transformationRules()
	deduplication()
}

func strictVsImplicit() {
	fmt.Println("### 1. Strict explicit-Boolean evaluation")
	sch := schema.Cars()
	tagger := trie.NewTagger(sch)
	for _, q := range []string{
		"black and grey cars",       // implicit rewrites AND → OR
		"red honda or blue toyota",  // both split at the OR
		"4 door and not manual bmw", // compatible values: same reading
	} {
		tags := tagger.Tag(q)
		imp := boolean.Interpret(sch, tags)
		str := boolean.InterpretStrict(sch, tags)
		fmt.Printf("Q: %-28s implicit: %s\n%33s strict:   %s\n", q, imp, "", str)
	}
	fmt.Println()
}

func schemaInference() {
	fmt.Println("### 2. Automated schema generation")
	// Pretend the cars records arrived as raw extraction output with
	// no schema: infer one and compare.
	ref := schema.Cars()
	db := sqldb.NewDB()
	tbl, err := adsgen.NewGenerator(42).Populate(db, ref, 500)
	if err != nil {
		log.Fatal(err)
	}
	inferred, err := schemagen.InferFromTable("cars", "car_ads", tbl, schemagen.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	agreement, mismatches := schemagen.Agreement(inferred, ref)
	fmt.Printf("attribute-type agreement with the hand-written schema: %.0f%%\n", 100*agreement)
	for _, a := range inferred.Attrs {
		switch a.Type {
		case cqads.TypeIII:
			fmt.Printf("  %-13s %-8v range [%.0f, %.0f]\n", a.Name, a.Type, a.Min, a.Max)
		default:
			fmt.Printf("  %-13s %-8v %d values\n", a.Name, a.Type, len(a.Values))
		}
	}
	if len(mismatches) > 0 {
		fmt.Println("  mismatches:", mismatches)
	}
	fmt.Println()
}

func transformationRules() {
	fmt.Println("### 3. Transformation rules")
	sch := schema.Cars()
	plain := trie.NewTagger(sch)
	rich := trie.NewTaggerWithSynonyms(sch)
	q := "blue 4x4 jeep with stick shift"
	fmt.Printf("Q: %s\n", q)
	fmt.Printf("  without rules: %s\n", boolean.Interpret(sch, plain.Tag(q)))
	fmt.Printf("  with rules:    %s\n", boolean.Interpret(sch, rich.Tag(q)))
	fmt.Println()
}

func deduplication() {
	fmt.Println("### 4. De-duplication of reposted listings")
	db := sqldb.NewDB()
	tbl, err := adsgen.NewGenerator(7).Populate(db, schema.Cars(), 200)
	if err != nil {
		log.Fatal(err)
	}
	// Repost the first 50 ads with a small price tweak.
	for i := 0; i < 50; i++ {
		rec := tbl.Row(sqldb.RowID(i)).Record()
		rec["price"] = sqldb.Number(rec["price"].Num() + 25)
		if _, err := tbl.Insert(rec); err != nil {
			log.Fatal(err)
		}
	}
	var res *dedup.Result
	tbl.View(func(v sqldb.View) { res = dedup.Dedup(v, dedup.DefaultOptions()) })
	fmt.Printf("%d records → %d distinct listings (%d reposts detected)\n",
		tbl.Len(), res.Groups, len(res.Duplicates))
}
