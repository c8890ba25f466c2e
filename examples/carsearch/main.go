// Carsearch walks the paper's running car-ads example end to end:
// the Table 2 question with its ranked partial answers, a Boolean
// question with inferred operators, an incomplete question whose
// number could be a year, price or mileage, and a misspelled question
// repaired by the trie.
package main

import (
	"fmt"
	"log"

	"repro/cqads"
)

func main() {
	sys, err := cqads.Open(cqads.Options{
		Seed:         42,
		AdsPerDomain: 500,
		Domains:      []string{"cars"},
	})
	if err != nil {
		log.Fatal(err)
	}

	scenarios := []struct{ title, q string }{
		{"Table 2 running example (partial matching + Rank_Sim)",
			"Find Honda Accord blue less than 15,000 dollars"},
		{"Implicit Boolean: negation and mutual exclusion",
			"I want a Toyota Corolla or a silver not manual not 2-dr Honda Accord"},
		{"Incomplete question: which attribute is 2000?",
			"Honda accord 2000"},
		{"Misspelling + forgotten space, repaired by the trie",
			"Hondaaccord less thann $6000"},
		{"Superlative evaluated last",
			"cheapest 4 wheel drive jeep wrangler"},
	}

	for _, sc := range scenarios {
		fmt.Println("###", sc.title)
		res, err := sys.AskInDomain("cars", sc.q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Q: %s\n", sc.q)
		fmt.Printf("interpretation: %s\n", res.Interpretation)
		fmt.Printf("SQL: %s\n", res.SQL)
		for i, a := range res.Answers {
			if i == 5 {
				break
			}
			kind := "exact"
			if !a.Exact {
				kind = fmt.Sprintf("Rank_Sim=%.2f via %s", a.RankSim, a.SimilarityUsed)
			}
			fmt.Printf("  %d. %s %s  $%s  year=%s  %s/%s  [%s]\n", i+1,
				a.Record.Value("make"), a.Record.Value("model"), a.Record.Value("price"),
				a.Record.Value("year"), a.Record.Value("color"), a.Record.Value("transmission"), kind)
		}
		fmt.Println()
	}
}
