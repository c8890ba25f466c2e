// Quickstart: open the bundled synthetic environment and ask
// natural-language ads questions across domains. The classifier routes
// each question to its domain; answers arrive exact-first, then ranked
// partial matches.
package main

import (
	"fmt"
	"log"

	"repro/cqads"
)

func main() {
	sys, err := cqads.Open(cqads.Options{Seed: 42, AdsPerDomain: 500})
	if err != nil {
		log.Fatal(err)
	}

	questionsToAsk := []string{
		"Do you have a 2 door red BMW?",
		"cheapest fender electric guitar",
		"gold necklace with diamond under 500 dollars",
		"senior python software engineer more than 90000 dollars",
	}
	for _, q := range questionsToAsk {
		res, err := sys.Ask(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Q: %s\n", q)
		fmt.Printf("   domain=%s  interpretation=%s\n", res.Domain, res.Interpretation)
		fmt.Printf("   %d exact + %d partial answers in %v\n",
			res.ExactCount, len(res.Answers)-res.ExactCount, res.Elapsed)
		for i, a := range res.Answers {
			if i == 3 {
				break
			}
			tag := "exact"
			if !a.Exact {
				tag = fmt.Sprintf("Rank_Sim %.2f (%s)", a.RankSim, a.SimilarityUsed)
			}
			fmt.Printf("   %d. %-40s [%s]\n", i+1, summarize(a), tag)
		}
		fmt.Println()
	}
}

func summarize(a cqads.Answer) string {
	// Print a compact identifier line: the first few string values.
	out := ""
	for _, k := range []string{"make", "model", "brand", "item", "title", "piece", "vendor", "instrument", "price", "salary"} {
		if v := a.Record.Value(k); !v.IsNull() {
			if out != "" {
				out += " "
			}
			out += v.String()
		}
	}
	return out
}
