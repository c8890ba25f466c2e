// Jobmatch exercises the CS-jobs domain the paper calls out in its
// ranking analysis (Sec. 5.5.3): salary ranges, experience bounds,
// superlatives, and the partial matches users get when their exact
// criteria return nothing.
package main

import (
	"fmt"
	"log"

	"repro/cqads"
)

func main() {
	sys, err := cqads.Open(cqads.Options{
		Seed:         7,
		AdsPerDomain: 400,
		Domains:      []string{"csjobs"},
	})
	if err != nil {
		log.Fatal(err)
	}

	queries := []string{
		"senior software engineer python more than 120000 dollars",
		"remote go developer between 90000 and 140000 dollars",
		"highest paying data scientist job",
		"junior web developer less than 2 years experience",
		// Deliberately over-constrained: partial matching kicks in.
		"principal security analyst perl part time above 200000 dollars",
	}
	for _, q := range queries {
		res, err := sys.AskInDomain("csjobs", q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Q: %s\n   -> %s\n", q, res.Interpretation)
		fmt.Printf("   %d exact, %d partial\n", res.ExactCount, len(res.Answers)-res.ExactCount)
		for i, a := range res.Answers {
			if i == 4 {
				break
			}
			kind := "exact"
			if !a.Exact {
				kind = fmt.Sprintf("partial %.2f %s", a.RankSim, a.SimilarityUsed)
			}
			fmt.Printf("   %d. %-26s %-10s %-10s $%-7s %sy  [%s]\n", i+1,
				a.Record.Value("title"), a.Record.Value("language"), a.Record.Value("level"),
				a.Record.Value("salary"), a.Record.Value("experience"), kind)
		}
		fmt.Println()
	}
}
