// Command cqads is an interactive question-answering shell over the
// synthetic eight-domain ads database: type a natural-language ads
// question, get exact and ranked partially-matched answers, plus the
// interpretation and generated SQL for inspection.
//
// Usage:
//
//	cqads [-seed N] [-ads N] [-domain name] [-q "one-shot question"]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/cqads"
)

func main() {
	seed := flag.Int64("seed", 42, "deterministic environment seed")
	ads := flag.Int("ads", 500, "ads per domain")
	domain := flag.String("domain", "", "skip classification and query this domain")
	oneShot := flag.String("q", "", "answer a single question and exit")
	flag.Parse()

	sys, err := cqads.Open(cqads.Options{Seed: *seed, AdsPerDomain: *ads})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cqads:", err)
		os.Exit(1)
	}

	answer := func(q string) {
		var res *cqads.Result
		var err error
		if *domain != "" {
			res, err = sys.AskInDomain(*domain, q)
		} else {
			res, err = sys.Ask(q)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return
		}
		printResult(res)
	}

	if *oneShot != "" {
		answer(*oneShot)
		return
	}

	fmt.Printf("CQAds — domains: %s\n", strings.Join(cqads.DomainNames(), ", "))
	fmt.Println("Type an ads question (empty line to quit).")
	fmt.Println("Prefix with 'explain ' to see the index access plan;")
	fmt.Println("'stats <domain>' prints a domain's table statistics.")
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			break
		}
		q := strings.TrimSpace(sc.Text())
		switch {
		case q == "":
			return
		case strings.HasPrefix(q, "explain "):
			explain(sys, *domain, strings.TrimPrefix(q, "explain "))
		case strings.HasPrefix(q, "stats "):
			stats(sys, strings.TrimPrefix(q, "stats "))
		default:
			answer(q)
		}
	}
}

// explain answers the question and prints the engine's access plan
// for the generated SQL.
func explain(sys *cqads.System, domain, q string) {
	var res *cqads.Result
	var err error
	if domain != "" {
		res, err = sys.AskInDomain(domain, q)
	} else {
		res, err = sys.Ask(q)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return
	}
	fmt.Printf("interpretation: %s\n", res.Interpretation)
	if res.SQL == "" {
		fmt.Println("no SQL generated (empty or contradictory question)")
		return
	}
	// The plan prints ? for literals; the statement supplies them.
	fmt.Printf("sql:            %s\n", res.SQL)
	plan, err := sys.Explain(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return
	}
	fmt.Print(plan)
}

// stats scans a domain's table and prints its statistics (an
// inspection aid; the planner does not use them).
func stats(sys *cqads.System, domain string) {
	tbl, ok := sys.DB().TableForDomain(strings.TrimSpace(domain))
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown domain %q\n", domain)
		return
	}
	fmt.Print(tbl.Stats().String())
}

func printResult(res *cqads.Result) {
	fmt.Printf("domain:         %s\n", res.Domain)
	fmt.Printf("interpretation: %s\n", res.Interpretation)
	fmt.Printf("sql:            %s\n", res.SQL)
	fmt.Printf("answers:        %d exact, %d partial (%.2fms)\n",
		res.ExactCount, len(res.Answers)-res.ExactCount,
		float64(res.Elapsed.Microseconds())/1000)
	for i, a := range res.Answers {
		if i == 10 {
			fmt.Printf("  ... %d more\n", len(res.Answers)-10)
			break
		}
		kind := "exact  "
		if !a.Exact {
			kind = fmt.Sprintf("%.2f %s", a.RankSim, a.SimilarityUsed)
		}
		fmt.Printf("  %2d. [%s] %s\n", i+1, kind, recordLine(a))
	}
}

func recordLine(a cqads.Answer) string {
	rec := a.Record.Record()
	keys := make([]string, 0, len(rec))
	for k := range rec {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+rec[k].String())
	}
	return strings.Join(parts, " ")
}
