// Command addomain runs the "adding a new ads domain" workflow of
// Sec. 4.6 end to end: given a CSV of raw ads, it infers the domain
// schema (Type I/II/III classification and value ranges), loads the
// records, builds the tagging trie, simulates a query log for the
// TI-matrix, constructs the WS-matrix corpus, and answers a probe
// question — turning the paper's "approximately 2.5 hours of manual
// labor" into one command.
//
// Usage:
//
//	addomain -domain boats -csv ads.csv [-q "probe question"]
//
// Without -csv it demonstrates the workflow on a generated cars CSV.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/adsgen"
	"repro/internal/core"
	"repro/internal/csvio"
	"repro/internal/qlog"
	"repro/internal/schema"
	"repro/internal/schemagen"
	"repro/internal/sqldb"
	"repro/internal/wsmatrix"
)

func main() {
	domain := flag.String("domain", "newdomain", "name for the new ads domain")
	csvPath := flag.String("csv", "", "CSV of raw ads (header row = attribute names)")
	probe := flag.String("q", "", "probe question to answer after setup")
	seed := flag.Int64("seed", 42, "seed for the simulated query log")
	flag.Parse()

	var csvData []byte
	if *csvPath != "" {
		b, err := os.ReadFile(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		csvData = b
	} else {
		fmt.Println("no -csv given; demonstrating on a generated cars extract")
		var buf bytes.Buffer
		db := sqldb.NewDB()
		tbl, err := adsgen.NewGenerator(*seed).Populate(db, schema.Cars(), 300)
		if err != nil {
			log.Fatal(err)
		}
		if err := csvio.WriteTable(&buf, tbl); err != nil {
			log.Fatal(err)
		}
		csvData = buf.Bytes()
		*domain = "cars"
		if *probe == "" {
			*probe = "cheapest blue honda with automatic transmission"
		}
	}

	// Step 1: parse the raw records.
	records, err := csvio.ReadRecords(bytes.NewReader(csvData))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("1. parsed %d raw ads records\n", len(records))

	// Step 2: infer the schema (Sec. 6 extension automating the
	// manual table construction of Sec. 4.6).
	sch, err := schemagen.Infer(*domain, *domain+"_ads", records, schemagen.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("2. inferred schema:\n")
	for _, a := range sch.Attrs {
		switch a.Type {
		case schema.TypeIII:
			fmt.Printf("   %-14s %-8v range [%.0f, %.0f]\n", a.Name, a.Type, a.Min, a.Max)
		default:
			fmt.Printf("   %-14s %-8v %d values\n", a.Name, a.Type, len(a.Values))
		}
	}

	// Step 3: load the records into a table.
	db := sqldb.NewDB()
	tbl, err := csvio.LoadTable(db, sch, bytes.NewReader(csvData))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("3. loaded %d records into %s\n", tbl.Len(), sch.Table)

	// Step 4: similarity substrates — simulated query log for the
	// TI-matrix, synthetic topical corpus for the WS-matrix.
	sim := qlog.NewSimulator(sch, *seed)
	ti := map[string]*qlog.TIMatrix{*domain: qlog.BuildTIMatrix(sim.Simulate(*domain, 400))}
	ws := wsmatrix.BuildForDomains([]*schema.Schema{sch}, 40, *seed)
	fmt.Printf("4. built TI-matrix (max %.2f) and WS-matrix (%d stems)\n",
		ti[*domain].Max(), ws.Size())

	// Step 5: assemble the system and answer a probe question.
	sys, err := core.New(core.Config{DB: db, TI: ti, WS: ws})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("5. CQAds ready for domain %q\n", *domain)
	if *probe == "" {
		return
	}
	res, err := sys.AskInDomain(*domain, *probe)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprobe: %s\n  interpretation: %s\n  %d exact + %d partial answers\n",
		*probe, res.Interpretation, res.ExactCount, len(res.Answers)-res.ExactCount)
	for i, a := range res.Answers {
		if i == 5 {
			break
		}
		kind := "exact"
		if !a.Exact {
			kind = fmt.Sprintf("%.2f %s", a.RankSim, a.SimilarityUsed)
		}
		var cells []string
		for _, attr := range sch.Attrs {
			cells = append(cells, a.Record.Value(attr.Name).String())
		}
		fmt.Printf("  %d. [%s] %s\n", i+1, kind, strings.Join(cells, " | "))
	}
}
