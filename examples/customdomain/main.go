// Customdomain demonstrates the paper's extensibility claim ("can
// easily be extended to answer questions on any ads domains",
// Sec. 6): it defines a brand-new Boats domain from scratch — schema,
// records, query log, word-similarity corpus — and wires a System via
// the explicit Config path instead of the bundled environment.
package main

import (
	"fmt"
	"log"

	"repro/cqads"
	"repro/internal/qlog"
	"repro/internal/sqldb"
	"repro/internal/wsmatrix"
)

func main() {
	boats := &cqads.Schema{
		Domain: "boats",
		Table:  "boat_ads",
		Attrs: []cqads.Attribute{
			{Name: "builder", Type: cqads.TypeI, Values: []string{
				"bayliner", "searay", "boston whaler", "catalina", "hobie",
			}},
			{Name: "kind", Type: cqads.TypeI, Values: []string{
				"sailboat", "speedboat", "pontoon", "kayak", "dinghy",
			}},
			{Name: "hull", Type: cqads.TypeII, Values: []string{
				"fiberglass", "aluminum", "wood", "inflatable",
			}},
			{Name: "condition", Type: cqads.TypeII, Values: []string{
				"new", "used", "project",
			}},
			{Name: "length", Type: cqads.TypeIII, Min: 8, Max: 60,
				Unit: []string{"feet", "ft"}},
			{Name: "price", Type: cqads.TypeIII, Min: 200, Max: 250000,
				Unit: []string{"$", "usd", "dollars"}},
			{Name: "year", Type: cqads.TypeIII, Min: 1970, Max: 2011},
		},
		SuperlativeAttr: map[string]cqads.Superlative{
			"cheapest": {Attr: "price"},
			"newest":   {Attr: "year", Descending: true},
			"longest":  {Attr: "length", Descending: true},
		},
	}

	db := sqldb.NewDB()
	tbl, err := db.CreateTable(boats)
	if err != nil {
		log.Fatal(err)
	}
	// Hand-curated inventory: the adoption path for real ad data.
	for _, ad := range inventory() {
		if _, err := tbl.Insert(ad); err != nil {
			log.Fatal(err)
		}
	}

	// The similarity substrates build from the new domain alone:
	// a simulated query log for the TI-matrix and a topical corpus
	// for the WS-matrix.
	sim := qlog.NewSimulator(boats, 99)
	ti := map[string]*qlog.TIMatrix{"boats": qlog.BuildTIMatrix(sim.Simulate("boats", 300))}
	ws := wsmatrix.BuildForDomains([]*cqads.Schema{boats}, 40, 99)

	sys, err := cqads.New(cqads.Config{DB: db, TI: ti, WS: ws})
	if err != nil {
		log.Fatal(err)
	}

	for _, q := range []string{
		"used fiberglass sailboat under $20000",
		"newest speedboat longer than 20 feet",
		"catalina or hobie, no project boats",
		"cheapest aluminum pontoon",
	} {
		res, err := sys.AskInDomain("boats", q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Q: %s\n   -> %s\n", q, res.Interpretation)
		for i, a := range res.Answers {
			if i == 3 {
				break
			}
			kind := "exact"
			if !a.Exact {
				kind = fmt.Sprintf("partial %.2f", a.RankSim)
			}
			fmt.Printf("   %d. %s %s %sft %s $%s (%s) [%s]\n", i+1,
				a.Record.Value("builder"), a.Record.Value("kind"), a.Record.Value("length"),
				a.Record.Value("hull"), a.Record.Value("price"), a.Record.Value("condition"), kind)
		}
		fmt.Println()
	}
}

// inventory returns a small hand-written boats dataset.
func inventory() []map[string]sqldb.Value {
	type row struct {
		builder, kind, hull, cond string
		length, price, year       float64
	}
	rows := []row{
		{"catalina", "sailboat", "fiberglass", "used", 27, 14500, 1998},
		{"catalina", "sailboat", "fiberglass", "used", 30, 24900, 2004},
		{"hobie", "sailboat", "fiberglass", "new", 16, 11900, 2011},
		{"hobie", "kayak", "inflatable", "new", 12, 2400, 2011},
		{"bayliner", "speedboat", "fiberglass", "used", 21, 17500, 2006},
		{"bayliner", "speedboat", "fiberglass", "project", 19, 3200, 1992},
		{"searay", "speedboat", "fiberglass", "used", 24, 32900, 2008},
		{"searay", "speedboat", "fiberglass", "used", 26, 41000, 2010},
		{"boston whaler", "speedboat", "fiberglass", "used", 17, 19500, 2003},
		{"boston whaler", "dinghy", "fiberglass", "used", 11, 4800, 1999},
		{"catalina", "pontoon", "aluminum", "used", 22, 9800, 2001},
		{"bayliner", "pontoon", "aluminum", "new", 25, 28500, 2011},
		{"hobie", "kayak", "fiberglass", "used", 14, 950, 2005},
		{"searay", "speedboat", "fiberglass", "project", 23, 7500, 1988},
		{"catalina", "sailboat", "wood", "project", 34, 12000, 1976},
	}
	out := make([]map[string]sqldb.Value, 0, len(rows))
	for _, r := range rows {
		out = append(out, map[string]sqldb.Value{
			"builder":   sqldb.String(r.builder),
			"kind":      sqldb.String(r.kind),
			"hull":      sqldb.String(r.hull),
			"condition": sqldb.String(r.cond),
			"length":    sqldb.Number(r.length),
			"price":     sqldb.Number(r.price),
			"year":      sqldb.Number(r.year),
		})
	}
	return out
}
