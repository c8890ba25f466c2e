package experiments

import (
	"fmt"
	"strings"

	"repro/internal/schema"
)

// Table2Row is one ranked partial answer of Table 2.
type Table2Row struct {
	Ranking        int
	TypeI          []string // identifier values (make/model, brand/item, ...)
	Price          float64
	Features       []string
	RankSim        float64
	SimilarityUsed string
}

// Table2Result reproduces Table 2: the top-5 ranked partially-matched
// answers to the paper's running question.
type Table2Result struct {
	Question string
	SQL      string
	Rows     []Table2Row
}

// Table2Question is the paper's running example.
const Table2Question = "Find Honda Accord blue less than 15,000 dollars"

// Table2PartialAnswers runs the Table 2 experiment on the cars
// domain. Exact matches are skipped (the table shows partial answers).
func (e *Env) Table2PartialAnswers() (*Table2Result, error) {
	res, err := e.System.AskInDomain("cars", Table2Question)
	if err != nil {
		return nil, err
	}
	out := &Table2Result{Question: Table2Question, SQL: res.SQL}
	tbl, _ := e.DB.TableForDomain("cars")
	sch := tbl.Schema()
	rank := 0
	for _, a := range res.Answers {
		if a.Exact {
			continue
		}
		rank++
		row := Table2Row{
			Ranking:        rank,
			Price:          a.Record.Value("price").Num(),
			RankSim:        a.RankSim,
			SimilarityUsed: a.SimilarityUsed,
		}
		for _, attr := range sch.AttrsOfType(schema.TypeI) {
			row.TypeI = append(row.TypeI, a.Record.Value(attr.Name).Str())
		}
		for _, attr := range sch.AttrsOfType(schema.TypeII) {
			if v := a.Record.Value(attr.Name); v.IsString() {
				row.Features = append(row.Features, v.Str())
			}
		}
		out.Rows = append(out.Rows, row)
		if rank == 5 {
			break
		}
	}
	return out, nil
}

// String renders Table 2.
func (r *Table2Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 2 — top-5 ranked partial answers to %q\n", r.Question)
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %d. %-20s $%-8.0f Rank_Sim=%.2f  %s\n     features: %s\n",
			row.Ranking, strings.Join(row.TypeI, " "), row.Price,
			row.RankSim, row.SimilarityUsed, strings.Join(row.Features, ", "))
	}
	return sb.String()
}
