package sql_test

import (
	"strings"
	"testing"

	"repro/internal/sql"
	"repro/internal/sql/sqltest"
	"repro/internal/sqldb"
)

// explainString parses query with the test-support parser and
// explains the compiled plan.
func explainString(db *sqldb.DB, query string) (string, error) {
	sel, err := sqltest.Parse(query)
	if err != nil {
		return "", err
	}
	return sql.Explain(db, sel)
}

func TestExplainAccessPaths(t *testing.T) {
	db, _ := execDB(t)
	plan, err := explainString(db, `SELECT * FROM car_ads
		WHERE make = 'honda' AND price < 10000 AND color = 'red'
		ORDER BY price LIMIT 30`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"driving scan: make = ? via primary hash index lookup (Type I)",
		"pushed residual: price < ?",
		"intersect posting: color = ?",
		"sort by price ASC",
		"limit 30",
	} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
}

func TestExplainOrNotAndSubquery(t *testing.T) {
	db, _ := execDB(t)
	for _, tc := range []struct {
		where string
		want  []string
	}{
		// Inside a conjunction an OR, and a NOT inside it, is one
		// residual checked on the driving rows.
		{"(color = 'red' OR NOT transmission = 'manual') AND year > 2000", []string{
			"driving scan: year > ? via ordered index range scan (Type III)",
			"pushed residual: color = ? OR NOT transmission = ? (checked per row)",
		}},
		// At the root, the OR appends its branches into one buffer and
		// the NOT walks the live rows minus its inner ids.
		{"color = 'red' OR NOT transmission = 'manual'", []string{
			"union of 2 branches",
			"live rows minus:",
			"secondary hash index lookup (Type II)",
		}},
	} {
		plan, err := explainString(db, "SELECT * FROM car_ads WHERE "+tc.where)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range tc.want {
			if !strings.Contains(plan, want) {
				t.Errorf("%s: plan missing %q:\n%s", tc.where, want, plan)
			}
		}
	}
}

// TestExplainStreamingPlanMultiConjunct: Explain prints the compiled plan once — no
// second listing describing the eager evaluator beside it, and no
// estimates, because the planner has none.
func TestExplainStreamingPlanMultiConjunct(t *testing.T) {
	db, _ := execDB(t)
	plan, err := explainString(db, `SELECT * FROM car_ads
		WHERE make = 'honda' AND price < 10000 AND color = 'red'`)
	if err != nil {
		t.Fatal(err)
	}
	for _, stale := range []string{"intersect 3 sets", "short-circuits", "streaming plan:", "est ", "cost "} {
		if strings.Contains(plan, stale) {
			t.Errorf("plan still prints %q:\n%s", stale, plan)
		}
	}
	// Exactly one conjunct drives the stream. The = on the hashed color
	// column is answered by its posting, and the range rides along as
	// a per-row residual predicate.
	if got := strings.Count(plan, "driving scan:"); got != 1 {
		t.Errorf("driving scans = %d, want 1:\n%s", got, plan)
	}
	if got := strings.Count(plan, "intersect posting: color = ?\n"); got != 1 {
		t.Errorf("intersect postings on color = %d, want 1:\n%s", got, plan)
	}
	if got := strings.Count(plan, "pushed residual:"); got != 1 {
		t.Errorf("pushed residuals = %d, want 1:\n%s", got, plan)
	}
	for _, col := range []string{"make", "price", "color"} {
		if got := strings.Count(plan, col+" "); got != 1 {
			t.Errorf("condition on %s printed %d times, want 1:\n%s", col, got, plan)
		}
	}
}

// TestExplainDrivesFirstIndexedOperand pins the rule: statement order
// decides, an index-served leaf beats an earlier unindexed one, and
// with no index-served leaf the first leaf drives. A Type III equality
// is index-served (an ordered index point lookup), so it drives ahead
// of a later Type III range.
func TestExplainDrivesFirstIndexedOperand(t *testing.T) {
	db, _ := execDB(t)
	for _, tc := range []struct{ where, driving string }{
		{"make = 'honda' AND color = 'red' AND price < 9000", "make = ? via primary hash"},
		{"color = 'red' AND make = 'honda'", "color = ? via secondary hash"},
		{"price < 9000 AND make = 'honda'", "price < ? via ordered index"},
		{"make < 5 AND year BETWEEN 2000 AND 2005 AND color = 'red'", "year BETWEEN ? AND ? via ordered index"},
		{"price = 9000 AND model = 'accord'", "price = ? via ordered index point lookup (Type III)"},
		{"price = 9000 AND make > 3", "price = ? via ordered index point lookup (Type III)"},
		{"make > 3 AND year = 2005 AND price < 9000", "year = ? via ordered index point lookup (Type III)"},
		{"NOT make = 'honda' AND (color = 'red' OR color = 'blue') AND year > 2000", "year > ? via ordered index"},
	} {
		plan, err := explainString(db, "SELECT * FROM car_ads WHERE "+tc.where)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "driving scan: "+tc.driving) {
			t.Errorf("%s: want driving scan %q:\n%s", tc.where, tc.driving, plan)
		}
	}
}

// TestExplainStreamingPlanEagerFallback: a conjunction with no leaf to
// drive is driven by the live rows, with every operand a residual;
// there is no eager intersection left to fall back to.
func TestExplainStreamingPlanEagerFallback(t *testing.T) {
	db, _ := execDB(t)
	plan, err := explainString(db, `SELECT * FROM car_ads
		WHERE NOT make = 'honda' AND NOT transmission = 'manual'`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"driving scan: every live row (no leaf to drive)",
		"pushed residual: NOT make = ? (checked per row)",
		"pushed residual: NOT transmission = ? (checked per row)",
	} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
	if strings.Contains(plan, "eager") {
		t.Errorf("plan still has an eager fallback:\n%s", plan)
	}
}

func TestExplainNoWhere(t *testing.T) {
	db, _ := execDB(t)
	plan, err := explainString(db, "SELECT * FROM car_ads")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "full scan (no WHERE)") {
		t.Errorf("plan = %s", plan)
	}
}

func TestExplainUnknownTable(t *testing.T) {
	db, _ := execDB(t)
	for _, q := range []string{
		"SELECT * FROM ghost",
		"SELECT * FROM car_ads WHERE ghost = 1",
		"SELECT * FROM car_ads WHERE price < 'cheap'",
	} {
		if _, err := explainString(db, q); err == nil {
			t.Errorf("%s: want the compile error", q)
		}
	}
}
