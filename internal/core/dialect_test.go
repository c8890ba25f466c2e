package core_test

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/cqads"
	"repro/internal/boolean"
	"repro/internal/core"
	"repro/internal/questions"
	"repro/internal/schema"
	"repro/internal/shard/shardtest"
	"repro/internal/sql"
	"repro/internal/sqldb"
)

// foreignExpr is an Expr type the executor has never heard of.
type foreignExpr struct{}

func (foreignExpr) SQL() string { return "foreign" }

// nodePairs adds the (node type, operator) pair of every node of e.
func nodePairs(seen map[string]bool, e sql.Expr) {
	pair := fmt.Sprintf("%T", e)
	switch x := e.(type) {
	case *sql.Compare:
		pair += " " + string(x.Op)
	case *sql.And:
		for _, op := range x.Operands {
			nodePairs(seen, op)
		}
	case *sql.Or:
		for _, op := range x.Operands {
			nodePairs(seen, op)
		}
	case *sql.Not:
		nodePairs(seen, x.Operand)
	}
	seen[pair] = true
}

// TestDialectIsWhatBuildSelectEmits: the SQL subset is closed. Over
// the 650-question workload and a generated mix rich in negation,
// explicit OR, unanchored numbers and superlatives, the pairs
// BuildSelect emits are exactly dialect; sql.Compile accepts each of
// them and rejects <>, !=, LIKE and a foreign Expr type as
// unsupported. An operator the generator stops emitting, or one the
// executor starts accepting, fails here. Over the same statements,
// every conjunction is driven by an index lookup (checkDrivers) and
// the relaxation's per-condition stream yields exactly the executor's
// set (checkForEachMatch).
func TestDialectIsWhatBuildSelectEmits(t *testing.T) {
	opts := shardtest.Options(40)
	sys := shardtest.OpenMonolith(t, opts)
	defer sys.Close()
	asks := shardtest.Workload(t, opts, sys)
	mix := questions.DefaultOptions()
	mix.NegationRate, mix.ExplicitOrRate, mix.UnanchoredRate, mix.SuperlativeRate = 0.4, 0.3, 0.3, 0.3
	for i, d := range schema.DomainNames {
		tbl, _ := sys.DB().TableForDomain(d)
		for _, q := range questions.NewGenerator(tbl, int64(900+i)).Generate(40, mix) {
			asks = append(asks, q.Text)
		}
	}
	// Range phrasings the generator does not write: "max" is <=, and a
	// negated "between" keeps its BETWEEN.
	asks = append(asks, "toyota camry max $8000", "honda accord not between 5000 and 9000 dollars")
	seen := map[string]bool{}
	conjunctions, conditions := 0, 0
	for _, q := range asks {
		res, err := sys.Ask(q)
		if err != nil {
			t.Fatalf("ask %q: %v", q, err)
		}
		if res.SQL == "" {
			continue
		}
		tbl, _ := sys.DB().TableForDomain(res.Domain)
		sel := core.BuildSelect(tbl.Schema(), res.Interpretation, cqads.DefaultMaxAnswers)
		if sel.Where == nil {
			continue
		}
		nodePairs(seen, sel.Where)
		conjunctions += checkDrivers(t, sys.DB(), tbl, sel.Where)
		conditions += checkForEachMatch(t, sys.DB(), tbl, res.Interpretation)
	}
	t.Logf("checked %d conjunctions and %d conditions", conjunctions, conditions)
	if conjunctions < 100 || conditions < 500 {
		t.Errorf("checked %d conjunctions and %d conditions; the workload should reach far more", conjunctions, conditions)
	}
	// The dialect: every (node type, operator) pair of the subset, each
	// with an instance over car_ads.
	leaf := &sql.Compare{Column: "make", Op: sql.OpEq, Value: sqldb.String("honda")}
	dialect := map[string]sql.Expr{
		"*sql.And":        &sql.And{Operands: []sql.Expr{leaf, leaf}},
		"*sql.Between":    &sql.Between{Column: "price", Lo: 1, Hi: 2},
		"*sql.Compare <":  &sql.Compare{Column: "price", Op: sql.OpLt, Value: sqldb.Number(1)},
		"*sql.Compare <=": &sql.Compare{Column: "price", Op: sql.OpLe, Value: sqldb.Number(1)},
		"*sql.Compare =":  leaf,
		"*sql.Compare >":  &sql.Compare{Column: "price", Op: sql.OpGt, Value: sqldb.Number(1)},
		"*sql.Compare >=": &sql.Compare{Column: "price", Op: sql.OpGe, Value: sqldb.Number(1)},
		"*sql.Not":        &sql.Not{Operand: leaf},
		"*sql.Or":         &sql.Or{Operands: []sql.Expr{leaf, leaf}},
	}
	emitted, listed := slices.Sorted(maps.Keys(seen)), slices.Sorted(maps.Keys(dialect))
	if !slices.Equal(emitted, listed) {
		t.Fatalf("BuildSelect emits %v, the dialect is %v", emitted, listed)
	}
	for p, e := range dialect {
		if _, err := sql.Compile(sys.DB(), &sql.Select{Table: "car_ads", Where: e}); err != nil {
			t.Errorf("%s: Compile rejects %s: %v", p, e.SQL(), err)
		}
	}
	for _, e := range []sql.Expr{
		&sql.Compare{Column: "make", Op: "<>", Value: sqldb.String("honda")},
		&sql.Compare{Column: "make", Op: "!=", Value: sqldb.String("honda")},
		&sql.Compare{Column: "model", Op: "LIKE", Value: sqldb.String("%cord%")},
		foreignExpr{},
		&sql.Not{Operand: foreignExpr{}},
	} {
		_, err := sql.Compile(sys.DB(), &sql.Select{Table: "car_ads", Where: e})
		if err == nil || !strings.Contains(err.Error(), "unsupported") {
			t.Errorf("Compile(%s) = %v, want an unsupported error", e.SQL(), err)
		}
	}
}

// checkDrivers walks e and explains every conjunction in it on its
// own: each must be driven by an index lookup (hash or ordered), never
// by a scan or by the live rows. BuildSelect orders a group Type I →
// II → III and every plain condition it emits is index-served, so this
// fails only for a group whose conditions are all negated or
// multi-valued, which the workload does not generate. It returns how
// many conjunctions it checked.
func checkDrivers(t *testing.T, db *sqldb.DB, tbl *sqldb.Table, e sql.Expr) int {
	t.Helper()
	n := 0
	var ops []sql.Expr
	switch x := e.(type) {
	case *sql.And:
		ops = x.Operands
		plan, err := sql.Explain(db, &sql.Select{Table: tbl.Name(), Where: x})
		if err != nil {
			t.Fatalf("explain %s: %v", x.SQL(), err)
		}
		_, driver, _ := strings.Cut(plan, "driving scan: ")
		driver, _, _ = strings.Cut(driver, "\n")
		if !strings.Contains(driver, "index lookup") && !strings.Contains(driver, "ordered index") {
			t.Errorf("%s is driven by %q:\n%s", x.SQL(), driver, plan)
		}
		n++
	case *sql.Or:
		ops = x.Operands
	case *sql.Not:
		ops = []sql.Expr{x.Operand}
	}
	for _, op := range ops {
		n += checkDrivers(t, db, tbl, op)
	}
	return n
}

// checkForEachMatch holds the relaxation's per-condition stream to
// the executor: for every condition of in, the set sql.ForEachMatch
// yields (deduplicated) is the set sql.Exec returns for the statement
// BuildSelect makes of that condition alone. It returns how many
// conditions it checked.
func checkForEachMatch(t *testing.T, db *sqldb.DB, tbl *sqldb.Table, in *boolean.Interpretation) int {
	t.Helper()
	n := 0
	for _, c := range in.AllConditions() {
		alone := &boolean.Interpretation{Groups: []boolean.Group{{Conds: []boolean.Condition{c}}}}
		sel := core.BuildSelect(tbl.Schema(), alone, 0)
		want, err := sql.Exec(db, sel)
		if err != nil {
			t.Fatalf("exec %s: %v", sel.SQL(), err)
		}
		var got []sqldb.RowID
		if err := sql.ForEachMatch(tbl, sel.Where, func(id sqldb.RowID) { got = append(got, id) }); err != nil {
			t.Fatalf("ForEachMatch %s: %v", sel.SQL(), err)
		}
		slices.Sort(got)
		if got = slices.Compact(got); !slices.Equal(got, want) {
			t.Errorf("%s: ForEachMatch yields %d ids, Exec %d", sel.SQL(), len(got), len(want))
		}
		n++
	}
	return n
}
