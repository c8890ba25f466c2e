// Package questions generates the natural-language test questions
// that stand in for the paper's Facebook surveys (Sec. 5.1): each
// question is rendered from machine-readable ground-truth selection
// criteria sampled from real records of the ads database, with
// configurable noise — misspellings, dropped spaces, shorthand
// notations, unanchored numbers, negations, mutually-exclusive value
// pairs, and explicit Boolean operators — so that every repair and
// interpretation path of CQAds is exercised with a known intent.
package questions

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/boolean"
	"repro/internal/schema"
	"repro/internal/sqldb"
)

// Question is one generated test question with its ground truth.
type Question struct {
	// Text is the rendered natural-language question.
	Text string
	// Domain is the ads domain the question belongs to.
	Domain string
	// Conds is the intended interpretation (flat conjunction unless
	// Groups is set).
	Conds []boolean.Condition
	// Groups carries multi-subexpression intent for Boolean questions
	// ("X or Y"); nil means the single conjunction Conds.
	Groups []boolean.Group
	// Superlative is the intended superlative, if any.
	Superlative *boolean.SuperlativeSpec
	// Noise flags record which perturbations were applied.
	Misspelled, SpaceDropped, Shorthand, Unanchored bool
	// IsBoolean marks implicit/explicit Boolean questions; Explicit
	// distinguishes questions with literal and/or operators.
	IsBoolean, Explicit bool
}

// TruthGroups returns the intended OR-groups (wrapping Conds when
// Groups is nil).
func (q *Question) TruthGroups() []boolean.Group {
	if q.Groups != nil {
		return q.Groups
	}
	return []boolean.Group{{Conds: q.Conds}}
}

// Options configures generation. Rates are probabilities in [0,1].
type Options struct {
	MinConds, MaxConds int
	MisspellRate       float64
	SpaceDropRate      float64
	ShorthandRate      float64
	UnanchoredRate     float64
	SuperlativeRate    float64
	NegationRate       float64
	MutexRate          float64 // mutually-exclusive second value
	MutexAndRate       float64 // mutually-exclusive pair joined by a literal "and"
	ExplicitOrRate     float64 // second Type I subexpression joined by "or"
}

// DefaultOptions mirrors the survey mix the paper reports: mostly
// plain conjunctive questions, ~20% Boolean phenomena, ~5% explicit
// operators (Sec. 4.4, Sec. 4.4.2), with light typo noise.
func DefaultOptions() Options {
	return Options{
		MinConds:        1,
		MaxConds:        4,
		MisspellRate:    0.08,
		SpaceDropRate:   0.04,
		ShorthandRate:   0.10,
		UnanchoredRate:  0.08,
		SuperlativeRate: 0.10,
		NegationRate:    0.10,
		MutexRate:       0.08,
		ExplicitOrRate:  0.05,
	}
}

// CleanOptions disables all noise, for experiments that isolate one
// phenomenon.
func CleanOptions() Options {
	return Options{MinConds: 1, MaxConds: 4}
}

// Generator renders questions for one populated domain table.
type Generator struct {
	rng *rand.Rand
	tbl *sqldb.Table
	sch *schema.Schema
}

// NewGenerator builds a generator over tbl, seeded deterministically.
func NewGenerator(tbl *sqldb.Table, seed int64) *Generator {
	return &Generator{
		rng: rand.New(rand.NewSource(seed)),
		tbl: tbl,
		sch: tbl.Schema(),
	}
}

// Generate produces n questions per opts.
func (g *Generator) Generate(n int, opts Options) []Question {
	if opts.MinConds < 1 {
		opts.MinConds = 1
	}
	if opts.MaxConds < opts.MinConds {
		opts.MaxConds = opts.MinConds
	}
	out := make([]Question, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, g.one(opts))
	}
	return out
}

// one builds a single question: sample a record, derive conditions
// from its values, render phrases, apply noise.
func (g *Generator) one(opts Options) Question {
	q := Question{Domain: g.sch.Domain}
	id := sqldb.RowID(g.rng.Intn(g.tbl.Len()))

	k := opts.MinConds + g.rng.Intn(opts.MaxConds-opts.MinConds+1)
	conds, phrases := g.sampleConditions(id, k, opts, &q)
	q.Conds = conds

	if g.rng.Float64() < opts.SuperlativeRate && len(g.sch.SuperlativeAttr) > 0 {
		kw, spec := g.pickSuperlative()
		q.Superlative = &spec
		phrases = append([]string{kw}, phrases...)
	}

	// Explicit OR: append a second Type I subexpression.
	if g.rng.Float64() < opts.ExplicitOrRate {
		if alt, altPhrase, ok := g.alternativeTypeI(conds); ok {
			q.Groups = []boolean.Group{{Conds: conds}, {Conds: alt}}
			q.IsBoolean, q.Explicit = true, true
			phrases = append(phrases, "or", altPhrase)
		}
	}

	q.Text = g.render(phrases)
	q.Text = g.applyTextNoise(q.Text, opts, &q)
	return q
}

// sampleConditions derives k conditions from record id's values,
// covering each attribute at most once and preferring the Type I
// identifiers first (users "invariably include the Make and Model",
// Sec. 4.1).
func (g *Generator) sampleConditions(id sqldb.RowID, k int, opts Options, q *Question) ([]boolean.Condition, []string) {
	var conds []boolean.Condition
	var phrases []string
	attrs := g.attrPlan(k)
	for _, a := range attrs {
		v := g.tbl.Value(id, a.Name)
		if v.IsNull() {
			continue
		}
		switch a.Type {
		case schema.TypeI, schema.TypeII:
			c := boolean.Condition{Attr: a.Name, Type: a.Type, Values: []string{v.Str()}}
			phrase := v.Str()
			if a.Type == schema.TypeII {
				switch {
				case g.rng.Float64() < opts.NegationRate:
					// Negate a DIFFERENT value of the attribute so the
					// record remains a correct answer.
					if alt, ok := g.otherValue(a, v.Str()); ok {
						c.Values = []string{alt}
						c.Negated = true
						q.IsBoolean = true
						phrase = negationWord(g.rng) + " " + alt
					}
				case g.rng.Float64() < opts.MutexRate:
					if alt, ok := g.otherValue(a, v.Str()); ok {
						c.Values = append(c.Values, alt)
						q.IsBoolean = true
						phrase = v.Str() + " " + alt
					}
				case g.rng.Float64() < opts.MutexAndRate:
					// "black and grey": mutually-exclusive values
					// joined by a literal AND. The survey-majority
					// reading (the paper's Q3/Q8 analysis) is the
					// disjunction, which is the recorded truth.
					if alt, ok := g.otherValue(a, v.Str()); ok {
						c.Values = append(c.Values, alt)
						q.IsBoolean, q.Explicit = true, true
						phrase = v.Str() + " and " + alt
					}
				case g.rng.Float64() < opts.ShorthandRate:
					if sh, ok := makeShorthand(v.Str()); ok {
						q.Shorthand = true
						phrase = sh
					}
				}
			}
			conds = append(conds, c)
			phrases = append(phrases, phrase)
		case schema.TypeIII:
			c, phrase := g.numericCondition(a, v.Num(), opts, q)
			conds = append(conds, c)
			phrases = append(phrases, phrase)
		}
	}
	return conds, phrases
}

// attrPlan picks which attributes to constrain: always the first
// Type I attribute, then a shuffled mix of the rest.
func (g *Generator) attrPlan(k int) []schema.Attribute {
	typeI := g.sch.AttrsOfType(schema.TypeI)
	rest := append(g.sch.AttrsOfType(schema.TypeII), g.sch.AttrsOfType(schema.TypeIII)...)
	g.rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	plan := []schema.Attribute{typeI[g.rng.Intn(len(typeI))]}
	for _, a := range rest {
		if len(plan) >= k {
			break
		}
		plan = append(plan, a)
	}
	return plan
}

// numericCondition renders a boundary or equality over attribute a
// anchored at record value v.
func (g *Generator) numericCondition(a schema.Attribute, v float64, opts Options, q *Question) (boolean.Condition, string) {
	c := boolean.Condition{Attr: a.Name, Type: schema.TypeIII}
	unanchored := g.rng.Float64() < opts.UnanchoredRate
	style := g.rng.Intn(3)
	switch style {
	case 0: // upper bound
		c.Op = boolean.OpLt
		// float64(x*y) rounds the product, so no CPU fuses it with the add.
		c.X = roundNice(v * (1.15 + float64(0.4*g.rng.Float64())))
		if c.X > a.Max {
			c.X = a.Max
		}
		word := []string{"less than", "under", "below"}[g.rng.Intn(3)]
		if unanchored && a.Name != "year" {
			q.Unanchored = true
			return c, fmt.Sprintf("%s %s", word, formatNum(c.X))
		}
		return c, fmt.Sprintf("%s %s", word, g.withUnit(a, c.X))
	case 1: // lower bound
		c.Op = boolean.OpGt
		c.X = roundNice(v * (0.5 + float64(0.3*g.rng.Float64())))
		if c.X < a.Min {
			c.X = a.Min
		}
		word := []string{"more than", "over", "above"}[g.rng.Intn(3)]
		return c, fmt.Sprintf("%s %s", word, g.withUnit(a, c.X))
	default: // equality (year-style)
		c.Op = boolean.OpEq
		c.X = v
		if unanchored {
			q.Unanchored = true
			return c, formatNum(v)
		}
		return c, fmt.Sprintf("%s %s", a.Name, formatNum(v))
	}
}

// withUnit renders a value with one of the attribute's unit words, or
// the attribute name when it has no units.
func (g *Generator) withUnit(a schema.Attribute, v float64) string {
	if len(a.Unit) == 0 {
		return fmt.Sprintf("%s %s", a.Name, formatNum(v))
	}
	u := a.Unit[g.rng.Intn(len(a.Unit))]
	if u == "$" {
		return "$" + formatNum(v)
	}
	return formatNum(v) + " " + u
}

func (g *Generator) pickSuperlative() (string, boolean.SuperlativeSpec) {
	kws := make([]string, 0, len(g.sch.SuperlativeAttr))
	for kw := range g.sch.SuperlativeAttr {
		kws = append(kws, kw)
	}
	// Deterministic order before random pick.
	sortStrings(kws)
	kw := kws[g.rng.Intn(len(kws))]
	sup := g.sch.SuperlativeAttr[kw]
	return kw, boolean.SuperlativeSpec{Attr: sup.Attr, Descending: sup.Descending, Source: kw}
}

// alternativeTypeI builds a second Type I conjunction different from
// the one in conds, for explicit-OR questions.
func (g *Generator) alternativeTypeI(conds []boolean.Condition) ([]boolean.Condition, string, bool) {
	for _, c := range conds {
		if c.Type != schema.TypeI {
			continue
		}
		a, _ := g.sch.Attr(c.Attr)
		alt, ok := g.otherValue(a, c.Values[0])
		if !ok {
			return nil, "", false
		}
		return []boolean.Condition{{Attr: c.Attr, Type: schema.TypeI, Values: []string{alt}}}, alt, true
	}
	return nil, "", false
}

func (g *Generator) otherValue(a schema.Attribute, not string) (string, bool) {
	if len(a.Values) < 2 {
		return "", false
	}
	for tries := 0; tries < 8; tries++ {
		v := a.Values[g.rng.Intn(len(a.Values))]
		if v != not {
			return v, true
		}
	}
	return "", false
}

var preambles = []string{
	"do you have a", "i want a", "find", "looking for a", "show me",
	"any", "i need a", "", "seeking a",
}

func (g *Generator) render(phrases []string) string {
	pre := preambles[g.rng.Intn(len(preambles))]
	parts := make([]string, 0, len(phrases)+1)
	if pre != "" {
		parts = append(parts, pre)
	}
	parts = append(parts, phrases...)
	return strings.Join(parts, " ")
}

// applyTextNoise perturbs the rendered text: one misspelled word
// and/or one dropped inter-word space.
func (g *Generator) applyTextNoise(text string, opts Options, q *Question) string {
	if g.rng.Float64() < opts.MisspellRate {
		if noisy, ok := misspellOneWord(text, g.rng); ok {
			text = noisy
			q.Misspelled = true
		}
	}
	if g.rng.Float64() < opts.SpaceDropRate {
		if noisy, ok := dropOneSpace(text, g.rng); ok {
			text = noisy
			q.SpaceDropped = true
		}
	}
	return text
}

func negationWord(rng *rand.Rand) string {
	return []string{"not", "no", "without", "except"}[rng.Intn(4)]
}
