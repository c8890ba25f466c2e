// Package schemagen implements the second future-work item of Sec. 6:
// "automated database schema generation". Given a sample of raw ads
// records (attribute → value maps, as the paper's extraction tool [17]
// produces), it infers a schema.Schema: which attributes are
// quantitative (Type III) with what valid ranges, and which
// categorical attributes are the product identifiers (Type I) versus
// descriptive properties (Type II).
//
// The classification heuristics follow the paper's definitions
// (Sec. 4.1.1):
//
//   - Type III: "quantitative values" — attributes whose values are
//     overwhelmingly numeric.
//   - Type I: "the unique identifier of PS ... required values" —
//     categorical attributes that are (a) almost never missing and
//     (b) high-cardinality relative to the other categorical
//     attributes (identifiers distinguish products; properties like
//     color or transmission repeat from a small value pool).
//   - Type II: the remaining categorical attributes.
package schemagen

import (
	"fmt"
	"sort"

	"repro/internal/schema"
	"repro/internal/sqldb"
)

// Options tunes inference.
type Options struct {
	// NumericThreshold is the fraction of non-null values that must be
	// numeric for an attribute to be Type III (default 0.9).
	NumericThreshold float64
	// RequiredCoverage is the minimum non-null fraction for a Type I
	// candidate (identifiers are "required values", default 0.95).
	RequiredCoverage float64
	// MaxTypeI caps how many attributes are promoted to Type I
	// (default 2, matching Make+Model-style identifier pairs).
	MaxTypeI int
	// RangeMargin widens inferred Type III ranges by this fraction of
	// the observed span on each side (default 0.05), since a sample
	// rarely contains the true extremes.
	RangeMargin float64
}

// DefaultOptions returns the defaults documented on Options.
func DefaultOptions() Options {
	return Options{
		NumericThreshold: 0.9,
		RequiredCoverage: 0.95,
		MaxTypeI:         2,
		RangeMargin:      0.05,
	}
}

// attrStats accumulates per-attribute observations.
type attrStats struct {
	name     string
	total    int // records seen
	present  int // non-null occurrences
	numeric  int // numeric occurrences
	min, max float64
	values   map[string]int // distinct categorical values with counts
}

// Infer derives a schema from sample records for the named domain.
// records must share an attribute vocabulary; at least one record and
// one categorical attribute are required (a schema needs a Type I).
func Infer(domain, table string, records []map[string]sqldb.Value, opts Options) (*schema.Schema, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("schemagen: no sample records")
	}
	if opts.NumericThreshold == 0 {
		opts = DefaultOptions()
	}
	stats := map[string]*attrStats{}
	order := []string{}
	for _, rec := range records {
		for name := range rec {
			if _, ok := stats[name]; !ok {
				stats[name] = &attrStats{name: name, values: map[string]int{}}
				order = append(order, name)
			}
		}
	}
	sort.Strings(order)
	for _, rec := range records {
		for _, name := range order {
			st := stats[name]
			st.total++
			v, ok := rec[name]
			if !ok || v.IsNull() {
				continue
			}
			st.present++
			if v.IsNumber() {
				n := v.Num()
				if st.numeric == 0 || n < st.min {
					st.min = n
				}
				if st.numeric == 0 || n > st.max {
					st.max = n
				}
				st.numeric++
			} else {
				st.values[v.Str()]++
			}
		}
	}

	// Phase 1: split numeric vs categorical.
	var numeric, categorical []*attrStats
	for _, name := range order {
		st := stats[name]
		if st.present == 0 {
			continue // attribute never populated: drop
		}
		if float64(st.numeric)/float64(st.present) >= opts.NumericThreshold {
			numeric = append(numeric, st)
		} else {
			categorical = append(categorical, st)
		}
	}
	if len(categorical) == 0 {
		return nil, fmt.Errorf("schemagen: no categorical attribute to serve as Type I")
	}

	// Phase 2: rank categorical attributes for Type I: required
	// coverage first, then cardinality (identifiers draw from larger
	// value pools than properties).
	ranked := append([]*attrStats{}, categorical...)
	sort.SliceStable(ranked, func(i, j int) bool {
		ci := float64(ranked[i].present) / float64(ranked[i].total)
		cj := float64(ranked[j].present) / float64(ranked[j].total)
		qi, qj := ci >= opts.RequiredCoverage, cj >= opts.RequiredCoverage
		if qi != qj {
			return qi
		}
		if len(ranked[i].values) != len(ranked[j].values) {
			return len(ranked[i].values) > len(ranked[j].values)
		}
		return ranked[i].name < ranked[j].name
	})
	typeI := map[string]bool{}
	for i := 0; i < len(ranked) && i < opts.MaxTypeI; i++ {
		if float64(ranked[i].present)/float64(ranked[i].total) >= opts.RequiredCoverage {
			typeI[ranked[i].name] = true
		}
	}
	if len(typeI) == 0 {
		// Fall back to the best-ranked categorical attribute so the
		// schema always has an identifier.
		typeI[ranked[0].name] = true
	}

	// Phase 3: assemble the schema in the conventional order
	// (Type I, Type II, Type III) with deterministic value lists.
	out := &schema.Schema{Domain: domain, Table: table}
	appendCat := func(st *attrStats, t schema.AttrType) {
		vals := make([]string, 0, len(st.values))
		for v := range st.values {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		out.Attrs = append(out.Attrs, schema.Attribute{Name: st.name, Type: t, Values: vals})
	}
	for _, st := range categorical {
		if typeI[st.name] {
			appendCat(st, schema.TypeI)
		}
	}
	for _, st := range categorical {
		if !typeI[st.name] {
			appendCat(st, schema.TypeII)
		}
	}
	for _, st := range numeric {
		span := st.max - st.min
		if span == 0 {
			span = 1
		}
		// float64(x*y) rounds the product, so no CPU fuses it with the add.
		margin := float64(span * opts.RangeMargin)
		out.Attrs = append(out.Attrs, schema.Attribute{
			Name: st.name,
			Type: schema.TypeIII,
			Min:  st.min - margin,
			Max:  st.max + margin,
		})
	}
	attachDefaultSuperlatives(out)
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("schemagen: inferred schema invalid: %w", err)
	}
	return out, nil
}

// attachDefaultSuperlatives wires the conventional superlative
// keywords for well-known quantitative attribute names, so questions
// like "cheapest ..." work against inferred schemas without manual
// identifier-table edits (partial superlatives such as "lowest price"
// always work, since they resolve through the attribute keyword).
func attachDefaultSuperlatives(s *schema.Schema) {
	add := func(kw, attr string, desc bool) {
		if _, ok := s.Attr(attr); !ok {
			return
		}
		if s.SuperlativeAttr == nil {
			s.SuperlativeAttr = map[string]schema.Superlative{}
		}
		if _, exists := s.SuperlativeAttr[kw]; !exists {
			s.SuperlativeAttr[kw] = schema.Superlative{Attr: attr, Descending: desc}
		}
	}
	add("cheapest", "price", false)
	add("inexpensive", "price", false)
	add("newest", "year", true)
	add("latest", "year", true)
	add("oldest", "year", false)
	add("earliest", "year", false)
	add("highest", "salary", true)
	add("lowest", "salary", false)
}

// InferFromTable samples every record of an existing table, useful
// for re-deriving a schema from already-loaded ads.
func InferFromTable(domain, table string, tbl *sqldb.Table, opts Options) (*schema.Schema, error) {
	records := make([]map[string]sqldb.Value, 0, tbl.Len())
	for _, id := range tbl.AllRowIDs() {
		records = append(records, tbl.RecordMap(id))
	}
	return Infer(domain, table, records, opts)
}

// Agreement compares an inferred schema against a reference and
// returns the fraction of reference attributes whose Type matches,
// plus the per-attribute mismatches. Used by tests and the schema-
// inference example to quantify inference quality.
func Agreement(inferred, reference *schema.Schema) (float64, []string) {
	if len(reference.Attrs) == 0 {
		return 0, nil
	}
	match := 0
	var mismatches []string
	for _, want := range reference.Attrs {
		got, ok := inferred.Attr(want.Name)
		switch {
		case !ok:
			mismatches = append(mismatches, fmt.Sprintf("%s: missing", want.Name))
		case got.Type != want.Type:
			mismatches = append(mismatches, fmt.Sprintf("%s: %v, want %v", want.Name, got.Type, want.Type))
		default:
			match++
		}
	}
	return float64(match) / float64(len(reference.Attrs)), mismatches
}
