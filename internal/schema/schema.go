// Package schema defines the relational schemas of the ads domains:
// attribute names, the Type I/II/III classification of Sec. 4.1.1, and
// the valid value ranges that drive incomplete-question repair
// (Sec. 4.2.2) and Num_Sim normalization (Eq. 4).
package schema

import "fmt"

// AttrType classifies an attribute per Sec. 4.1.1 of the paper.
type AttrType int

const (
	// TypeI attributes identify the product or service (primary-indexed
	// fields), e.g. Make and Model in the Cars domain.
	TypeI AttrType = iota + 1
	// TypeII attributes describe properties of the product
	// (secondary-indexed fields), e.g. Color, Transmission.
	TypeII
	// TypeIII attributes carry quantitative values, e.g. Price, Year.
	TypeIII
)

// String implements fmt.Stringer.
func (t AttrType) String() string {
	switch t {
	case TypeI:
		return "Type I"
	case TypeII:
		return "Type II"
	case TypeIII:
		return "Type III"
	}
	return fmt.Sprintf("AttrType(%d)", int(t))
}

// Attribute describes one column of an ads relation.
type Attribute struct {
	// Name is the column name, e.g. "make", "price".
	Name string
	// Type is the paper's Type I/II/III classification.
	Type AttrType
	// Min and Max bound the valid range of a Type III attribute. For
	// Types I/II they are zero. The range is the paper's
	// Attribute_Value_Range used both to decide whether an unanchored
	// numeric value can belong to this attribute (Sec. 4.2.2) and to
	// normalize Num_Sim (Eq. 4).
	Min, Max float64
	// Unit lists alternate unit keywords that identify this attribute
	// when they appear next to a number ("$", "usd", "dollars" for
	// price; "miles", "mi" for mileage). Units are themselves Type III
	// attribute values per Sec. 4.1.1.
	Unit []string
	// Values enumerates the valid domain values of a Type I/II
	// attribute. Used to build the tagging trie and to detect
	// mutually-exclusive values (two values of the same attribute).
	Values []string
}

// Range returns the width of the attribute's valid range.
func (a Attribute) Range() float64 { return a.Max - a.Min }

// InRange reports whether v lies in the attribute's valid range.
func (a Attribute) InRange(v float64) bool { return v >= a.Min && v <= a.Max }

// Schema is the relational schema of one ads domain.
type Schema struct {
	// Domain is the ads domain name, e.g. "cars".
	Domain string
	// Table is the backing relation name, e.g. "car_ads".
	Table string
	// Attrs lists the attributes in declaration order. Type I
	// attributes come first (primary index), then Type II, then
	// Type III, mirroring the evaluation order of Sec. 4.3.
	Attrs []Attribute
	// SuperlativeAttr maps complete-superlative keywords to the
	// attribute and direction they group by (Table 1: "cheapest" →
	// price ASC, "newest" → year DESC).
	SuperlativeAttr map[string]Superlative
}

// Superlative describes how a complete superlative keyword resolves in
// this domain.
type Superlative struct {
	// Attr is the Type III attribute the superlative ranks by.
	Attr string
	// Descending is true when the superlative wants the maximum
	// ("newest"), false for the minimum ("cheapest", "oldest").
	Descending bool
}

// Attr returns the attribute named name and whether it exists.
func (s *Schema) Attr(name string) (Attribute, bool) {
	for i := range s.Attrs {
		if s.Attrs[i].Name == name {
			return s.Attrs[i], true
		}
	}
	return Attribute{}, false
}

// AttrsOfType returns the attributes with the given type, in order.
func (s *Schema) AttrsOfType(t AttrType) []Attribute {
	var out []Attribute
	for _, a := range s.Attrs {
		if a.Type == t {
			out = append(out, a)
		}
	}
	return out
}

// NumericAttrs returns the Type III attributes of the schema.
func (s *Schema) NumericAttrs() []Attribute { return s.AttrsOfType(TypeIII) }

// AttrForUnit resolves a unit keyword ("dollars", "miles") to the
// Type III attribute it quantifies.
func (s *Schema) AttrForUnit(unit string) (Attribute, bool) {
	for _, a := range s.NumericAttrs() {
		for _, u := range a.Unit {
			if u == unit {
				return a, true
			}
		}
	}
	return Attribute{}, false
}

// Validate checks structural invariants: non-empty names, unique
// attribute names, at least one Type I attribute, positive ranges on
// Type III attributes, and superlatives referencing real attributes.
func (s *Schema) Validate() error {
	if s.Domain == "" || s.Table == "" {
		return fmt.Errorf("schema: domain and table must be non-empty")
	}
	seen := map[string]bool{}
	typeICount := 0
	for _, a := range s.Attrs {
		if a.Name == "" {
			return fmt.Errorf("schema %s: attribute with empty name", s.Domain)
		}
		if seen[a.Name] {
			return fmt.Errorf("schema %s: duplicate attribute %q", s.Domain, a.Name)
		}
		seen[a.Name] = true
		switch a.Type {
		case TypeI:
			typeICount++
			if len(a.Values) == 0 {
				return fmt.Errorf("schema %s: Type I attribute %q has no domain values", s.Domain, a.Name)
			}
		case TypeII:
			if len(a.Values) == 0 {
				return fmt.Errorf("schema %s: Type II attribute %q has no domain values", s.Domain, a.Name)
			}
		case TypeIII:
			if a.Max <= a.Min {
				return fmt.Errorf("schema %s: Type III attribute %q has empty range [%g,%g]", s.Domain, a.Name, a.Min, a.Max)
			}
		default:
			return fmt.Errorf("schema %s: attribute %q has invalid type %d", s.Domain, a.Name, int(a.Type))
		}
	}
	if typeICount == 0 {
		return fmt.Errorf("schema %s: no Type I attribute", s.Domain)
	}
	for kw, sup := range s.SuperlativeAttr {
		a, ok := s.Attr(sup.Attr)
		if !ok {
			return fmt.Errorf("schema %s: superlative %q references unknown attribute %q", s.Domain, kw, sup.Attr)
		}
		if a.Type != TypeIII {
			return fmt.Errorf("schema %s: superlative %q references non-numeric attribute %q", s.Domain, kw, sup.Attr)
		}
	}
	return nil
}
