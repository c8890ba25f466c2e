package schema

import "testing"

func TestAllDomainsValid(t *testing.T) {
	for _, name := range DomainNames {
		s := ByName(name)
		if err := s.Validate(); err != nil {
			t.Errorf("domain %s: %v", name, err)
		}
		if s.Domain != name {
			t.Errorf("domain %s: Domain field = %q", name, s.Domain)
		}
	}
	if len(DomainNames) != 8 {
		t.Errorf("paper evaluates 8 domains, got %d", len(DomainNames))
	}
}

func TestDomainsReturnsCopies(t *testing.T) {
	for _, name := range DomainNames {
		a, b := ByName(name), ByName(name)
		a.Attrs[0].Name = "mutated"
		if b.Attrs[0].Name == "mutated" {
			t.Errorf("ByName(%q) returned a shared schema instance", name)
		}
	}
}

func TestByNameUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ByName(unknown) did not panic")
		}
	}()
	ByName("no-such-domain")
}

func TestAttrLookups(t *testing.T) {
	s := Cars()
	a, ok := s.Attr("price")
	if !ok || a.Type != TypeIII {
		t.Fatalf("price attr = %+v, ok=%v", a, ok)
	}
	if _, ok := s.Attr("nonexistent"); ok {
		t.Error("Attr(nonexistent) should fail")
	}
}

func TestAttrForUnit(t *testing.T) {
	s := Cars()
	a, ok := s.AttrForUnit("$")
	if !ok || a.Name != "price" {
		t.Errorf("AttrForUnit($) = %+v, %v", a, ok)
	}
	a, ok = s.AttrForUnit("miles")
	if !ok || a.Name != "mileage" {
		t.Errorf("AttrForUnit(miles) = %+v, %v", a, ok)
	}
	if _, ok := s.AttrForUnit("furlongs"); ok {
		t.Error("AttrForUnit(furlongs) should fail")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Schema)
	}{
		{"empty domain", func(s *Schema) { s.Domain = "" }},
		{"duplicate attr", func(s *Schema) {
			s.Attrs = append(s.Attrs, Attribute{Name: "make", Type: TypeII, Values: []string{"x"}})
		}},
		{"no type I", func(s *Schema) {
			var kept []Attribute
			for _, a := range s.Attrs {
				if a.Type != TypeI {
					kept = append(kept, a)
				}
			}
			s.Attrs = kept
		}},
		{"empty range", func(s *Schema) {
			for i := range s.Attrs {
				if s.Attrs[i].Name == "price" {
					s.Attrs[i].Max = s.Attrs[i].Min
				}
			}
		}},
		{"typeI no values", func(s *Schema) {
			for i := range s.Attrs {
				if s.Attrs[i].Type == TypeI {
					s.Attrs[i].Values = nil
				}
			}
		}},
		{"bad superlative attr", func(s *Schema) { s.SuperlativeAttr["weirdest"] = Superlative{Attr: "ghost"} }},
		{"superlative on categorical", func(s *Schema) { s.SuperlativeAttr["reddest"] = Superlative{Attr: "color"} }},
		{"invalid attr type", func(s *Schema) { s.Attrs[0].Type = 0 }},
	}
	for _, c := range cases {
		s := Cars()
		c.mod(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate() passed, want error", c.name)
		}
	}
}

func TestRangeAndInRange(t *testing.T) {
	a := Attribute{Name: "price", Type: TypeIII, Min: 500, Max: 80000}
	if a.Range() != 79500 {
		t.Errorf("Range = %g", a.Range())
	}
	if !a.InRange(500) || !a.InRange(80000) || a.InRange(499) || a.InRange(80001) {
		t.Error("InRange boundaries wrong")
	}
}

func TestAttrsOfTypeOrdering(t *testing.T) {
	s := Cars()
	t1 := s.AttrsOfType(TypeI)
	if len(t1) != 2 || t1[0].Name != "make" || t1[1].Name != "model" {
		t.Errorf("TypeI attrs = %+v", t1)
	}
	if n := len(s.NumericAttrs()); n != 3 {
		t.Errorf("numeric attrs = %d, want 3", n)
	}
}
