package cqads

import (
	"testing"
)

func openSmall(t *testing.T) *System {
	t.Helper()
	sys, err := Open(Options{Seed: 42, AdsPerDomain: 200})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestOpenAndAsk(t *testing.T) {
	sys := openSmall(t)
	res, err := sys.Ask("cheapest 2 door red honda civic")
	if err != nil {
		t.Fatal(err)
	}
	if res.Domain != "cars" {
		t.Errorf("classified domain = %q, want cars", res.Domain)
	}
	if res.Interpretation == nil || res.SQL == "" {
		t.Error("result missing interpretation or SQL")
	}
}

func TestOpenDomainSubset(t *testing.T) {
	sys, err := Open(Options{Seed: 7, AdsPerDomain: 100, Domains: []string{"jewellery"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Domains(); len(got) != 1 || got[0] != "jewellery" {
		t.Fatalf("domains = %v", got)
	}
	res, err := sys.AskInDomain("jewellery", "gold ring with diamond under 2000 dollars")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Error("no answers at all")
	}
}

func TestDomainNamesCopy(t *testing.T) {
	a := DomainNames()
	a[0] = "mutated"
	if DomainNames()[0] == "mutated" {
		t.Error("DomainNames returned shared slice")
	}
	if len(DomainNames()) != 8 {
		t.Errorf("domains = %d", len(DomainNames()))
	}
}

func TestOpenDeterministic(t *testing.T) {
	a := openSmall(t)
	b := openSmall(t)
	q := "blue manual toyota under $9000"
	ra, err := a.AskInDomain("cars", q)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.AskInDomain("cars", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.Answers) != len(rb.Answers) {
		t.Fatalf("answer counts differ: %d vs %d", len(ra.Answers), len(rb.Answers))
	}
	for i := range ra.Answers {
		if ra.Answers[i].ID != rb.Answers[i].ID {
			t.Fatalf("answer %d differs", i)
		}
	}
}
