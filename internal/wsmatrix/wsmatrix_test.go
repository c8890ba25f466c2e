package wsmatrix

import (
	"strings"
	"testing"

	"repro/internal/schema"
)

func TestBuildSmallCorpus(t *testing.T) {
	corpus := [][]string{
		{"red", "paint", "blue", "paint", "green"},
		{"red", "blue", "wall", "green", "red"},
		{"engine", "oil", "engine", "filter"},
	}
	m := Build(corpus)
	if m.Size() == 0 {
		t.Fatal("empty matrix")
	}
	// Co-occurring colors correlate; color and engine do not.
	if m.Sim("red", "blue") <= 0 {
		t.Error("red~blue should be positive")
	}
	if m.Sim("red", "engine") != 0 {
		t.Error("red~engine should be 0 (never co-occur)")
	}
	// Identical stems score the max.
	if m.Sim("red", "red") != m.max {
		t.Error("self-similarity should be Max()")
	}
	// Unknown words score 0.
	if m.Sim("red", "zeppelin") != 0 {
		t.Error("unknown word should be 0")
	}
}

func TestBuildStemsAndStopwords(t *testing.T) {
	corpus := [][]string{
		{"running", "the", "race", "runs", "a", "race"},
	}
	m := Build(corpus)
	// "running" and "runs" share the stem "run": same-word max.
	if m.Sim("running", "runs") != m.max {
		t.Error("inflections of one word should share similarity")
	}
	// Stopwords must not enter the vocabulary.
	if m.Sim("the", "race") != 0 {
		t.Error("stopword survived into the matrix")
	}
}

func TestDistanceWeighting(t *testing.T) {
	// Adjacent pairs correlate more than distant pairs with the same
	// frequency.
	corpus := [][]string{
		{"near", "pair", "x1", "x2", "x3", "x4", "x5", "x6", "x7", "far"},
		{"near", "pair", "y1", "y2", "y3", "y4", "y5", "y6", "y7", "far"},
	}
	m := Build(corpus)
	if m.Sim("near", "pair") <= m.Sim("near", "far") {
		t.Errorf("distance weighting inverted: adjacent %g <= distant %g",
			m.Sim("near", "pair"), m.Sim("near", "far"))
	}
}

func TestPhraseSim(t *testing.T) {
	corpus := [][]string{
		{"wheel", "drive", "wheel", "drive", "traction"},
		{"wheel", "drive", "traction", "control"},
	}
	m := Build(corpus)
	s := m.PhraseSim("4 wheel drive", "all wheel drive")
	if s <= 0 {
		t.Errorf("PhraseSim over shared words = %g", s)
	}
	if m.PhraseSim("", "x") != 0 {
		t.Error("empty phrase should be 0")
	}
}

func TestGenerateCorpusStructure(t *testing.T) {
	schemas := []*schema.Schema{schema.Cars()}
	corpus := GenerateCorpus(schemas, 10, 3)
	// 4 Type II attributes in cars × 10 docs.
	if len(corpus) != 40 {
		t.Fatalf("corpus size = %d, want 40", len(corpus))
	}
	for _, doc := range corpus {
		if len(doc) == 0 {
			t.Fatal("empty document generated")
		}
	}
}

func TestBuildForDomainsSameAttributeCorrelates(t *testing.T) {
	m := BuildForDomains([]*schema.Schema{schema.Cars()}, 40, 3)
	// Values of the same Type II attribute (colors) co-occur in the
	// synthetic topical docs; values of different attributes rarely
	// do. Averages over the attribute pairs should reflect that.
	s := schema.Cars()
	colors, _ := s.Attr("color")
	trans, _ := s.Attr("transmission")
	within, cross := 0.0, 0.0
	nw, nc := 0, 0
	for i, a := range colors.Values {
		for _, b := range colors.Values[i+1:] {
			within += m.PhraseSim(a, b)
			nw++
		}
		for _, b := range trans.Values {
			cross += m.PhraseSim(a, b)
			nc++
		}
	}
	if within/float64(nw) <= cross/float64(nc) {
		t.Errorf("within-attribute similarity %g <= cross-attribute %g",
			within/float64(nw), cross/float64(nc))
	}
}

func TestNormSimBounds(t *testing.T) {
	m := BuildForDomains([]*schema.Schema{schema.Cars()}, 20, 3)
	s := schema.Cars()
	for _, a := range s.AttrsOfType(schema.TypeII) {
		for _, v := range a.Values {
			for _, w := range a.Values {
				n := m.NormSim(v, w)
				if n < 0 || n > 1 {
					t.Fatalf("NormSim(%q,%q) = %g", v, w, n)
				}
			}
		}
	}
}

// seed42Matrix is the WS-matrix a seed-42 system builds: every
// domain's schema, 40 documents per topic, corpus seed 42+202.
func seed42Matrix() *Matrix {
	var schemas []*schema.Schema
	for _, d := range schema.DomainNames {
		schemas = append(schemas, schema.ByName(d))
	}
	return BuildForDomains(schemas, 40, 42+202)
}

// TestNormSimClampsOvershoot: PhraseSim averages float sums, so a
// value repeating a question word many times can land a hair above
// Max(). NormSim is one Eq. 5 term and must stay ≤ 1, or Rank_Sim
// could pass N. On every pair of vocabulary values the clamp is a
// no-op, so no seed-42 answer moves.
func TestNormSimClampsOvershoot(t *testing.T) {
	m := seed42Matrix()
	if m.max != 1.354030257936506 {
		t.Fatalf("seed-42 max = %v; the overshoot cases below were found on 1.354030257936506", m.max)
	}
	for _, c := range [][2]string{
		{"4 wheel drive", "4 wheel drive 4 wheel drive 4 wheel drive 4 wheel drive 4"},
		{"leather", strings.Repeat("leather ", 13)},
	} {
		if raw := m.PhraseSim(c[0], c[1]) / m.max; raw <= 1 {
			t.Errorf("PhraseSim/Max(%q, %q) = %v, expected the float overshoot", c[0], c[1], raw)
		}
		if got := m.NormSim(c[0], c[1]); got != 1 {
			t.Errorf("NormSim(%q, %q) = %v, want 1", c[0], c[1], got)
		}
	}
	var values []string
	for _, d := range schema.DomainNames {
		for _, a := range schema.ByName(d).AttrsOfType(schema.TypeII) {
			values = append(values, a.Values...)
		}
	}
	for _, v := range values {
		for _, w := range values {
			if got, raw := m.NormSim(v, w), m.PhraseSim(v, w)/m.max; got != raw {
				t.Fatalf("NormSim(%q, %q) = %v, unclamped %v: the clamp moved a vocabulary pair", v, w, got, raw)
			}
		}
	}
}
