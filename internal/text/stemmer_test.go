package text

import "testing"

func TestStemKnownForms(t *testing.T) {
	cases := map[string]string{
		"caresses":     "caress",
		"ponies":       "poni",
		"caress":       "caress",
		"cats":         "cat",
		"feed":         "feed",
		"agreed":       "agre",
		"plastered":    "plaster",
		"motoring":     "motor",
		"sing":         "sing",
		"conflated":    "conflat",
		"troubling":    "troubl",
		"sized":        "size",
		"hopping":      "hop",
		"falling":      "fall",
		"hissing":      "hiss",
		"failing":      "fail",
		"filing":       "file",
		"happy":        "happi",
		"sky":          "sky",
		"relational":   "relat",
		"conditional":  "condit",
		"rational":     "ration",
		"valency":      "valenc",
		"digitizer":    "digit",
		"operator":     "oper",
		"feudalism":    "feudal",
		"decisiveness": "decis",
		"hopefulness":  "hope",
		"formality":    "formal",
		"sensitivity":  "sensit",
		"triplicate":   "triplic",
		"formative":    "form",
		"formalize":    "formal",
		"electrical":   "electr",
		"hopeful":      "hope",
		"goodness":     "good",
		"revival":      "reviv",
		"allowance":    "allow",
		"inference":    "infer",
		"airliner":     "airlin",
		"adjustable":   "adjust",
		"defensible":   "defens",
		"irritant":     "irrit",
		"replacement":  "replac",
		"adjustment":   "adjust",
		"dependent":    "depend",
		"adoption":     "adopt",
		"homologou":    "homolog",
		"communism":    "commun",
		"activate":     "activ",
		"angulariti":   "angular",
		"homologous":   "homolog",
		"effective":    "effect",
		"bowdlerize":   "bowdler",
		"probate":      "probat",
		"rate":         "rate",
		"cease":        "ceas",
		"controll":     "control",
		"roll":         "roll",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemShortAndCase(t *testing.T) {
	if Stem("at") != "at" {
		t.Error("two-letter words should pass through")
	}
	if Stem("RUNNING") != Stem("running") {
		t.Error("stemming should be case-insensitive")
	}
}

func TestStemIdempotentOnCommonWords(t *testing.T) {
	// Stemming a stem should usually be stable for our vocabulary;
	// check the domain vocabulary words used by the WS-matrix.
	for _, w := range []string{"automatic", "manual", "leather", "fiberglass", "electric"} {
		once := Stem(w)
		twice := Stem(once)
		if once != twice {
			t.Errorf("Stem not stable on %q: %q -> %q", w, once, twice)
		}
	}
}
