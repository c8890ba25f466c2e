// Package adsgen generates the synthetic ads corpora that stand in
// for the paper's eBay-derived data (DESIGN.md substitution table).
// Generation is deterministic given a seed, uses skewed (Zipf-like)
// popularity for categorical values, keeps Type I value pairs
// compatible (a Camry is a Toyota), and correlates the quantitative
// attributes the partial-match experiments rely on (newer cars cost
// more and have fewer miles).
package adsgen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/schema"
	"repro/internal/sqldb"
)

// Ad is one generated advertisement: attribute name → value.
type Ad map[string]sqldb.Value

// Generator produces ads for the built-in domains.
type Generator struct {
	rng *rand.Rand
}

// NewGenerator returns a generator seeded deterministically.
func NewGenerator(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed))}
}

// carModels maps each car make to its compatible models.
var carModels = map[string][]string{
	"toyota": {"camry", "corolla"}, "honda": {"accord", "civic"},
	"ford": {"focus", "mustang"}, "chevy": {"malibu", "impala"},
	"bmw": {"3series", "m3"}, "mazda": {"mazda3", "miata"},
	"nissan": {"altima", "sentra"}, "dodge": {"charger"},
	"hyundai": {"elantra"}, "subaru": {"outback"},
	"volkswagen": {"jetta"}, "audi": {"a4"}, "lexus": {"es350"},
	"kia": {"sorento"}, "jeep": {"wrangler"},
}

// motoModels maps each motorcycle make to its compatible models.
var motoModels = map[string][]string{
	"harley": {"sportster"}, "yamaha": {"r1"},
	"kawasaki": {"ninja", "vulcan"}, "suzuki": {"gsxr"},
	"ducati": {"monster"}, "triumph": {"bonneville"},
	"honda": {"cbr", "goldwing", "rebel"}, "bmw": {"gs"},
	"ktm": {"duke"}, "aprilia": {"tuono"},
}

// makeTier is a relative price multiplier per car/motorcycle make,
// giving the price distribution realistic brand structure.
var makeTier = map[string]float64{
	"bmw": 2.2, "audi": 2.0, "lexus": 1.9, "ducati": 1.9,
	"toyota": 1.1, "honda": 1.1, "subaru": 1.1, "volkswagen": 1.1,
	"ford": 1.0, "chevy": 1.0, "nissan": 1.0, "mazda": 0.95,
	"dodge": 1.0, "hyundai": 0.85, "kia": 0.85, "jeep": 1.2,
	"harley": 1.6, "triumph": 1.4, "yamaha": 1.0, "kawasaki": 1.0,
	"suzuki": 0.95, "ktm": 1.2, "aprilia": 1.3,
}

// Generate produces n ads for the domain schema s.
func (g *Generator) Generate(s *schema.Schema, n int) []Ad {
	out := make([]Ad, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, g.one(s))
	}
	return out
}

// Populate generates n ads for s and inserts them into a fresh table
// registered in db.
func (g *Generator) Populate(db *sqldb.DB, s *schema.Schema, n int) (*sqldb.Table, error) {
	tbl, err := db.CreateTable(s)
	if err != nil {
		return nil, err
	}
	for _, ad := range g.Generate(s, n) {
		if _, err := tbl.Insert(ad); err != nil {
			return nil, fmt.Errorf("adsgen: %w", err)
		}
	}
	return tbl, nil
}

// PopulateAll builds and fills a table for every built-in domain with
// n ads each, returning the database.
func PopulateAll(seed int64, n int) (*sqldb.DB, error) {
	db := sqldb.NewDB()
	for _, name := range schema.DomainNames {
		g := NewGenerator(seed + int64(len(name))*7919)
		if _, err := g.Populate(db, schema.ByName(name), n); err != nil {
			return nil, err
		}
	}
	return db, nil
}

func (g *Generator) one(s *schema.Schema) Ad {
	ad := make(Ad, len(s.Attrs))
	switch s.Domain {
	case "cars":
		g.vehicle(s, ad, carModels, "make", "model", 4000, 45000)
	case "motorcycles":
		g.vehicle(s, ad, motoModels, "make", "model", 1500, 20000)
	default:
		g.generic(s, ad)
	}
	// Fill any attribute the domain-specific path left empty.
	for _, a := range s.Attrs {
		if _, done := ad[a.Name]; done {
			continue
		}
		switch a.Type {
		case schema.TypeI, schema.TypeII:
			ad[a.Name] = sqldb.String(g.pickSkewed(a.Values))
		case schema.TypeIII:
			ad[a.Name] = sqldb.Number(g.numeric(a))
		}
	}
	return ad
}

// vehicle generates correlated make/model/year/price/mileage records
// for the cars and motorcycles domains.
func (g *Generator) vehicle(s *schema.Schema, ad Ad, models map[string][]string, makeAttr, modelAttr string, basePrice, topPrice float64) {
	makeA, _ := s.Attr(makeAttr)
	mk := g.pickSkewed(makeA.Values)
	compat := models[mk]
	if len(compat) == 0 {
		modelA, _ := s.Attr(modelAttr)
		compat = modelA.Values
	}
	model := compat[g.rng.Intn(len(compat))]
	ad[makeAttr] = sqldb.String(mk)
	ad[modelAttr] = sqldb.String(model)

	yearA, _ := s.Attr("year")
	// Recent years are more common: quadratic skew toward Max.
	u := math.Sqrt(g.rng.Float64())
	// float64(x*y) rounds the product, so no CPU fuses it with the add.
	year := math.Round(yearA.Min + float64(u*(yearA.Max-yearA.Min)))
	ad["year"] = sqldb.Number(year)

	age := yearA.Max - year
	tier := makeTier[mk]
	if tier == 0 {
		tier = 1
	}
	// Exponential depreciation with multiplicative noise.
	price := basePrice + float64((topPrice-basePrice)*tier/2.2*math.Exp(-age/7))
	price *= 0.7 + float64(0.6*g.rng.Float64())
	priceA, _ := s.Attr("price")
	ad["price"] = sqldb.Number(clampRound(price, priceA.Min, priceA.Max))

	if mileA, ok := s.Attr("mileage"); ok {
		// Float64 inlines to a multiply the sum would otherwise fuse.
		miles := float64(age*11000*(0.5+float64(g.rng.Float64()))) + float64(g.rng.Float64()*8000)
		ad["mileage"] = sqldb.Number(clampRound(miles, mileA.Min, mileA.Max))
	}
}

// generic fills a record attribute-by-attribute with skewed
// categorical picks and per-shape numeric draws, correlating price
// with the first Type I value's popularity rank (rarer identifiers
// are pricier, as with brands).
func (g *Generator) generic(s *schema.Schema, ad Ad) {
	var firstRank float64 = -1
	for _, a := range s.Attrs {
		switch a.Type {
		case schema.TypeI:
			idx := g.pickSkewedIndex(len(a.Values))
			ad[a.Name] = sqldb.String(a.Values[idx])
			if firstRank < 0 {
				firstRank = float64(idx) / float64(len(a.Values))
			}
		case schema.TypeII:
			ad[a.Name] = sqldb.String(g.pickSkewed(a.Values))
		case schema.TypeIII:
			v := g.numeric(a)
			if isPriceLike(a) && firstRank >= 0 {
				// Rarer Type I values (higher rank) skew pricier.
				v = a.Min + float64((v-a.Min)*(0.6+float64(0.9*firstRank)))
			}
			ad[a.Name] = sqldb.Number(clampRound(v, a.Min, a.Max))
		}
	}
}

// numeric draws a value from the attribute's range: log-uniform for
// price-like attributes (heavy right tail), uniform otherwise, with
// integer rounding for ranges wider than 20.
func (g *Generator) numeric(a schema.Attribute) float64 {
	var v float64
	if isPriceLike(a) {
		lo := math.Log(math.Max(a.Min, 1))
		hi := math.Log(a.Max)
		v = math.Exp(lo + float64(g.rng.Float64()*(hi-lo)))
	} else {
		v = a.Min + float64(g.rng.Float64()*(a.Max-a.Min))
	}
	return clampRound(v, a.Min, a.Max)
}

func isPriceLike(a schema.Attribute) bool {
	for _, u := range a.Unit {
		if u == "$" {
			return true
		}
	}
	return false
}

func clampRound(v, lo, hi float64) float64 {
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	if hi-lo > 20 {
		v = math.Round(v)
	} else {
		v = math.Round(v*10) / 10
	}
	return v
}

// pickSkewed selects a value with Zipf-like popularity: the i-th value
// has weight 1/(i+1), so early values dominate as real ad inventories
// do.
func (g *Generator) pickSkewed(values []string) string {
	return values[g.pickSkewedIndex(len(values))]
}

func (g *Generator) pickSkewedIndex(n int) int {
	if n == 1 {
		return 0
	}
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / float64(i+1)
	}
	r := g.rng.Float64() * total
	for i := 0; i < n; i++ {
		r -= 1 / float64(i+1)
		if r <= 0 {
			return i
		}
	}
	return n - 1
}
