package schema

// This file defines the eight ads domains evaluated in the paper
// (Sec. 5.1): Cars, Motorcycles, Clothing, Computer Science Jobs,
// Furniture, Food Coupons, Musical Instruments, and Jewellery. The
// schemas follow the paper's convention: Type I attributes are the
// product identifiers (what eBay's push-down menus enumerate), Type II
// attributes are descriptive properties, Type III attributes carry
// quantitative values with their eBay-style value ranges.

// DomainNames lists the eight domains in the paper's order.
var DomainNames = []string{
	"cars", "motorcycles", "clothing", "csjobs",
	"furniture", "foodcoupons", "instruments", "jewellery",
}

// ByName builds the schema for the named domain. It panics on an
// unknown name; use DomainNames for the valid set.
func ByName(name string) *Schema {
	switch name {
	case "cars":
		return Cars()
	case "motorcycles":
		return Motorcycles()
	case "clothing":
		return Clothing()
	case "csjobs":
		return CSJobs()
	case "furniture":
		return Furniture()
	case "foodcoupons":
		return FoodCoupons()
	case "instruments":
		return Instruments()
	case "jewellery":
		return Jewellery()
	}
	panic("schema: unknown domain " + name)
}

// Cars is the running-example domain of the paper.
func Cars() *Schema {
	return &Schema{
		Domain: "cars",
		Table:  "car_ads",
		Attrs: []Attribute{
			{Name: "make", Type: TypeI, Values: []string{
				"toyota", "honda", "ford", "chevy", "bmw", "mazda",
				"nissan", "dodge", "hyundai", "subaru", "volkswagen",
				"audi", "lexus", "kia", "jeep",
			}},
			{Name: "model", Type: TypeI, Values: []string{
				"camry", "corolla", "accord", "civic", "focus", "mustang",
				"malibu", "impala", "3series", "m3", "mazda3", "miata",
				"altima", "sentra", "charger", "elantra", "outback",
				"jetta", "a4", "es350", "sorento", "wrangler",
			}},
			{Name: "color", Type: TypeII, Values: []string{
				"red", "blue", "black", "white", "silver", "grey",
				"green", "gold", "yellow", "orange",
			}},
			{Name: "transmission", Type: TypeII, Values: []string{
				"automatic", "manual",
			}},
			{Name: "doors", Type: TypeII, Values: []string{
				"2 door", "4 door",
			}},
			{Name: "drivetrain", Type: TypeII, Values: []string{
				"2 wheel drive", "4 wheel drive", "all wheel drive",
			}},
			{Name: "year", Type: TypeIII, Min: 1985, Max: 2011},
			{Name: "price", Type: TypeIII, Min: 500, Max: 80000,
				Unit: []string{"$", "usd", "dollar", "dollars", "bucks"}},
			{Name: "mileage", Type: TypeIII, Min: 0, Max: 250000,
				Unit: []string{"miles", "mile", "mi"}},
		},
		SuperlativeAttr: map[string]Superlative{
			"cheapest":    {Attr: "price"},
			"inexpensive": {Attr: "price"},
			"newest":      {Attr: "year", Descending: true},
			"latest":      {Attr: "year", Descending: true},
			"oldest":      {Attr: "year"},
			"earliest":    {Attr: "year"},
		},
	}
}

// Motorcycles shares vocabulary with Cars (the paper notes this causes
// the lowest classification accuracy for the two domains).
func Motorcycles() *Schema {
	return &Schema{
		Domain: "motorcycles",
		Table:  "motorcycle_ads",
		Attrs: []Attribute{
			{Name: "make", Type: TypeI, Values: []string{
				"harley", "yamaha", "kawasaki", "suzuki", "ducati",
				"triumph", "honda", "bmw", "ktm", "aprilia",
			}},
			{Name: "model", Type: TypeI, Values: []string{
				"sportster", "r1", "ninja", "gsxr", "monster",
				"bonneville", "cbr", "goldwing", "duke", "tuono",
				"vulcan", "rebel", "gs",
			}},
			{Name: "color", Type: TypeII, Values: []string{
				"red", "blue", "black", "white", "silver", "green",
				"orange", "yellow",
			}},
			{Name: "category", Type: TypeII, Values: []string{
				"cruiser", "sportbike", "touring", "dirt bike", "scooter",
			}},
			{Name: "condition", Type: TypeII, Values: []string{
				"new", "used", "salvage",
			}},
			{Name: "year", Type: TypeIII, Min: 1985, Max: 2011},
			{Name: "price", Type: TypeIII, Min: 300, Max: 40000,
				Unit: []string{"$", "usd", "dollar", "dollars", "bucks"}},
			{Name: "mileage", Type: TypeIII, Min: 0, Max: 120000,
				Unit: []string{"miles", "mile", "mi"}},
			{Name: "engine", Type: TypeIII, Min: 50, Max: 2300,
				Unit: []string{"cc"}},
		},
		SuperlativeAttr: map[string]Superlative{
			"cheapest":    {Attr: "price"},
			"inexpensive": {Attr: "price"},
			"newest":      {Attr: "year", Descending: true},
			"latest":      {Attr: "year", Descending: true},
			"oldest":      {Attr: "year"},
			"earliest":    {Attr: "year"},
		},
	}
}

// Clothing covers apparel ads.
func Clothing() *Schema {
	return &Schema{
		Domain: "clothing",
		Table:  "clothing_ads",
		Attrs: []Attribute{
			{Name: "brand", Type: TypeI, Values: []string{
				"nike", "adidas", "levis", "gap", "zara", "gucci",
				"prada", "uniqlo", "patagonia", "columbia",
			}},
			{Name: "item", Type: TypeI, Values: []string{
				"jacket", "jeans", "dress", "shirt", "sweater", "coat",
				"shoes", "boots", "skirt", "hoodie",
			}},
			{Name: "color", Type: TypeII, Values: []string{
				"red", "blue", "black", "white", "grey", "green",
				"brown", "pink", "navy", "beige",
			}},
			{Name: "size", Type: TypeII, Values: []string{
				"small", "medium", "large", "extra large",
			}},
			{Name: "gender", Type: TypeII, Values: []string{
				"mens", "womens", "unisex", "kids",
			}},
			{Name: "material", Type: TypeII, Values: []string{
				"cotton", "wool", "leather", "denim", "polyester", "silk",
			}},
			{Name: "price", Type: TypeIII, Min: 5, Max: 3000,
				Unit: []string{"$", "usd", "dollar", "dollars", "bucks"}},
		},
		SuperlativeAttr: map[string]Superlative{
			"cheapest":    {Attr: "price"},
			"inexpensive": {Attr: "price"},
		},
	}
}

// CSJobs covers computer-science job postings; "Salary" is the
// paper's sample Type III attribute in the Jobs domain.
func CSJobs() *Schema {
	return &Schema{
		Domain: "csjobs",
		Table:  "csjob_ads",
		Attrs: []Attribute{
			{Name: "title", Type: TypeI, Values: []string{
				"software engineer", "web developer", "database administrator",
				"systems analyst", "network engineer", "data scientist",
				"qa engineer", "security analyst", "devops engineer",
				"mobile developer",
			}},
			{Name: "language", Type: TypeII, Values: []string{
				"java", "python", "c++", "c", "javascript", "sql", "go",
				"ruby", "php", "perl",
			}},
			{Name: "level", Type: TypeII, Values: []string{
				"junior", "senior", "lead", "intern", "principal",
			}},
			{Name: "schedule", Type: TypeII, Values: []string{
				"full time", "part time", "contract", "remote",
			}},
			{Name: "salary", Type: TypeIII, Min: 20000, Max: 250000,
				Unit: []string{"$", "usd", "dollar", "dollars"}},
			{Name: "experience", Type: TypeIII, Min: 0, Max: 15,
				Unit: []string{"years", "year", "yrs"}},
		},
		SuperlativeAttr: map[string]Superlative{
			"highest": {Attr: "salary", Descending: true},
			"lowest":  {Attr: "salary"},
		},
	}
}

// Furniture covers household furniture ads.
func Furniture() *Schema {
	return &Schema{
		Domain: "furniture",
		Table:  "furniture_ads",
		Attrs: []Attribute{
			{Name: "piece", Type: TypeI, Values: []string{
				"sofa", "couch", "table", "desk", "chair", "bed",
				"dresser", "bookshelf", "cabinet", "wardrobe", "recliner",
			}},
			{Name: "material", Type: TypeII, Values: []string{
				"oak", "pine", "walnut", "metal", "glass", "leather",
				"fabric", "plastic", "bamboo",
			}},
			{Name: "color", Type: TypeII, Values: []string{
				"brown", "black", "white", "grey", "beige", "cherry",
				"natural",
			}},
			{Name: "condition", Type: TypeII, Values: []string{
				"new", "used", "refurbished", "antique",
			}},
			{Name: "price", Type: TypeIII, Min: 10, Max: 8000,
				Unit: []string{"$", "usd", "dollar", "dollars", "bucks"}},
			{Name: "width", Type: TypeIII, Min: 10, Max: 120,
				Unit: []string{"inches", "inch", "in"}},
		},
		SuperlativeAttr: map[string]Superlative{
			"cheapest":    {Attr: "price"},
			"inexpensive": {Attr: "price"},
			"widest":      {Attr: "width", Descending: true},
		},
	}
}

// FoodCoupons covers restaurant and grocery coupon ads.
func FoodCoupons() *Schema {
	return &Schema{
		Domain: "foodcoupons",
		Table:  "foodcoupon_ads",
		Attrs: []Attribute{
			{Name: "vendor", Type: TypeI, Values: []string{
				"subway", "dominos", "chipotle", "wendys", "kroger",
				"safeway", "olive garden", "dennys", "papa johns",
				"pizza hut",
			}},
			{Name: "cuisine", Type: TypeII, Values: []string{
				"pizza", "sandwich", "mexican", "italian", "burger",
				"grocery", "breakfast", "chicken",
			}},
			{Name: "coupon", Type: TypeII, Values: []string{
				"buy one get one", "free delivery", "percent off",
				"dollar off", "free item",
			}},
			{Name: "discount", Type: TypeIII, Min: 5, Max: 75,
				Unit: []string{"percent", "%"}},
			{Name: "minimum", Type: TypeIII, Min: 0, Max: 100,
				Unit: []string{"$", "usd", "dollar", "dollars"}},
		},
		SuperlativeAttr: map[string]Superlative{
			"biggest": {Attr: "discount", Descending: true},
			"largest": {Attr: "discount", Descending: true},
		},
	}
}

// Instruments covers musical-instrument ads.
func Instruments() *Schema {
	return &Schema{
		Domain: "instruments",
		Table:  "instrument_ads",
		Attrs: []Attribute{
			{Name: "brand", Type: TypeI, Values: []string{
				"fender", "gibson", "yamaha", "roland", "steinway",
				"pearl", "ibanez", "casio", "selmer", "martin",
			}},
			{Name: "instrument", Type: TypeI, Values: []string{
				"guitar", "piano", "drums", "violin", "saxophone",
				"keyboard", "bass", "trumpet", "flute", "cello",
			}},
			{Name: "condition", Type: TypeII, Values: []string{
				"new", "used", "vintage", "refurbished",
			}},
			{Name: "finish", Type: TypeII, Values: []string{
				"sunburst", "black", "white", "natural", "red", "blue",
			}},
			{Name: "kind", Type: TypeII, Values: []string{
				"acoustic", "electric", "digital", "upright",
			}},
			{Name: "price", Type: TypeIII, Min: 20, Max: 50000,
				Unit: []string{"$", "usd", "dollar", "dollars", "bucks"}},
			{Name: "year", Type: TypeIII, Min: 1950, Max: 2011},
		},
		SuperlativeAttr: map[string]Superlative{
			"cheapest":    {Attr: "price"},
			"inexpensive": {Attr: "price"},
			"newest":      {Attr: "year", Descending: true},
			"oldest":      {Attr: "year"},
		},
	}
}

// Jewellery covers jewellery ads.
func Jewellery() *Schema {
	return &Schema{
		Domain: "jewellery",
		Table:  "jewellery_ads",
		Attrs: []Attribute{
			{Name: "piece", Type: TypeI, Values: []string{
				"ring", "necklace", "bracelet", "earrings", "watch",
				"pendant", "brooch", "anklet",
			}},
			{Name: "metal", Type: TypeII, Values: []string{
				"gold", "silver", "platinum", "titanium", "rose gold",
				"white gold", "stainless steel",
			}},
			{Name: "stone", Type: TypeII, Values: []string{
				"diamond", "ruby", "sapphire", "emerald", "pearl",
				"opal", "amethyst", "topaz",
			}},
			{Name: "gender", Type: TypeII, Values: []string{
				"mens", "womens", "unisex",
			}},
			{Name: "price", Type: TypeIII, Min: 20, Max: 60000,
				Unit: []string{"$", "usd", "dollar", "dollars", "bucks"}},
			{Name: "carat", Type: TypeIII, Min: 0.1, Max: 10,
				Unit: []string{"carat", "carats", "ct"}},
		},
		SuperlativeAttr: map[string]Superlative{
			"cheapest":    {Attr: "price"},
			"inexpensive": {Attr: "price"},
			"biggest":     {Attr: "carat", Descending: true},
			"largest":     {Attr: "carat", Descending: true},
		},
	}
}
