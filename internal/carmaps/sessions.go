package carmaps

import (
	"webbase/internal/mapbuilder"
	"webbase/internal/navcalc"
	"webbase/internal/relation"
	"webbase/internal/sites"
)

// dealerSchema is the schema of the dealer VPS relations of Table 1.
var dealerSchema = relation.NewSchema("Make", "Model", "Year", "Price", "Features", "ZipCode", "Contact")

// Sessions returns the recorded mapping-by-example browsing sessions that
// build the standard navigation maps of AllMaps: the designer's clicks,
// form fill-outs, page names, data-page declarations and manual hints for
// each site (Section 7). featuresURL is a concrete car-features URL used
// to record the newsdayCarFeatures session (MapStats samples one and
// replays the sessions).
func Sessions(featuresURL string) []*mapbuilder.Session {
	dealer := func(header string) navcalc.Column { return navcalc.Column{Header: header, Attr: header} }
	money := func(header string) navcalc.Column {
		return navcalc.Column{Header: header, Attr: header, Money: true}
	}

	newsdaySpec := navcalc.ExtractSpec{
		Columns: []navcalc.Column{
			dealer("Make"), dealer("Model"), dealer("Year"), money("Price"), dealer("Contact"),
		},
		LinkCols: []navcalc.LinkCol{{LinkName: "Car Features", Attr: "Url"}},
	}
	dealerSpec := navcalc.ExtractSpec{Columns: []navcalc.Column{
		dealer("Make"), dealer("Model"), dealer("Year"), money("Price"),
		dealer("Features"), dealer("ZipCode"), dealer("Contact"),
	}}

	return []*mapbuilder.Session{
		{
			Relation:   "newsday",
			StartURL:   "http://" + sites.NewsdayHost + "/",
			StartNode:  "newsdayPg",
			StartLabel: "newsday",
			Schema:     relation.NewSchema("Make", "Model", "Year", "Price", "Contact", "Url"),
			Events: []mapbuilder.Event{
				{Kind: mapbuilder.EvFollow, LinkName: "Automobiles", Node: "UsedCarPg", Label: "UsedCarPg"},
				{Kind: mapbuilder.EvSubmit, FormName: "f1", Node: "carPg", Label: "carPg",
					Values: map[string]string{"make": "ford"},
					VarOf:  map[string]string{"make": "Make"}},
				// featrs is a cryptic name left empty: the designer glosses it.
				{Kind: mapbuilder.EvSubmit, FormName: "f2", Node: "carData", Label: "carData(make, model, year, ...)",
					Values: map[string]string{"model": "escort"},
					VarOf:  map[string]string{"model": "Model", "featrs": "Featrs"}},
				{Kind: mapbuilder.EvMarkData, Extract: newsdaySpec, MoreLink: "More"},
				// Second browse: a rare make goes straight to the data page,
				// recording Figure 2's direct f1 → carData edge.
				{Kind: mapbuilder.EvRestart},
				{Kind: mapbuilder.EvFollow, LinkName: "Automobiles"},
				{Kind: mapbuilder.EvSubmit, FormName: "f1",
					Values: map[string]string{"make": "saab"},
					VarOf:  map[string]string{"make": "Make"}},
				{Kind: mapbuilder.EvMarkData, Extract: newsdaySpec, MoreLink: "More"},
				// The paper: "10 to 12 facts to standardize attribute and
				// domain value names" — the featrs gloss above and this one.
				{Kind: mapbuilder.EvHint, Hint: "contact numbers are NYC area"},
			},
		},
		{
			Relation:  "newsdayCarFeatures",
			StartURL:  featuresURL,
			StartVar:  "Url",
			StartNode: "featuresPg",
			Schema:    relation.NewSchema("Url", "Features", "Picture"),
			Events: []mapbuilder.Event{
				{Kind: mapbuilder.EvMarkData, Extract: navcalc.ExtractSpec{
					Columns: []navcalc.Column{dealer("Features"), dealer("Picture")},
					EnvCols: []navcalc.EnvCol{{Var: "Url", Attr: "Url"}},
				}},
			},
		},
		{
			Relation:  "nyTimes",
			StartURL:  "http://" + sites.NYTimesHost + "/",
			StartNode: "home",
			Schema:    relation.NewSchema("Make", "Model", "Year", "Features", "Price", "Contact"),
			Events: []mapbuilder.Event{
				{Kind: mapbuilder.EvFollow, LinkName: "Classifieds", Node: "searchPg"},
				{Kind: mapbuilder.EvSubmit, FormName: "search", Node: "data",
					Values: map[string]string{"make": "ford", "model": "escort"},
					VarOf:  map[string]string{"make": "Make", "model": "Model"}},
				{Kind: mapbuilder.EvMarkData, Extract: navcalc.ExtractSpec{
					Columns: []navcalc.Column{
						dealer("Make"), dealer("Model"), dealer("Year"),
						dealer("Features"), money("Price"), dealer("Contact"),
					}}, MoreLink: "More"},
				{Kind: mapbuilder.EvHint, Hint: "prices include dealer fees"},
			},
		},
		{
			Relation:  "newYorkDaily",
			StartURL:  "http://" + sites.NewYorkDailyHost + "/",
			StartNode: "home",
			Schema:    relation.NewSchema("Make", "Model", "Year", "Price", "Contact"),
			Events: []mapbuilder.Event{
				{Kind: mapbuilder.EvFollow, LinkName: "Auto Classifieds", Node: "autosPg"},
				{Kind: mapbuilder.EvFollow, LinkName: "Search Used Cars", Node: "searchPg"},
				{Kind: mapbuilder.EvSubmit, FormName: "carsearch", Node: "data",
					Values: map[string]string{"make": "ford"},
					VarOf:  map[string]string{"make": "Make"}},
				{Kind: mapbuilder.EvMarkData, Extract: navcalc.ExtractSpec{
					Columns: []navcalc.Column{
						dealer("Make"), dealer("Model"), dealer("Year"),
						money("Price"), dealer("Contact"),
					}}, MoreLink: "More"},
			},
		},
		{
			Relation:  "carPoint",
			StartURL:  "http://" + sites.CarPointHost + "/",
			StartNode: "home",
			Schema:    dealerSchema.Clone(),
			Events: []mapbuilder.Event{
				{Kind: mapbuilder.EvSubmit, FormName: "finder", Node: "data",
					Values: map[string]string{"make": "ford", "model": "escort"},
					VarOf:  map[string]string{"make": "Make", "model": "Model"}},
				{Kind: mapbuilder.EvMarkData, Extract: dealerSpec, MoreLink: "More"},
			},
		},
		{
			Relation:  "autoWeb",
			StartURL:  "http://" + sites.AutoWebHost + "/",
			StartNode: "home",
			Schema:    dealerSchema.Clone(),
			Events: []mapbuilder.Event{
				{Kind: mapbuilder.EvFollow, LinkName: "Used Car Search", Node: "usedPg"},
				{Kind: mapbuilder.EvSubmit, FormName: "pickmake", Node: "modelPg",
					Values: map[string]string{"make": "ford"},
					VarOf:  map[string]string{"make": "Make"}},
				{Kind: mapbuilder.EvSubmit, FormName: "pickmodel", Node: "data",
					Values: map[string]string{"model": "escort"},
					VarOf:  map[string]string{"model": "Model"}},
				{Kind: mapbuilder.EvMarkData, Extract: dealerSpec, MoreLink: "More"},
			},
		},
		{
			Relation:  "wwWheels",
			StartURL:  "http://" + sites.WWWheelsHost + "/",
			StartNode: "home",
			Schema:    dealerSchema.Clone(),
			Events: []mapbuilder.Event{
				{Kind: mapbuilder.EvSubmit, FormName: "q", Node: "data",
					Values: map[string]string{"make": "ford", "model": "escort"},
					VarOf:  map[string]string{"make": "Make", "model": "Model"}},
				{Kind: mapbuilder.EvMarkData, Extract: dealerSpec},
			},
		},
		{
			Relation:  "autoConnect",
			StartURL:  "http://" + sites.AutoConnectHost + "/",
			StartNode: "home",
			Schema:    relation.NewSchema("Make", "Model", "Year", "Condition", "Price", "ZipCode", "Contact"),
			Events: []mapbuilder.Event{
				{Kind: mapbuilder.EvFollow, LinkName: "Find a Car", Node: "finderPg"},
				{Kind: mapbuilder.EvSubmit, FormName: "finder", Node: "data",
					Values: map[string]string{"make": "ford", "condition": "good"},
					VarOf:  map[string]string{"make": "Make", "condition": "Condition"}},
				{Kind: mapbuilder.EvMarkData, Extract: navcalc.ExtractSpec{
					Columns: []navcalc.Column{
						dealer("Make"), dealer("Model"), dealer("Year"), dealer("Condition"),
						money("Price"), dealer("ZipCode"), dealer("Contact"),
					}}, MoreLink: "More"},
			},
		},
		{
			Relation:  "yahooCars",
			StartURL:  "http://" + sites.YahooCarsHost + "/",
			StartNode: "home",
			Schema:    dealerSchema.Clone(),
			Events: []mapbuilder.Event{
				{Kind: mapbuilder.EvFollow, LinkName: "ford", BindVar: "Make", Node: "makePg"},
				{Kind: mapbuilder.EvFollow, LinkName: "escort", BindVar: "Model", Node: "data"},
				{Kind: mapbuilder.EvMarkData, Extract: dealerSpec, MoreLink: "More"},
			},
		},
		{
			Relation:  "kellys",
			StartURL:  "http://" + sites.KellysHost + "/",
			StartNode: "home",
			Schema:    relation.NewSchema("Make", "Model", "Year", "Condition", "BBPrice"),
			Events: []mapbuilder.Event{
				{Kind: mapbuilder.EvFollow, LinkName: "Price a Used Car", Node: "pricerPg"},
				{Kind: mapbuilder.EvSubmit, FormName: "pricer", Node: "data",
					Values: map[string]string{"make": "jaguar", "model": "xj6", "year": "1994", "condition": "good"},
					VarOf:  map[string]string{"make": "Make", "model": "Model", "year": "Year", "condition": "Condition"}},
				{Kind: mapbuilder.EvMarkData, Extract: navcalc.ExtractSpec{
					Columns: []navcalc.Column{
						dealer("Make"), dealer("Model"), dealer("Year"),
						dealer("Condition"), money("BBPrice"),
					}}},
			},
		},
		{
			Relation:  "carAndDriver",
			StartURL:  "http://" + sites.CarAndDriverHost + "/",
			StartNode: "home",
			Schema:    relation.NewSchema("Make", "Model", "Safety"),
			Events: []mapbuilder.Event{
				{Kind: mapbuilder.EvFollow, LinkName: "Safety Ratings", Node: "safetyPg"},
				{Kind: mapbuilder.EvSubmit, FormName: "safety", Node: "data",
					Values: map[string]string{"make": "jaguar"},
					VarOf:  map[string]string{"make": "Make"}},
				{Kind: mapbuilder.EvMarkData, Extract: navcalc.ExtractSpec{
					Columns: []navcalc.Column{dealer("Make"), dealer("Model"), dealer("Safety")},
				}},
			},
		},
		{
			Relation:  "carReviews",
			StartURL:  "http://" + sites.CarReviewsHost + "/",
			StartNode: "home",
			Schema:    relation.NewSchema("Make", "Model", "Reliability"),
			Events: []mapbuilder.Event{
				{Kind: mapbuilder.EvFollow, LinkName: "honda", BindVar: "Make", Node: "makePg"},
				{Kind: mapbuilder.EvFollow, LinkName: "civic", BindVar: "Model", Node: "data"},
				{Kind: mapbuilder.EvMarkData, Extract: navcalc.ExtractSpec{
					Columns: []navcalc.Column{dealer("Make"), dealer("Model"), dealer("Reliability")},
				}},
			},
		},
		{
			Relation:  "carFinance",
			StartURL:  "http://" + sites.CarFinanceHost + "/",
			StartNode: "home",
			Schema:    relation.NewSchema("ZipCode", "Duration", "Rate"),
			Events: []mapbuilder.Event{
				{Kind: mapbuilder.EvSubmit, FormName: "rates", Node: "data",
					Values: map[string]string{"zipcode": "11201", "duration": "36"},
					VarOf:  map[string]string{"zipcode": "ZipCode", "duration": "Duration"}},
				{Kind: mapbuilder.EvMarkData, Extract: navcalc.ExtractSpec{
					Columns: []navcalc.Column{dealer("ZipCode"), dealer("Duration"), dealer("Rate")},
				}},
			},
		},
	}
}
