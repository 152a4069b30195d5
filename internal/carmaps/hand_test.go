package carmaps

import (
	"webbase/internal/navcalc"
	"webbase/internal/navmap"
	"webbase/internal/relation"
	"webbase/internal/sites"
)

// The hand-written reference maps: what a designer would draw for each
// site of Table 1 without the map builder. The sessions are the maps'
// source; these constructors are what the built maps are checked against.

// column builds a plain extraction column mapping a table header to the
// identically named attribute.
func column(name string) navcalc.Column { return navcalc.Column{Header: name, Attr: name} }

// money builds a currency extraction column.
func money(name string) navcalc.Column { return navcalc.Column{Header: name, Attr: name, Money: true} }

// Newsday returns the Figure 2 navigation map: the newsday VPS relation
// newsday(Make, Model, Year, Price, Contact, Url).
func Newsday() *navmap.Map {
	m := navmap.New("newsday", "http://"+sites.NewsdayHost+"/",
		relation.NewSchema("Make", "Model", "Year", "Price", "Contact", "Url"))
	m.AddNode(&navmap.Node{ID: "newsdayPg", Title: "newsday"})
	m.AddNode(&navmap.Node{ID: "UsedCarPg", Title: "UsedCarPg"})
	m.AddNode(&navmap.Node{ID: "carPg", Title: "carPg"})
	m.AddNode(&navmap.Node{ID: "carData", Title: "carData(make, model, year, ...)", IsData: true,
		Extract: navcalc.ExtractSpec{
			Columns: []navcalc.Column{
				column("Make"), column("Model"), column("Year"),
				money("Price"), column("Contact"),
			},
			LinkCols: []navcalc.LinkCol{{LinkName: "Car Features", Attr: "Url"}},
		}})

	m.AddEdge("newsdayPg", navmap.Action{Kind: navmap.ActFollowLink, LinkName: "Automobiles"}, "UsedCarPg")
	f1 := navmap.Action{Kind: navmap.ActSubmitForm, FormName: "f1",
		Fills: []navcalc.FieldFill{navcalc.Fill("make", "Make")}}
	// form f1 leads either directly to a data page or to the narrowing
	// page carPg — the two parallel edges of Figure 2.
	m.AddEdge("UsedCarPg", f1, "carData")
	m.AddEdge("UsedCarPg", f1, "carPg")
	m.AddEdge("carPg", navmap.Action{Kind: navmap.ActSubmitForm, FormName: "f2",
		Fills: []navcalc.FieldFill{navcalc.Fill("model", "Model"), navcalc.Fill("featrs", "Featrs")}}, "carData")
	// The More self-loop: repeatedly hitting the "More" button.
	m.AddEdge("carData", navmap.Action{Kind: navmap.ActFollowLink, LinkName: "More"}, "carData")
	return m
}

// NewsdayCarFeatures returns the map of the newsdayCarFeatures(Url,
// Features, Picture) VPS relation: entered directly at the Url captured by
// the newsday relation, extracting the single features row.
func NewsdayCarFeatures() *navmap.Map {
	m := navmap.New("newsdayCarFeatures", "",
		relation.NewSchema("Url", "Features", "Picture"))
	m.StartURLVar = "Url"
	m.AddNode(&navmap.Node{ID: "featuresPg", Title: "newsdayCarFeatures(features, picture)", IsData: true,
		Extract: navcalc.ExtractSpec{
			Columns: []navcalc.Column{column("Features"), column("Picture")},
			EnvCols: []navcalc.EnvCol{{Var: "Url", Attr: "Url"}},
		}})
	return m
}

// NYTimes returns the map of nyTimes(Make, Model, Features, Price,
// Contact) — plus Year, which the simulated site also lists.
func NYTimes() *navmap.Map {
	m := navmap.New("nyTimes", "http://"+sites.NYTimesHost+"/",
		relation.NewSchema("Make", "Model", "Year", "Features", "Price", "Contact"))
	m.AddNode(&navmap.Node{ID: "home", Title: "nytimes"})
	m.AddNode(&navmap.Node{ID: "searchPg", Title: "classifieds"})
	m.AddNode(&navmap.Node{ID: "data", Title: "results", IsData: true,
		Extract: navcalc.ExtractSpec{Columns: []navcalc.Column{
			column("Make"), column("Model"), column("Year"),
			column("Features"), money("Price"), column("Contact"),
		}}})
	m.AddEdge("home", navmap.Action{Kind: navmap.ActFollowLink, LinkName: "Classifieds"}, "searchPg")
	m.AddEdge("searchPg", navmap.Action{Kind: navmap.ActSubmitForm, FormName: "search",
		Fills: []navcalc.FieldFill{navcalc.Fill("make", "Make"), navcalc.Fill("model", "Model")}}, "data")
	m.AddEdge("data", navmap.Action{Kind: navmap.ActFollowLink, LinkName: "More"}, "data")
	return m
}

// NewYorkDaily returns the map of newYorkDaily(Make, Model, Year, Price,
// Contact): two link hops, a form, a paginated listing.
func NewYorkDaily() *navmap.Map {
	m := navmap.New("newYorkDaily", "http://"+sites.NewYorkDailyHost+"/",
		relation.NewSchema("Make", "Model", "Year", "Price", "Contact"))
	m.AddNode(&navmap.Node{ID: "home", Title: "nydailynews"})
	m.AddNode(&navmap.Node{ID: "autosPg", Title: "autos"})
	m.AddNode(&navmap.Node{ID: "searchPg", Title: "search"})
	m.AddNode(&navmap.Node{ID: "data", Title: "listings", IsData: true,
		Extract: navcalc.ExtractSpec{Columns: []navcalc.Column{
			column("Make"), column("Model"), column("Year"),
			money("Price"), column("Contact"),
		}}})
	m.AddEdge("home", navmap.Action{Kind: navmap.ActFollowLink, LinkName: "Auto Classifieds"}, "autosPg")
	m.AddEdge("autosPg", navmap.Action{Kind: navmap.ActFollowLink, LinkName: "Search Used Cars"}, "searchPg")
	m.AddEdge("searchPg", navmap.Action{Kind: navmap.ActSubmitForm, FormName: "carsearch",
		Fills: []navcalc.FieldFill{navcalc.Fill("make", "Make")}}, "data")
	m.AddEdge("data", navmap.Action{Kind: navmap.ActFollowLink, LinkName: "More"}, "data")
	return m
}

func dealerExtract() navcalc.ExtractSpec {
	return navcalc.ExtractSpec{Columns: []navcalc.Column{
		column("Make"), column("Model"), column("Year"), money("Price"),
		column("Features"), column("ZipCode"), column("Contact"),
	}}
}

// CarPoint returns the map of carPoint(Car, Price, Features, ZipCode,
// Contact): a one-form site.
func CarPoint() *navmap.Map {
	m := navmap.New("carPoint", "http://"+sites.CarPointHost+"/", dealerSchema.Clone())
	m.AddNode(&navmap.Node{ID: "home", Title: "carpoint"})
	m.AddNode(&navmap.Node{ID: "data", Title: "inventory", IsData: true, Extract: dealerExtract()})
	m.AddEdge("home", navmap.Action{Kind: navmap.ActSubmitForm, FormName: "finder",
		Fills: []navcalc.FieldFill{
			navcalc.Fill("make", "Make"), navcalc.Fill("model", "Model"),
			navcalc.Fill("zipcode", "ZipCode"),
		}}, "data")
	m.AddEdge("data", navmap.Action{Kind: navmap.ActFollowLink, LinkName: "More"}, "data")
	return m
}

// AutoWeb returns the map of autoWeb(Car, Price, Features, ZipCode,
// Contact): a two-form drill-down behind an entry link.
func AutoWeb() *navmap.Map {
	m := navmap.New("autoWeb", "http://"+sites.AutoWebHost+"/", dealerSchema.Clone())
	m.AddNode(&navmap.Node{ID: "home", Title: "autoweb"})
	m.AddNode(&navmap.Node{ID: "usedPg", Title: "used car search"})
	m.AddNode(&navmap.Node{ID: "modelPg", Title: "pick a model"})
	m.AddNode(&navmap.Node{ID: "data", Title: "stock", IsData: true, Extract: dealerExtract()})
	m.AddEdge("home", navmap.Action{Kind: navmap.ActFollowLink, LinkName: "Used Car Search"}, "usedPg")
	m.AddEdge("usedPg", navmap.Action{Kind: navmap.ActSubmitForm, FormName: "pickmake",
		Fills: []navcalc.FieldFill{navcalc.Fill("make", "Make")}}, "modelPg")
	m.AddEdge("modelPg", navmap.Action{Kind: navmap.ActSubmitForm, FormName: "pickmodel",
		Fills: []navcalc.FieldFill{navcalc.Fill("model", "Model")}}, "data")
	m.AddEdge("data", navmap.Action{Kind: navmap.ActFollowLink, LinkName: "More"}, "data")
	return m
}

// WWWheels returns the map of wwWheels(...): one form, one data page.
func WWWheels() *navmap.Map {
	m := navmap.New("wwWheels", "http://"+sites.WWWheelsHost+"/", dealerSchema.Clone())
	m.AddNode(&navmap.Node{ID: "home", Title: "wwwheels"})
	m.AddNode(&navmap.Node{ID: "data", Title: "results", IsData: true, Extract: dealerExtract()})
	m.AddEdge("home", navmap.Action{Kind: navmap.ActSubmitForm, FormName: "q",
		Fills: []navcalc.FieldFill{navcalc.Fill("make", "Make"), navcalc.Fill("model", "Model")}}, "data")
	return m
}

// AutoConnect returns the map of autoConnect(Make, Model, Year, Condition,
// Price, ZipCode, Contact): its form's condition radio group is mandatory.
func AutoConnect() *navmap.Map {
	m := navmap.New("autoConnect", "http://"+sites.AutoConnectHost+"/",
		relation.NewSchema("Make", "Model", "Year", "Condition", "Price", "ZipCode", "Contact"))
	m.AddNode(&navmap.Node{ID: "home", Title: "autoconnect"})
	m.AddNode(&navmap.Node{ID: "finderPg", Title: "finder"})
	m.AddNode(&navmap.Node{ID: "data", Title: "inventory", IsData: true,
		Extract: navcalc.ExtractSpec{Columns: []navcalc.Column{
			column("Make"), column("Model"), column("Year"), column("Condition"),
			money("Price"), column("ZipCode"), column("Contact"),
		}}})
	m.AddEdge("home", navmap.Action{Kind: navmap.ActFollowLink, LinkName: "Find a Car"}, "finderPg")
	m.AddEdge("finderPg", navmap.Action{Kind: navmap.ActSubmitForm, FormName: "finder",
		Fills: []navcalc.FieldFill{
			navcalc.Fill("make", "Make"), navcalc.Fill("model", "Model"),
			navcalc.Fill("condition", "Condition"),
		}}, "data")
	m.AddEdge("data", navmap.Action{Kind: navmap.ActFollowLink, LinkName: "More"}, "data")
	return m
}

// YahooCars returns the map of yahooCars(...): make and model are
// link-defined attributes, so the edges are variable link follows.
func YahooCars() *navmap.Map {
	m := navmap.New("yahooCars", "http://"+sites.YahooCarsHost+"/", dealerSchema.Clone())
	m.AddNode(&navmap.Node{ID: "home", Title: "browse by make"})
	m.AddNode(&navmap.Node{ID: "makePg", Title: "browse by model"})
	m.AddNode(&navmap.Node{ID: "data", Title: "listing", IsData: true, Extract: dealerExtract()})
	m.AddEdge("home", navmap.Action{Kind: navmap.ActFollowVar, EnvVar: "Make"}, "makePg")
	m.AddEdge("makePg", navmap.Action{Kind: navmap.ActFollowVar, EnvVar: "Model"}, "data")
	m.AddEdge("data", navmap.Action{Kind: navmap.ActFollowLink, LinkName: "More"}, "data")
	return m
}

// Kellys returns the map of kellys(Make, Model, Year, Condition, BBPrice).
func Kellys() *navmap.Map {
	m := navmap.New("kellys", "http://"+sites.KellysHost+"/",
		relation.NewSchema("Make", "Model", "Year", "Condition", "BBPrice"))
	m.AddNode(&navmap.Node{ID: "home", Title: "kbb"})
	m.AddNode(&navmap.Node{ID: "pricerPg", Title: "price a used car"})
	m.AddNode(&navmap.Node{ID: "data", Title: "blue book value", IsData: true,
		Extract: navcalc.ExtractSpec{Columns: []navcalc.Column{
			column("Make"), column("Model"), column("Year"),
			column("Condition"), money("BBPrice"),
		}}})
	m.AddEdge("home", navmap.Action{Kind: navmap.ActFollowLink, LinkName: "Price a Used Car"}, "pricerPg")
	m.AddEdge("pricerPg", navmap.Action{Kind: navmap.ActSubmitForm, FormName: "pricer",
		Fills: []navcalc.FieldFill{
			navcalc.Fill("make", "Make"), navcalc.Fill("model", "Model"),
			navcalc.Fill("year", "Year"), navcalc.Fill("condition", "Condition"),
		}}, "data")
	return m
}

// CarAndDriver returns the map of carAndDriver(Make, Model, Safety).
func CarAndDriver() *navmap.Map {
	m := navmap.New("carAndDriver", "http://"+sites.CarAndDriverHost+"/",
		relation.NewSchema("Make", "Model", "Safety"))
	m.AddNode(&navmap.Node{ID: "home", Title: "caranddriver"})
	m.AddNode(&navmap.Node{ID: "safetyPg", Title: "safety ratings"})
	m.AddNode(&navmap.Node{ID: "data", Title: "ratings", IsData: true,
		Extract: navcalc.ExtractSpec{Columns: []navcalc.Column{
			column("Make"), column("Model"), column("Safety"),
		}}})
	m.AddEdge("home", navmap.Action{Kind: navmap.ActFollowLink, LinkName: "Safety Ratings"}, "safetyPg")
	m.AddEdge("safetyPg", navmap.Action{Kind: navmap.ActSubmitForm, FormName: "safety",
		Fills: []navcalc.FieldFill{navcalc.Fill("make", "Make")}}, "data")
	return m
}

// CarReviews returns the map of carReviews(Make, Model, Reliability): a
// link directory two levels deep.
func CarReviews() *navmap.Map {
	m := navmap.New("carReviews", "http://"+sites.CarReviewsHost+"/",
		relation.NewSchema("Make", "Model", "Reliability"))
	m.AddNode(&navmap.Node{ID: "home", Title: "reviews by make"})
	m.AddNode(&navmap.Node{ID: "makePg", Title: "model reviews"})
	m.AddNode(&navmap.Node{ID: "data", Title: "review", IsData: true,
		Extract: navcalc.ExtractSpec{Columns: []navcalc.Column{
			column("Make"), column("Model"), column("Reliability"),
		}}})
	m.AddEdge("home", navmap.Action{Kind: navmap.ActFollowVar, EnvVar: "Make"}, "makePg")
	m.AddEdge("makePg", navmap.Action{Kind: navmap.ActFollowVar, EnvVar: "Model"}, "data")
	return m
}

// CarFinance returns the map of carFinance(ZipCode, Duration, Rate).
func CarFinance() *navmap.Map {
	m := navmap.New("carFinance", "http://"+sites.CarFinanceHost+"/",
		relation.NewSchema("ZipCode", "Duration", "Rate"))
	m.AddNode(&navmap.Node{ID: "home", Title: "carfinance"})
	m.AddNode(&navmap.Node{ID: "data", Title: "rates", IsData: true,
		Extract: navcalc.ExtractSpec{Columns: []navcalc.Column{
			column("ZipCode"), column("Duration"), column("Rate"),
		}}})
	m.AddEdge("home", navmap.Action{Kind: navmap.ActSubmitForm, FormName: "rates",
		Fills: []navcalc.FieldFill{navcalc.Fill("zipcode", "ZipCode"), navcalc.Fill("duration", "Duration")}}, "data")
	return m
}

// handMaps returns every reference map, keyed by VPS relation name.
func handMaps() map[string]*navmap.Map {
	maps := []*navmap.Map{
		Newsday(), NewsdayCarFeatures(), NYTimes(), NewYorkDaily(),
		CarPoint(), AutoWeb(), WWWheels(), AutoConnect(), YahooCars(),
		Kellys(), CarAndDriver(), CarReviews(), CarFinance(),
	}
	out := make(map[string]*navmap.Map, len(maps))
	for _, m := range maps {
		out[m.Name] = m
	}
	return out
}
