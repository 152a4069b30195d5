package apartments

import (
	"webbase/internal/algebra"
	"webbase/internal/logical"
	"webbase/internal/navcalc"
	"webbase/internal/navmap"
	"webbase/internal/relation"
	"webbase/internal/ur"
	"webbase/internal/vps"
	"webbase/internal/web"
)

// Maps returns the navigation maps of the apartment domain, keyed by VPS
// relation name.
func Maps() map[string]*navmap.Map {
	col := func(h string) navcalc.Column { return navcalc.Column{Header: h, Attr: h} }
	money := func(h string) navcalc.Column { return navcalc.Column{Header: h, Attr: h, Money: true} }

	cityRentals := navmap.New("cityRentals", "http://"+CityRentalsHost+"/",
		relation.NewSchema("Borough", "Neighborhood", "Bedrooms", "Rent", "Contact"))
	cityRentals.AddNode(&navmap.Node{ID: "home"})
	cityRentals.AddNode(&navmap.Node{ID: "searchPg"})
	cityRentals.AddNode(&navmap.Node{ID: "data", IsData: true,
		Extract: navcalc.ExtractSpec{Columns: []navcalc.Column{
			col("Borough"), col("Neighborhood"), col("Bedrooms"), money("Rent"), col("Contact"),
		}}})
	cityRentals.AddEdge("home", navmap.Action{Kind: navmap.ActFollowLink, LinkName: "Apartment Classifieds"}, "searchPg")
	cityRentals.AddEdge("searchPg", navmap.Action{Kind: navmap.ActSubmitForm, FormName: "search",
		Fills: []navcalc.FieldFill{navcalc.Fill("borough", "Borough"), navcalc.Fill("bedrooms", "Bedrooms")}}, "data")
	cityRentals.AddEdge("data", navmap.Action{Kind: navmap.ActFollowLink, LinkName: "More"}, "data")

	aptFinder := navmap.New("aptFinder", "http://"+AptFinderHost+"/",
		relation.NewSchema("Borough", "Neighborhood", "Bedrooms", "Rent", "Fee", "Contact"))
	aptFinder.AddNode(&navmap.Node{ID: "home"})
	aptFinder.AddNode(&navmap.Node{ID: "data", IsData: true,
		Extract: navcalc.ExtractSpec{Columns: []navcalc.Column{
			col("Borough"), col("Neighborhood"), col("Bedrooms"), money("Rent"), money("Fee"), col("Contact"),
		}}})
	aptFinder.AddEdge("home", navmap.Action{Kind: navmap.ActSubmitForm, FormName: "finder",
		Fills: []navcalc.FieldFill{navcalc.Fill("borough", "Borough"), navcalc.Fill("bedrooms", "Bedrooms")}}, "data")
	aptFinder.AddEdge("data", navmap.Action{Kind: navmap.ActFollowLink, LinkName: "More"}, "data")

	rentIndex := navmap.New("rentIndex", "http://"+RentIndexHost+"/",
		relation.NewSchema("Borough", "Bedrooms", "MedianRent"))
	rentIndex.AddNode(&navmap.Node{ID: "home"})
	rentIndex.AddNode(&navmap.Node{ID: "mediansPg"})
	rentIndex.AddNode(&navmap.Node{ID: "data", IsData: true,
		Extract: navcalc.ExtractSpec{Columns: []navcalc.Column{
			col("Borough"), col("Bedrooms"), money("MedianRent"),
		}}})
	rentIndex.AddEdge("home", navmap.Action{Kind: navmap.ActFollowLink, LinkName: "Median Rents"}, "mediansPg")
	rentIndex.AddEdge("mediansPg", navmap.Action{Kind: navmap.ActSubmitForm, FormName: "medians",
		Fills: []navcalc.FieldFill{navcalc.Fill("borough", "Borough"), navcalc.Fill("bedrooms", "Bedrooms")}}, "data")

	safeStreets := navmap.New("safeStreets", "http://"+SafeStreetsHost+"/",
		relation.NewSchema("Borough", "Neighborhood", "CrimeRate"))
	safeStreets.AddNode(&navmap.Node{ID: "home"})
	safeStreets.AddNode(&navmap.Node{ID: "data", IsData: true,
		Extract: navcalc.ExtractSpec{Columns: []navcalc.Column{
			col("Borough"), col("Neighborhood"), col("CrimeRate"),
		}}})
	safeStreets.AddEdge("home", navmap.Action{Kind: navmap.ActFollowVar, EnvVar: "Borough"}, "data")

	return map[string]*navmap.Map{
		"cityRentals": cityRentals,
		"aptFinder":   aptFinder,
		"rentIndex":   rentIndex,
		"safeStreets": safeStreets,
	}
}

// Registry builds the apartment-domain VPS: one handle per mandatory set.
func Registry() (*vps.Registry, error) {
	return vps.FromMaps(Maps(), map[string][][]string{
		"cityRentals": {{"Borough"}},
		"aptFinder":   {{"Borough", "Bedrooms"}},
		"rentIndex":   {{"Borough"}},
		"safeStreets": {{"Borough"}},
	})
}

// Logical builds the apartment-domain view catalog:
//
//	listings(Borough, Neighborhood, Bedrooms, Rent, Contact) =
//	    cityRentals ∪ʳ π(aptFinder)      — owner and broker ads, fee dropped
//	brokered(…, Fee)  = aptFinder        — fee-aware view
//	medians(Borough, Bedrooms, MedianRent) = rentIndex
//	safety(Borough, Neighborhood, CrimeRate) = safeStreets
func Logical(reg *vps.Registry, f web.Fetcher) (*logical.Catalog, error) {
	base := &logical.VPSCatalog{Registry: reg, Fetcher: f}
	cat := logical.NewCatalog(base)
	scan := func(n string) algebra.Expr { return &algebra.Scan{Relation: n} }

	listings := &algebra.RelaxedUnion{
		Left: scan("cityRentals"),
		Right: &algebra.Project{Input: scan("aptFinder"),
			Attrs: []string{"Borough", "Neighborhood", "Bedrooms", "Rent", "Contact"}},
	}
	if err := cat.Define("listings", listings); err != nil {
		return nil, err
	}
	if err := cat.Define("brokered", scan("aptFinder")); err != nil {
		return nil, err
	}
	if err := cat.Define("medians", scan("rentIndex")); err != nil {
		return nil, err
	}
	if err := cat.Define("safety", scan("safeStreets")); err != nil {
		return nil, err
	}
	return cat, nil
}

// UR builds the apartment universal relation: the hunter names boroughs,
// bedrooms, rents, medians and crime rates; compatibility keeps owner and
// broker listings apart and attaches the references to either.
func UR() (*ur.Schema, error) {
	h := &ur.Hierarchy{Root: ur.Cat("ApartmentUR",
		ur.Cat("Source",
			ur.Rel("Listings", ur.Attrs("Borough", "Neighborhood", "Bedrooms", "Rent", "Contact")...),
			ur.Rel("Brokered", ur.Attrs("Borough", "Neighborhood", "Bedrooms", "Rent", "Fee", "Contact")...),
		),
		ur.Cat("References",
			ur.Rel("Medians", ur.Attrs("Borough", "Bedrooms", "MedianRent")...),
			ur.Rel("Safety", ur.Attrs("Borough", "Neighborhood", "CrimeRate")...),
		),
	)}
	rules := []ur.Rule{
		ur.Plus("Listings"),
		ur.Plus("Brokered"),
		ur.Minus("Listings", "Brokered"), // an ad has one source
		ur.Plus("Medians", "Listings"),
		ur.Plus("Medians", "Brokered"),
		ur.Plus("Safety", "Listings"),
		ur.Plus("Safety", "Brokered"),
	}
	mapping := map[string]string{
		"Listings": "listings", "Brokered": "brokered",
		"Medians": "medians", "Safety": "safety",
	}
	return ur.NewSchema("ApartmentUR", h, rules, mapping)
}
