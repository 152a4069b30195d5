package apartments

import (
	"strconv"

	"webbase/internal/sites"
	"webbase/internal/web"
)

// Hosts of the apartment-domain sites.
const (
	CityRentalsHost = "cityrentals.example"
	AptFinderHost   = "aptfinder.example"
	RentIndexHost   = "rentindex.example"
	SafeStreetsHost = "safestreets.example"
)

// pageSize is the listings-per-page of the paginated sites.
const pageSize = 6

// cityRentals builds the owner-classifieds site: home → link("Apartment
// Classifieds") → form(borough mandatory select, bedrooms optional) →
// paginated listings.
func cityRentals(ds *Dataset) sites.Site {
	return sites.Site{Host: CityRentalsHost, Pages: map[string]sites.Page{
		"/": &sites.Static{Title: "CityRentals", Links: []sites.Link{{Name: "Apartment Classifieds", Href: "/classifieds"}}},
		"/classifieds": &sites.Static{Title: "Apartment Classifieds", Form: &sites.Form{Name: "search", Action: "/cgi/search", Method: "get",
			Fields: []sites.Field{sites.SelectField("borough", Boroughs...), sites.TextField("bedrooms")}}},
		"/cgi/search": &sites.Script[Listing]{Title: "Listings", Heading: "Listings {from}–{to} of {total}",
			Inputs: []string{"borough", "bedrooms"}, Required: []string{"borough"}, Missing: "borough is required",
			Rows:    func(in sites.Values) []Listing { return ds.ByBorough(in[0], bedrooms(in[1])) },
			Columns: listingColumns(false), PageSize: pageSize},
	}}
}

// aptFinder builds the broker site: a bedrooms radio group (mandatory, as
// the map builder infers from the widget) plus a borough select, listings
// carrying the broker Fee column.
func aptFinder(ds *Dataset) sites.Site {
	return sites.Site{Host: AptFinderHost, Pages: map[string]sites.Page{
		"/": &sites.Static{Title: "AptFinder", Form: &sites.Form{Name: "finder", Action: "/cgi/find", Method: "post",
			Fields: []sites.Field{sites.SelectField("borough", Boroughs...), sites.RadioField("bedrooms", "0", "1", "2", "3")}}},
		"/cgi/find": &sites.Script[Listing]{Title: "Brokered Listings", Heading: "Brokered listings {from}–{to} of {total}",
			Inputs: []string{"borough", "bedrooms"}, Required: []string{"borough", "bedrooms"},
			Missing: "borough and bedrooms are required",
			Rows:    func(in sites.Values) []Listing { return ds.ByBorough(in[0], bedrooms(in[1])) },
			Columns: listingColumns(true), PageSize: pageSize},
	}}
}

// rentIndex builds the rent-statistics reference: form(borough; bedrooms
// optional) → median-rent table.
func rentIndex() sites.Site {
	return sites.Site{Host: RentIndexHost, Pages: map[string]sites.Page{
		"/": &sites.Static{Title: "RentIndex", Links: []sites.Link{{Name: "Median Rents", Href: "/medians"}}},
		"/medians": &sites.Static{Title: "Median Rents", Form: &sites.Form{Name: "medians", Action: "/cgi/medians", Method: "get",
			Fields: []sites.Field{sites.SelectField("borough", Boroughs...), sites.TextField("bedrooms")}}},
		"/cgi/medians": &sites.Script[[]string]{Title: "Medians",
			Inputs: []string{"borough", "bedrooms"}, Required: []string{"borough"}, Missing: "borough is required",
			Rows: func(in sites.Values) [][]string {
				beds := []int{0, 1, 2, 3}
				if b := bedrooms(in[1]); b >= 0 {
					beds = []int{b}
				}
				var rows [][]string
				for _, b := range beds {
					rows = append(rows, []string{in[0], strconv.Itoa(b), "$" + strconv.Itoa(MedianRent(in[0], b))})
				}
				return rows
			},
			Columns: sites.StringColumns("Borough", "Bedrooms", "MedianRent")},
	}}
}

// safeStreets builds the neighborhood-safety reference: borough links
// (link-defined attribute) → crime-rate table per neighborhood, and a 404
// for an unknown borough.
func safeStreets() sites.Site {
	var links []sites.Link
	for _, b := range Boroughs {
		links = append(links, sites.Link{Name: b, Href: "/borough?b=" + b})
	}
	return sites.Site{Host: SafeStreetsHost, Pages: map[string]sites.Page{
		"/": &sites.Static{Title: "SafeStreets", Links: links},
		"/borough": &sites.Script[[]string]{Title: "Safety: {b}",
			Inputs: []string{"b"}, Required: []string{"b"}, Missing: "borough is required",
			Detour: func(req *web.Request, _ string, in sites.Values) *web.Response {
				if _, ok := Neighborhoods[in[0]]; !ok {
					return web.NotFound(req.URL)
				}
				return nil
			},
			Rows: func(in sites.Values) [][]string {
				var rows [][]string
				for _, h := range Neighborhoods[in[0]] {
					rows = append(rows, []string{in[0], h, strconv.Itoa(CrimeRate(h))})
				}
				return rows
			},
			Columns: sites.StringColumns("Borough", "Neighborhood", "CrimeRate")},
	}}
}

// listingColumns are the columns of a listings page, with the broker's Fee
// when fee is set.
func listingColumns(fee bool) []sites.Column[Listing] {
	cols := []sites.Column[Listing]{
		{Name: "Borough", Cell: func(c sites.Cell, l Listing) { c.Text(l.Borough) }},
		{Name: "Neighborhood", Cell: func(c sites.Cell, l Listing) { c.Text(l.Neighborhood) }},
		{Name: "Bedrooms", Cell: func(c sites.Cell, l Listing) { c.Int(l.Bedrooms) }},
		{Name: "Rent", Cell: func(c sites.Cell, l Listing) { c.Dollars(l.Rent) }},
	}
	if fee {
		cols = append(cols, sites.Column[Listing]{Name: "Fee", Cell: func(c sites.Cell, l Listing) { c.Dollars(l.Fee) }})
	}
	return append(cols, sites.Column[Listing]{Name: "Contact", Cell: func(c sites.Cell, l Listing) { c.Text(l.Contact) }})
}

// bedrooms is a bedrooms field's count, and -1 (any) when it is not a
// number.
func bedrooms(s string) int {
	n, err := strconv.Atoi(s)
	if err != nil {
		return -1
	}
	return n
}

// World bundles the apartment Web with its ground-truth datasets and its
// sites' values.
type World struct {
	Server      *web.Server
	CityRentals *Dataset
	AptFinder   *Dataset
	Sites       []sites.Site
}

// BuildWorld assembles the apartment-domain Web deterministically.
func BuildWorld() *World {
	w := &World{
		Server:      web.NewServer(),
		CityRentals: NewDataset(101, 500, false),
		AptFinder:   NewDataset(102, 400, true),
	}
	w.Sites = []sites.Site{cityRentals(w.CityRentals), aptFinder(w.AptFinder), rentIndex(), safeStreets()}
	for _, s := range w.Sites {
		w.Server.Register(s.Web())
	}
	return w
}
