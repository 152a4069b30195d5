package sites

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"webbase/internal/web"
)

// NewsdayHost is the virtual host of the Newsday classifieds site.
const NewsdayHost = "newsday.example"

// AdPageSize is the number of ads each data page carries before a "More"
// link is emitted. Small so that the "repeatedly hitting the More button"
// iteration of Figure 2 is exercised.
const AdPageSize = 5

// TooManyMatches is the result count above which Newsday interposes the
// second form (f2, asking for model and features) instead of showing data
// — the if-then-else branch of Figure 2.
const TooManyMatches = 2 * AdPageSize

// newsday builds the Newsday classifieds site: the site whose navigation
// map is Figure 2 of the paper. Its shape:
//
//	/                 home; links l1, auto, l3, l4
//	/auto             UsedCarPg; form f1(make) → POST /cgi-bin/nclassy
//	/cgi-bin/nclassy  carPg: either a data page (table + More link + per-ad
//	                  "Car Features" links) or, when too many ads match,
//	                  a page with form f2(model, featrs)
//	/features         newsdayCarFeatures data page for one ad
func newsday(ds *Dataset) Site {
	return Site{Host: NewsdayHost, Pages: map[string]Page{
		"/": &Static{Title: "Newsday Online", Heading: "Newsday", Links: []Link{
			{"Long Island News", "/news"}, {"Automobiles", "/auto"}, {"Collectible Cars", "/collectibles"}, {"Sport Utility", "/suv"}}},
		"/news":         filler("Long Island News", "Nothing to see here."),
		"/collectibles": carList("Collectible Cars", ds, func(a *Ad) bool { return a.Year < 1990 }),
		"/suv":          carList("Sport Utility", ds, func(a *Ad) bool { return a.Model == "explorer" || a.Model == "suburban" }),
		"/auto": &Static{Title: "Newsday Used Car Classifieds", Heading: "Used Car Classifieds",
			Text: "Select a make to search Long Island and New York City ads.",
			Form: &Form{Name: "f1", Action: "/cgi-bin/nclassy", Method: "post", Fields: []Field{SelectField("make", Makes()...)}}},
		// A data page has per-ad "Car Features" links, and a "More" link
		// while further pages remain (the link(more) self-loop of Figure 2).
		"/cgi-bin/nclassy": &Script[*Ad]{Title: "Newsday Used Car Listings", Heading: "Listings {from}–{to} of {total}",
			Inputs: []string{"make", "model", "featrs"}, Required: []string{"make"}, Missing: "make is required",
			Detour: narrow(ds),
			Rows: func(in Values) []*Ad {
				ads := ds.ByMakeModel(in[0], in[1])
				if in[2] != "" {
					ads = filterFeatures(ads, in[2])
				}
				return ads
			},
			Columns:  adColumns("Make", "Model", "Year", "Price", "Contact"),
			Link:     &RowLink[*Ad]{Name: "Car Features", Href: "/features?id=", ID: func(a *Ad) int { return a.ID }},
			PageSize: AdPageSize, More: "refined=1"},
		// Code: its heading and its one row are read off the ad the id
		// names, and an unknown id is a 404.
		"/features": Code(func(req *web.Request, base string) *web.Response {
			ad := ds.Find(atoiOr(req.Param("id"), -1))
			if ad == nil {
				return web.NotFound(req.URL)
			}
			f := fill{inputs: adInputs, in: &Values{ad.Make, ad.Model, strconv.Itoa(ad.Year)}}
			return render(req.URL, "Car Features", false, nil, func(p *pageBuilder) {
				p.heading("{Make} {Model} ({year})", &f)
				table(p, featureCols, []*Ad{ad}, nil, base)
			})
		}),
	}}
}

var (
	featureCols = adColumns("Features", "Picture")
	adInputs    = []string{"make", "model", "year"} // what /features' heading reads of its ad
)

// narrow is Figure 2's branch: too many matches without a model → ask the
// user to narrow via form f2 (model and desired features). The hidden
// refined flag marks the second round: resubmitting f2 without picking a
// model means "all models" and yields data — "the length of the sequence
// is not fixed; it is usually one or two" (Section 4). Code: the form's
// model domain is read off the make's ads.
func narrow(ds *Dataset) func(req *web.Request, base string, in Values) *web.Response {
	return func(req *web.Request, base string, in Values) *web.Response {
		mk := in[0]
		if in[1] != "" || req.Param("refined") != "" {
			return nil
		}
		n := ds.count(func(a *Ad) bool { return a.Make == mk })
		if n <= TooManyMatches {
			return nil
		}
		heading := strconv.Itoa(n) + " ads match " + strconv.Quote(mk) + " — narrow your search"
		models := ds.ModelsOf(mk)
		return render(req.URL, "Newsday: Narrow Your Search", false, nil, func(p *pageBuilder) {
			p.heading(heading, nil)
			p.form(&Form{Name: "f2", Action: "/cgi-bin/nclassy", Method: "post", Fields: []Field{
				HiddenField("make", mk), HiddenField("refined", "1"), SelectField("model", models...), TextField("featrs")}}, base)
		})
	}
}

// carList is an unsearchable listing of the ads keep keeps, sorted by make:
// the filler sections of the classified sites.
func carList(title string, ds *Dataset, keep func(*Ad) bool) *Script[*Ad] {
	return &Script[*Ad]{Title: title, Heading: title, Columns: adColumns("Make", "Model", "Year", "Price"),
		Rows: func(Values) []*Ad {
			ads := ds.filter(keep)
			sort.Slice(ads, func(i, j int) bool { return ads[i].Make < ads[j].Make })
			return ads
		}}
}

// filterFeatures keeps, in place, the ads whose feature list mentions the
// requested text, in any case.
func filterFeatures(ads []*Ad, featrs string) []*Ad {
	featrs = strings.ToLower(featrs)
	return slices.DeleteFunc(ads, func(a *Ad) bool { return !strings.Contains(strings.ToLower(a.Features), featrs) })
}

// atoiOr is s in decimal, or def when s is not a number. An absent field
// is def without the error strconv.Atoi would allocate.
func atoiOr(s string, def int) int {
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return def
	}
	return n
}
