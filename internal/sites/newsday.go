package sites

import (
	"slices"
	"sort"
	"strconv"

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

// Newsday builds the Newsday classifieds site: the site whose navigation
// map is Figure 2 of the paper. Its shape:
//
//	/                 home; links l1, auto, l3, l4
//	/auto             UsedCarPg; form f1(make) → POST /cgi-bin/nclassy
//	/cgi-bin/nclassy  carPg: either a data page (table + More link + per-ad
//	                  "Car Features" links) or, when too many ads match,
//	                  a page with form f2(model, featrs)
//	/features         newsdayCarFeatures data page for one ad
func Newsday(ds *Dataset) web.Site {
	m := web.NewMux(NewsdayHost)
	const base = "http://" + NewsdayHost
	makes := Makes()

	m.Handle("/", staticPage("Newsday Online", false, func(p *pageBuilder) {
		p.heading("Newsday")
		p.link("Long Island News", base, "/news")
		p.link("Automobiles", base, "/auto")
		p.link("Collectible Cars", base, "/collectibles")
		p.link("Sport Utility", base, "/suv")
	}))

	m.Handle("/news", fillerPage("Long Island News", "Nothing to see here.")) // filler section
	m.Handle("/collectibles", carListPage("Collectible Cars", ds, func(a *Ad) bool { return a.Year < 1990 }))
	m.Handle("/suv", carListPage("Sport Utility", ds, func(a *Ad) bool { return a.Model == "explorer" || a.Model == "suburban" }))

	m.Handle("/auto", staticPage("Newsday Used Car Classifieds", false, func(p *pageBuilder) {
		p.heading("Used Car Classifieds")
		p.text("Select a make to search Long Island and New York City ads.")
		p.form("f1", base+"/cgi-bin/nclassy", "post",
			selectField("make", makes...))
	}))

	m.Handle("/cgi-bin/nclassy", web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		mk, model, featrs := req.Param("make"), req.Param("model"), req.Param("featrs")
		if mk == "" {
			return errorPage(req, false, "make is required"), nil
		}
		ads := ds.ByMakeModel(mk, model)
		// Figure 2's branch: too many matches without a model → ask the
		// user to narrow via form f2 (model and desired features). The
		// hidden refined flag marks the second round: resubmitting f2
		// without picking a model means "all models" and yields data —
		// "the length of the sequence is not fixed; it is usually one or
		// two" (Section 4).
		if model == "" && req.Param("refined") == "" && len(ads) > TooManyMatches {
			heading := strconv.Itoa(len(ads)) + " ads match " + strconv.Quote(mk) + " — narrow your search"
			models := ds.ModelsOf(mk)
			return render(req.URL, "Newsday: Narrow Your Search", false, func(p *pageBuilder) {
				p.heading(heading)
				p.form("f2", base+"/cgi-bin/nclassy", "post",
					hiddenField("make", mk),
					hiddenField("refined", "1"),
					selectField("model", models...),
					textField("featrs"))
			}), nil
		}
		if featrs != "" {
			ads = filterFeatures(ads, featrs)
		}
		page := atoiOr(req.Param("page"), 0)
		start, end := pageBounds(len(ads), page)
		// A data page: per-ad "Car Features" links, and a "More" link while
		// further pages remain (the link(more) self-loop of Figure 2).
		return render(req.URL, "Newsday Used Car Listings", false, func(p *pageBuilder) {
			p.heading("Listings ", strconv.Itoa(start+1), "–", strconv.Itoa(end), " of ", strconv.Itoa(len(ads)))
			p.featuresTable([]string{"Make", "Model", "Year", "Price", "Contact"}, ads[start:end], base)
			if end < len(ads) {
				p.link("More", base, "/cgi-bin/nclassy?make=", mk, "&model=", model, "&featrs=", featrs,
					"&refined=1&page=", strconv.Itoa(page+1))
			}
		}), nil
	}))

	m.Handle("/features", web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		ad := ds.Find(atoiOr(req.Param("id"), -1))
		if ad == nil {
			return web.NotFound(req.URL), nil
		}
		heading := titleCase(ad.Make) + " " + titleCase(ad.Model) + " (" + strconv.Itoa(ad.Year) + ")"
		return render(req.URL, "Car Features", false, func(p *pageBuilder) {
			p.heading(heading)
			p.table([]string{"Features", "Picture"}, [][]string{{ad.Features, ad.Picture}})
		}), nil
	}))

	return m
}

// filterFeatures keeps, in place, the ads whose feature list mentions the
// requested text.
func filterFeatures(ads []*Ad, featrs string) []*Ad {
	return slices.DeleteFunc(ads, func(a *Ad) bool { return !containsFold(a.Features, featrs) })
}

func containsFold(haystack, needle string) bool {
	h, n := []byte(haystack), []byte(needle)
	lower := func(b byte) byte {
		if b >= 'A' && b <= 'Z' {
			return b + 'a' - 'A'
		}
		return b
	}
	if len(n) == 0 {
		return true
	}
outer:
	for i := 0; i+len(n) <= len(h); i++ {
		for j := range n {
			if lower(h[i+j]) != lower(n[j]) {
				continue outer
			}
		}
		return true
	}
	return false
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

// fillerPage returns a handler serving a page of one heading and one
// paragraph.
func fillerPage(title, body string) web.FetcherFunc {
	return staticPage(title, false, func(p *pageBuilder) {
		p.heading(title)
		p.text(body)
	})
}

// carListPage renders a simple unsearchable listing of the ads passing
// keep, sorted by make, used for the filler sections of the classified
// sites.
func carListPage(title string, ds *Dataset, keep func(*Ad) bool) web.FetcherFunc {
	return func(req *web.Request) (*web.Response, error) {
		ads := ds.filter(keep)
		sort.Slice(ads, func(i, j int) bool { return ads[i].Make < ads[j].Make })
		return render(req.URL, title, false, func(p *pageBuilder) {
			p.heading(title)
			p.adTable([]string{"Make", "Model", "Year", "Price"}, ads)
		}), nil
	}
}
