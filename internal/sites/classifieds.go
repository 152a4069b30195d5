package sites

import (
	"strconv"

	"webbase/internal/web"
)

// Hosts of the newspaper classified sites.
const (
	NYTimesHost      = "nytimes.example"
	NewYorkDailyHost = "nydailynews.example"
)

// NYTimes builds the New York Times classifieds site. Its shape is one
// level flatter than Newsday's: home → link("Classifieds") → form(make
// mandatory, model optional) → paginated data pages that carry the
// Features column inline (the VPS relation nyTimes(Make, Model, Features,
// Price, Contact) of Table 1).
func NYTimes(ds *Dataset) web.Site {
	m := web.NewMux(NYTimesHost)
	const base = "http://" + NYTimesHost
	makes := Makes()

	m.Handle("/", staticPage("The New York Times", false, func(p *pageBuilder) {
		p.heading("The New York Times")
		p.link("Today's News", base, "/news")
		p.link("Classifieds", base, "/classified")
	}))
	m.Handle("/news", fillerPage("Today's News", "All the news that's fit to print."))

	m.Handle("/classified", staticPage("NYT Auto Classifieds", false, func(p *pageBuilder) {
		p.heading("Automobile Classifieds")
		p.form("search", base+"/cgi-bin/autosearch", "get",
			selectField("make", makes...),
			textField("model"))
	}))

	m.Handle("/cgi-bin/autosearch", web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		mk, model := req.Param("make"), req.Param("model")
		if mk == "" {
			return errorPage(req, false, "make is required"), nil
		}
		ads := ds.ByMakeModel(mk, model)
		page := atoiOr(req.Param("page"), 0)
		start, end := pageBounds(len(ads), page)
		return render(req.URL, "NYT Auto Search Results", false, func(p *pageBuilder) {
			p.heading("Results ", strconv.Itoa(start+1), "–", strconv.Itoa(end), " of ", strconv.Itoa(len(ads)))
			p.adTable([]string{"Make", "Model", "Year", "Features", "Price", "Contact"}, ads[start:end])
			if end < len(ads) {
				p.link("More", base, "/cgi-bin/autosearch?make=", mk, "&model=", model, "&page=", strconv.Itoa(page+1))
			}
		}), nil
	}))

	return m
}

// NewYorkDaily builds the New York Daily News classifieds site: two link
// hops to the search form, and deliberately sloppy markup (unclosed table
// cells) so the lenient parser's recovery is exercised on a full site.
func NewYorkDaily(ds *Dataset) web.Site {
	m := web.NewMux(NewYorkDailyHost)
	const base = "http://" + NewYorkDailyHost
	makes := Makes()

	m.Handle("/", staticPage("NY Daily News", true, func(p *pageBuilder) {
		p.heading("New York Daily News")
		p.link("Sports Final", base, "/sports")
		p.link("Auto Classifieds", base, "/autos")
	}))
	m.Handle("/sports", fillerPage("Sports Final", "Yanks win."))

	m.Handle("/autos", staticPage("Auto Classifieds", true, func(p *pageBuilder) {
		p.heading("Auto Classifieds")
		p.text("Thousands of cars in the five boroughs.")
		p.link("Search Used Cars", base, "/autos/search")
	}))

	m.Handle("/autos/search", staticPage("Used Car Search", true, func(p *pageBuilder) {
		p.form("carsearch", base+"/cgi-bin/cars.cgi", "post",
			selectField("make", makes...))
	}))

	m.Handle("/cgi-bin/cars.cgi", web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		mk := req.Param("make")
		if mk == "" {
			return errorPage(req, true, "make is required"), nil
		}
		ads := ds.ByMake(mk)
		page := atoiOr(req.Param("page"), 0)
		start, end := pageBounds(len(ads), page)
		heading := "Used cars: " + titleCase(mk)
		return render(req.URL, "Used Cars", true, func(p *pageBuilder) {
			p.heading(heading)
			p.adTable([]string{"Make", "Model", "Year", "Price", "Contact"}, ads[start:end])
			if end < len(ads) {
				p.link("More", base, "/cgi-bin/cars.cgi?make=", mk, "&page=", strconv.Itoa(page+1))
			}
		}), nil
	}))

	return m
}

// pageBounds clamps the [start, end) slice bounds for page n of a result
// list paginated at AdPageSize.
func pageBounds(total, page int) (start, end int) {
	start = page * AdPageSize
	if start > total {
		start = total
	}
	end = start + AdPageSize
	if end > total {
		end = total
	}
	return start, end
}
