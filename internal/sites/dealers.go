package sites

import (
	"slices"
	"strconv"

	"webbase/internal/web"
)

// Hosts of the dealer sites.
const (
	CarPointHost    = "carpoint.example"
	AutoWebHost     = "autoweb.example"
	WWWheelsHost    = "wwwheels.example"
	AutoConnectHost = "autoconnect.example"
	YahooCarsHost   = "yahoocars.example"
)

// dealerCols is the column set of the dealer data pages: the VPS relations
// carPoint/autoWeb(Car, Price, Features, ZipCode, Contact) of Table 1.
var dealerCols = []string{"Make", "Model", "Year", "Price", "Features", "ZipCode", "Contact"}

// CarPoint builds the CarPoint dealer site: a single search form taking
// make (mandatory), model and zipcode (optional) straight on the home
// page, answering with one paginated listing.
func CarPoint(ds *Dataset) web.Site {
	m := web.NewMux(CarPointHost)
	const base = "http://" + CarPointHost
	makes := Makes()

	m.Handle("/", staticPage("CarPoint", false, func(p *pageBuilder) {
		p.heading("CarPoint Dealer Network")
		p.form("finder", base+"/cgi-bin/find", "get",
			selectField("make", makes...),
			textField("model"),
			textField("zipcode"))
	}))

	m.Handle("/cgi-bin/find", dealerSearch(ds, base+"/cgi-bin/find", false))
	return m
}

// AutoWeb builds the AutoWeb dealer site: a two-form drill-down — first
// pick the make, then on a second dynamically generated page pick the
// model (the second form is itself produced by a CGI script, one of the
// difficulties the paper's introduction highlights).
func AutoWeb(ds *Dataset) web.Site {
	m := web.NewMux(AutoWebHost)
	const base = "http://" + AutoWebHost
	makes := Makes()

	m.Handle("/", staticPage("AutoWeb", false, func(p *pageBuilder) {
		p.heading("AutoWeb")
		p.link("Used Car Search", base, "/used")
	}))

	m.Handle("/used", staticPage("AutoWeb Used Cars", false, func(p *pageBuilder) {
		p.form("pickmake", base+"/cgi-bin/models", "post",
			selectField("make", makes...))
	}))

	m.Handle("/cgi-bin/models", web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		mk := req.Param("make")
		if mk == "" {
			return errorPage(req, false, "make is required"), nil
		}
		// Dynamically generated second form whose model domain depends on
		// the previous input.
		heading := "Models of " + titleCase(mk) + " in stock"
		models := ds.ModelsOf(mk)
		return render(req.URL, "AutoWeb: Pick a Model", false, func(p *pageBuilder) {
			p.heading(heading)
			p.form("pickmodel", base+"/cgi-bin/stock", "post",
				hiddenField("make", mk),
				selectField("model", models...))
		}), nil
	}))

	m.Handle("/cgi-bin/stock", dealerSearch(ds, base+"/cgi-bin/stock", false))
	return m
}

// WWWheels builds the WWWheels site: the simplest dealer — one form on the
// home page and a single unpaginated (and sloppily marked-up) data page.
func WWWheels(ds *Dataset) web.Site {
	m := web.NewMux(WWWheelsHost)
	const base = "http://" + WWWheelsHost
	makes := Makes()

	m.Handle("/", staticPage("WWWheels", true, func(p *pageBuilder) {
		p.heading("WWWheels — wheels on the World Wide Web")
		p.form("q", base+"/cgi-bin/q", "get",
			selectField("make", makes...),
			textField("model"))
	}))

	m.Handle("/cgi-bin/q", web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		mk := req.Param("make")
		if mk == "" {
			return errorPage(req, true, "make is required"), nil
		}
		ads := ds.ByMakeModel(mk, req.Param("model"))
		// WWWheels wraps its results in a layout table (sidebar + content),
		// the typical 1990s construction that forces extractors to keep
		// nested tables apart.
		return render(req.URL, "WWWheels Results", true, func(p *pageBuilder) {
			p.heading(strconv.Itoa(len(ads)), " cars found")
			p.layoutOpen()
			p.adTable(dealerCols, ads)
			p.layoutClose()
		}), nil
	}))
	return m
}

// AutoConnect builds the AutoConnect site: its search form uses a radio
// group for condition — the widget from which the map builder infers a
// mandatory attribute (Section 7).
func AutoConnect(ds *Dataset) web.Site {
	m := web.NewMux(AutoConnectHost)
	const base = "http://" + AutoConnectHost
	makes := Makes()

	m.Handle("/", staticPage("AutoConnect", false, func(p *pageBuilder) {
		p.heading("AutoConnect")
		p.link("Find a Car", base, "/find")
	}))

	m.Handle("/find", staticPage("AutoConnect Finder", false, func(p *pageBuilder) {
		p.form("finder", base+"/cgi-bin/inv", "post",
			selectField("make", makes...),
			textField("model"),
			radioField("condition", "excellent", "good", "fair"))
	}))

	m.Handle("/cgi-bin/inv", web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		mk, model, cond := req.Param("make"), req.Param("model"), req.Param("condition")
		if mk == "" || cond == "" {
			return errorPage(req, false, "make and condition are required"), nil
		}
		ads := slices.DeleteFunc(ds.ByMakeModel(mk, model), func(a *Ad) bool { return a.Condition != cond })
		page := atoiOr(req.Param("page"), 0)
		start, end := pageBounds(len(ads), page)
		return render(req.URL, "AutoConnect Inventory", false, func(p *pageBuilder) {
			p.heading("Inventory ", strconv.Itoa(start+1), "–", strconv.Itoa(end), " of ", strconv.Itoa(len(ads)))
			p.adTable([]string{"Make", "Model", "Year", "Condition", "Price", "ZipCode", "Contact"}, ads[start:end])
			if end < len(ads) {
				p.link("More", base, "/cgi-bin/inv?make=", mk, "&model=", model, "&condition=", cond, "&page=", strconv.Itoa(page+1))
			}
		}), nil
	}))
	return m
}

// YahooCars builds the Yahoo! Cars directory site: no forms at all — makes
// and models are "attributes implicitly defined through a set of links"
// (Section 7), so navigation picks links by name rather than filling
// fields.
func YahooCars(ds *Dataset) web.Site {
	m := web.NewMux(YahooCarsHost)
	const base = "http://" + YahooCarsHost
	makes := Makes()

	m.Handle("/", staticPage("Yahoo! Cars", false, func(p *pageBuilder) {
		p.heading("Browse by Make")
		for _, mk := range makes {
			p.link(mk, base, "/make?make=", mk)
		}
	}))

	m.Handle("/make", web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		mk := req.Param("make")
		models := ds.ModelsOf(mk)
		if len(models) == 0 {
			return web.NotFound(req.URL), nil
		}
		return render(req.URL, "Yahoo! Cars: "+titleCase(mk), false, func(p *pageBuilder) {
			p.heading("Browse by Model")
			for _, md := range models {
				p.link(md, base, "/listing?make=", mk, "&model=", md)
			}
		}), nil
	}))

	m.Handle("/listing", web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		mk, model := req.Param("make"), req.Param("model")
		ads := ds.ByMakeModel(mk, model)
		page := atoiOr(req.Param("page"), 0)
		start, end := pageBounds(len(ads), page)
		return render(req.URL, "Yahoo! Cars Listing", false, func(p *pageBuilder) {
			p.heading("Listings ", strconv.Itoa(start+1), "–", strconv.Itoa(end), " of ", strconv.Itoa(len(ads)))
			p.adTable(dealerCols, ads[start:end])
			if end < len(ads) {
				p.link("More", base, "/listing?make=", mk, "&model=", model, "&page=", strconv.Itoa(page+1))
			}
		}), nil
	}))
	return m
}

// dealerSearch returns the shared CGI handler of the simple dealer sites:
// filter by make/model (and zipcode when given) and paginate.
func dealerSearch(ds *Dataset, action string, sloppy bool) web.FetcherFunc {
	return func(req *web.Request) (*web.Response, error) {
		mk, model, zip := req.Param("make"), req.Param("model"), req.Param("zipcode")
		if mk == "" {
			return errorPage(req, sloppy, "make is required"), nil
		}
		ads := ds.ByMakeModel(mk, model)
		if zip != "" {
			ads = slices.DeleteFunc(ads, func(a *Ad) bool { return a.Zip != zip })
		}
		page := atoiOr(req.Param("page"), 0)
		start, end := pageBounds(len(ads), page)
		return render(req.URL, "Dealer Search Results", sloppy, func(p *pageBuilder) {
			p.heading("Results ", strconv.Itoa(start+1), "–", strconv.Itoa(end), " of ", strconv.Itoa(len(ads)))
			p.adTable(dealerCols, ads[start:end])
			if end < len(ads) {
				p.link("More", action, "?make=", mk, "&model=", model, "&zipcode=", zip, "&page=", strconv.Itoa(page+1))
			}
		}), nil
	}
}
